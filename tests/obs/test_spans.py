"""Tests for the span rows of the interval machine (repro.obs.spans)."""

from repro.obs.intervals import IntervalMachine
from repro.obs.spans import SPAN_SCHEMA, span_records
from repro.sim.trace import TraceRecord


def rec(time, kind, pid, **data):
    return TraceRecord(time=time, kind=kind, pid=pid, data=data)


def suspect(time, pid, target, suspected, detector="hb"):
    return rec(time, "suspect", pid, target=target, suspected=suspected,
               detector=detector)


def probe(*records):
    return IntervalMachine(spans=True).replay(records)


def finalize(p, end_time):
    p.finish(end_time)
    return p.spans


def spans_of(p, end_time=100.0, kind=None):
    out = finalize(p, end_time)
    return [s for s in out if kind is None or s["kind"] == kind]


# -- suspicion intervals -----------------------------------------------------


def test_wrongful_suspicion_interval():
    p = probe(suspect(5.0, "p0", "p1", True),
              suspect(9.0, "p0", "p1", False))
    (s,) = spans_of(p, kind="suspicion")
    assert (s["start"], s["end"]) == (5.0, 9.0)
    assert s["pid"] == "p0" and s["target"] == "p1"
    assert s["wrongful"] is True
    assert s["truncated"] is False


def test_suspicion_of_crashed_target_is_justified():
    p = probe(rec(3.0, "crash", "p1"),
              suspect(5.0, "p0", "p1", True),
              suspect(9.0, "p0", "p1", False))
    susp = spans_of(p, kind="suspicion")
    assert [s["wrongful"] for s in susp] == [False]


def test_target_crash_splits_open_wrongful_span():
    p = probe(suspect(5.0, "p0", "p1", True),
              rec(8.0, "crash", "p1"),
              suspect(12.0, "p0", "p1", False))
    wrongful, justified = spans_of(p, kind="suspicion")
    assert (wrongful["start"], wrongful["end"],
            wrongful["wrongful"]) == (5.0, 8.0, True)
    assert (justified["start"], justified["end"],
            justified["wrongful"]) == (8.0, 12.0, False)


def test_owner_crash_closes_its_suspicions_without_reopen():
    p = probe(suspect(5.0, "p0", "p1", True),
              rec(8.0, "crash", "p0"))
    susp = spans_of(p, kind="suspicion")
    assert len(susp) == 1
    assert susp[0]["end"] == 8.0
    # the crashed owner's interval ended at the crash, nothing reopened
    assert not p.open


def test_duplicate_suspect_records_do_not_restart_span():
    p = probe(suspect(5.0, "p0", "p1", True),
              suspect(6.0, "p0", "p1", True),
              suspect(9.0, "p0", "p1", False))
    (s,) = spans_of(p, kind="suspicion")
    assert s["start"] == 5.0


def test_open_span_truncated_at_horizon():
    p = probe(suspect(5.0, "p0", "p1", True))
    (s,) = spans_of(p, 42.0, kind="suspicion")
    assert s["end"] == 42.0
    assert s["truncated"] is True


# -- convergence -------------------------------------------------------------


def test_convergence_span_at_last_wrongful_close():
    p = probe(suspect(5.0, "p0", "p1", True),
              suspect(9.0, "p0", "p1", False),
              suspect(20.0, "p2", "p1", True),
              suspect(33.0, "p2", "p1", False))
    (conv,) = spans_of(p, kind="convergence")
    assert conv["start"] == conv["end"] == 33.0
    assert conv["pid"] == "*"
    assert p.convergence_time() == 33.0


def test_never_wrong_run_converges_at_zero():
    p = probe()
    (conv,) = spans_of(p, kind="convergence")
    assert conv["start"] == 0.0


def test_unconverged_run_has_no_convergence_span():
    p = probe(suspect(5.0, "p0", "p1", True))
    assert p.convergence_time() is None
    assert spans_of(p, kind="convergence") == []


def test_truncated_wrongful_close_does_not_move_convergence():
    p = probe(suspect(2.0, "p0", "p1", True),
              suspect(4.0, "p0", "p1", False),
              suspect(50.0, "p2", "p3", True))
    # the open wrongful span is truncated at 100, but convergence (which
    # the run never reached) must not be reported at the horizon
    out = finalize(p, 100.0)
    assert [s for s in out if s["kind"] == "convergence"] == []


def test_justified_suspicion_does_not_delay_convergence():
    p = probe(suspect(2.0, "p0", "p1", True),
              suspect(4.0, "p0", "p1", False),
              rec(10.0, "crash", "p2"),
              suspect(11.0, "p0", "p2", True))
    (conv,) = spans_of(p, kind="convergence")
    assert conv["start"] == 4.0


# -- dining phases -----------------------------------------------------------


def test_phase_spans_from_state_records():
    p = probe(rec(1.0, "state", "p0", instance="I", state="hungry"),
              rec(4.0, "state", "p0", instance="I", state="eating"),
              rec(6.0, "state", "p0", instance="I", state="thinking"))
    phases = spans_of(p, 10.0, kind="phase")
    assert [(s["phase"], s["start"], s["end"], s["truncated"])
            for s in phases] == [
        ("hungry", 1.0, 4.0, False),
        ("eating", 4.0, 6.0, False),
        ("thinking", 6.0, 10.0, True),
    ]
    assert all(s["instance"] == "I" for s in phases)


def test_crash_closes_phase_span():
    p = probe(rec(1.0, "state", "p0", instance="I", state="eating"),
              rec(3.0, "crash", "p0"))
    (phase,) = spans_of(p, kind="phase")
    assert (phase["end"], phase["truncated"]) == (3.0, False)
    (crash,) = spans_of(p, kind="crash")
    assert crash["start"] == crash["end"] == 3.0


# -- finalize and export -----------------------------------------------------


def test_finalize_idempotent_and_sorted():
    p = probe(rec(4.0, "state", "p1", instance="I", state="hungry"),
              suspect(2.0, "p0", "p1", True),
              suspect(3.0, "p0", "p1", False))
    one = finalize(p, 10.0)
    two = finalize(p, 999.0)   # later horizon ignored after finalize
    assert one is two
    starts = [s["start"] for s in one]
    assert starts == sorted(starts)


def test_span_dicts_have_fixed_key_set():
    p = probe(suspect(1.0, "p0", "p1", True))
    keys = {tuple(s) for s in finalize(p, 5.0)}
    assert keys == {("kind", "start", "end", "pid", "target", "detector",
                     "wrongful", "instance", "phase", "truncated")}


def test_span_records_shape():
    p = probe(suspect(1.0, "p0", "p1", True), suspect(2.0, "p0", "p1", False))
    records = span_records("runA", 7, 50.0, finalize(p, 50.0))
    assert all(r["schema"] == SPAN_SCHEMA for r in records)
    assert all(r["run"] == {"name": "runA", "seed": 7, "end_time": 50.0}
               for r in records)
    assert {r["span"]["kind"] for r in records} == {"suspicion",
                                                    "convergence"}


# -- integration through the runtime -----------------------------------------


def test_execute_with_spans_matches_scalar_metrics():
    from repro.runtime import RunSpec, execute

    spec = RunSpec(name="spans-int", graph="ring:4", seed=7, max_time=400.0,
                   crashes={"p1": 150.0}, spans=True)
    result = execute(spec)
    assert result.spans is not None
    wrongful = [s for s in result.spans
                if s["kind"] == "suspicion" and s["wrongful"]
                and not s["truncated"]]
    assert len(wrongful) == result.wrongful_suspicions
    conv = [s for s in result.spans if s["kind"] == "convergence"]
    if result.convergence_time is not None:
        assert conv and conv[0]["start"] == result.convergence_time
    records = result.span_records()
    assert records and records[0]["run"]["seed"] == 7


def test_execute_without_spans_has_none():
    from repro.runtime import RunSpec, execute

    result = execute(RunSpec(name="no-spans", graph="ring:3", seed=3,
                             max_time=200.0))
    assert result.spans is None
    assert result.span_records() == []


def test_spans_exact_under_counters_sink():
    from repro.runtime import RunSpec, execute

    full = execute(RunSpec(name="s", graph="ring:3", seed=5, max_time=300.0,
                           spans=True))
    counters = execute(RunSpec(name="s", graph="ring:3", seed=5,
                               max_time=300.0, spans=True, trace="counters"))
    assert full.spans == counters.spans
