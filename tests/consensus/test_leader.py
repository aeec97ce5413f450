"""The Ω contract (stable leader election), judged by
:func:`repro.oracles.properties.leader_agreement`."""

from repro.obs import IntervalMachine
from repro.oracles.properties import leader_agreement
from repro.sim.faults import CrashSchedule
from repro.sim.trace import Trace


def synth(rows):
    t = Trace()
    clock = {"now": 0.0}
    t.bind_clock(lambda: clock["now"])
    for time, pid, leader in rows:
        clock["now"] = time
        t.record("leader", pid=pid, leader=leader)
    return t


def judge(rows, schedule=None):
    """``(ok, leaders, stabilization)``: the final leaders the verdicts
    name, and the latest verdict time, which is the last leader change
    (``OmegaElector`` records a row only when its leader changes)."""
    machine = IntervalMachine(schedule or CrashSchedule.none())
    report = leader_agreement(
        machine.replay(synth(rows).records(kind="leader")), ["a", "b"])
    return report.ok, {p.target for p in report.pairs}, report.convergence


def test_stable_agreement():
    ok, leaders, stab = judge([(1.0, "a", "a"), (1.0, "b", "a")])
    assert ok and leaders == {"a"} and stab == 1.0


def test_disagreement_fails():
    ok, *_ = judge([(1.0, "a", "a"), (1.0, "b", "b")])
    assert not ok


def test_crashed_leader_fails():
    ok, leaders, _ = judge([(1.0, "a", "b"), (1.0, "b", "b")],
                           CrashSchedule.single("b", 50.0))
    assert not ok and leaders == {"b"}


def test_crashed_voters_ignored():
    # b disagrees but crashes
    ok, leaders, _ = judge([(1.0, "a", "a"), (1.0, "b", "b")],
                           CrashSchedule.single("b", 50.0))
    assert ok and leaders == {"a"}


def test_missing_output_fails():
    ok, *_ = judge([(1.0, "a", "a")])   # b never produced an estimate
    assert not ok


def test_stabilization_is_latest_change():
    ok, leaders, stab = judge([(1.0, "a", "x"), (9.0, "a", "a"),
                               (1.0, "b", "a")])
    assert ok and leaders == {"a"} and stab == 9.0
