"""Simulation tests for the heartbeat/adaptive-timeout ◇P."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.oracles import EventuallyPerfectDetector, attach_detectors
from repro.oracles.properties import (
    check_eventual_strong_accuracy,
    check_strong_completeness,
)
from repro.runtime.builder import execute
from repro.runtime.spec import RunSpec
from repro.sim import Engine, PartialSynchronyDelays, SimConfig
from repro.sim.faults import CrashSchedule
from repro.types import Message
from tests.conftest import make_engine


def run_system(seed=1, gst=150.0, max_time=1200.0, crash=None, n=3,
               initial_timeout=10, pre_gst_max=40.0):
    pids = [f"p{i}" for i in range(n)]
    sched = crash or CrashSchedule.none()
    eng = Engine(
        SimConfig(seed=seed, max_time=max_time),
        delay_model=PartialSynchronyDelays(gst=gst, delta=1.5,
                                           pre_gst_max=pre_gst_max),
        crash_schedule=sched,
    )
    for pid in pids:
        eng.add_process(pid)
    mods = attach_detectors(
        eng, pids,
        lambda o, peers: EventuallyPerfectDetector(
            "fd", peers, heartbeat_period=4, initial_timeout=initial_timeout),
    )
    eng.run()
    return eng, pids, sched, mods


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        EventuallyPerfectDetector("fd", ["q"], heartbeat_period=0)
    with pytest.raises(ConfigurationError):
        EventuallyPerfectDetector("fd", ["q"], initial_timeout=0)
    with pytest.raises(ConfigurationError):
        EventuallyPerfectDetector("fd", ["q"], backoff=1.0)


def test_strong_completeness_after_crash():
    eng, pids, sched, _ = run_system(crash=CrashSchedule.single("p2", 400.0))
    rep = check_strong_completeness(eng.trace, pids, pids, sched,
                                    detector="fd")
    assert rep.ok
    assert rep.convergence is not None and rep.convergence >= 400.0


def test_eventual_strong_accuracy_failure_free():
    eng, pids, sched, _ = run_system()
    rep = check_eventual_strong_accuracy(eng.trace, pids, pids, sched,
                                         detector="fd")
    assert rep.ok


def test_mistakes_occur_pre_gst_and_stop(seed=6):
    eng, pids, sched, mods = run_system(seed=seed, gst=500.0, max_time=2000.0,
                                        initial_timeout=6, pre_gst_max=80.0)
    rep = check_eventual_strong_accuracy(eng.trace, pids, pids, sched,
                                         detector="fd")
    assert rep.ok                      # converged despite mistakes...
    total = sum(m.mistakes for m in mods.values())
    assert total > 0                   # ...which genuinely happened
    assert rep.convergence is not None


def test_timeout_backs_off_on_mistakes():
    _, _, _, mods = run_system(seed=6, gst=500.0, max_time=2000.0,
                               initial_timeout=6, pre_gst_max=80.0)
    grew = any(
        m.timeout_for(q) > 6 for m in mods.values() for q in m.monitored
    )
    assert grew


def test_heartbeats_are_sent():
    eng, *_ = run_system(max_time=300.0)
    assert eng.network.sent_by_kind.get("hb", 0) > 50


def test_unmonitored_heartbeat_ignored():
    eng = make_engine()
    proc = eng.add_process("p")
    mod = proc.add_component(EventuallyPerfectDetector("fd", ["q"]))
    proc.deliver(Message("stranger", "p", "fd", "hb"))
    for _ in range(4):
        proc.step()
    assert mod.suspects() == frozenset()   # no crash either way


def test_no_self_monitoring():
    _, pids, _, mods = run_system(max_time=100.0)
    for pid in pids:
        assert pid not in mods[pid].monitored


# -- the deadline gate on the timeout scan -----------------------------------


class ScanEveryTick(EventuallyPerfectDetector):
    """Reference: the ungated tick, probing every peer on every firing."""

    def tick(self):
        self.ticks += 1
        if self.ticks % self.heartbeat_period == 0:
            for q in self.monitored:
                self.send(q, self.name, "hb")
        for q in self.monitored:
            if not self.suspected(q) and (
                self.ticks - self._last_hb[q] > self._timeout[q]
            ):
                self.set_suspected(q, True)


def drive(cls, peers, schedule, initial_timeout, backoff):
    """Feed ``schedule`` (None = tick, pid = heartbeat from pid) to a lone
    module; returns the module, its suspect rows and per-op outputs."""
    eng = make_engine()
    mod = eng.add_process("p").add_component(
        cls("fd", peers, initial_timeout=initial_timeout, backoff=backoff))
    outputs = []
    for op in schedule:
        if op is None:
            mod.tick()
        else:
            mod.on_heartbeat(Message(op, "p", "fd", "hb"))
        outputs.append((mod.ticks, mod.suspects()))
        if cls is EventuallyPerfectDetector:
            assert_gate_not_late(mod)
    rows = [(r["target"], r["suspected"], r.get("initial", False))
            for r in eng.trace.records("suspect")]
    return mod, rows, outputs


def assert_gate_not_late(mod):
    """No trusted peer times out at any tick before the gate."""
    trusted = [q for q in mod.monitored if not mod.suspected(q)]
    if mod._next_due == math.inf:
        assert not trusted
        return
    last_skipped = mod._next_due - 1
    for q in trusted:
        assert not last_skipped - mod._last_hb[q] > mod._timeout[q]


PEERS = ["q0", "q1", "q2", "q3"]


@settings(max_examples=150, deadline=None)
@given(
    n_peers=st.integers(0, len(PEERS)),
    backoff=st.sampled_from([2.0, 1.5, 1.1]),
    initial_timeout=st.integers(1, 6),
    schedule=st.lists(
        st.one_of(st.none(), st.none(), st.sampled_from(PEERS + ["stranger"])),
        max_size=300),
)
def test_gated_tick_equals_every_peer_scan(n_peers, backoff, initial_timeout,
                                           schedule):
    peers = PEERS[:n_peers]
    gated, rows, outputs = drive(EventuallyPerfectDetector, peers, schedule,
                                 initial_timeout, backoff)
    ref, ref_rows, ref_outputs = drive(ScanEveryTick, peers, schedule,
                                       initial_timeout, backoff)
    assert rows == ref_rows
    assert outputs == ref_outputs
    assert gated.mistakes == ref.mistakes
    assert gated._timeout == ref._timeout


@pytest.mark.parametrize("backoff", [2.0, 1.5, 1.1])
def test_retrusted_peer_lowers_a_gate_left_open(backoff):
    """With every peer suspected nothing is due; a heartbeat that
    re-trusts one must re-arm the scan for exactly that peer's deadline."""
    timeout = 3
    schedule = [None] * (timeout + 1)          # both peers time out
    schedule += ["q0"]                         # q0 re-trusted, q1 stays out
    schedule += [None] * 40                    # q0 must time out again
    gated, rows, outputs = drive(EventuallyPerfectDetector, ["q0", "q1"],
                                 schedule, timeout, backoff)
    _, ref_rows, ref_outputs = drive(ScanEveryTick, ["q0", "q1"],
                                     schedule, timeout, backoff)
    assert outputs[timeout][1] == frozenset({"q0", "q1"})
    assert outputs[timeout + 1][1] == frozenset({"q1"})
    assert rows == ref_rows and outputs == ref_outputs
    assert rows[-1] == ("q0", True, False)
    assert gated._next_due == math.inf


def test_no_peers_never_scans():
    mod, rows, _ = drive(EventuallyPerfectDetector, [], [None] * 50, 2, 1.1)
    assert rows == [] and mod.ticks == 50 and mod._next_due == math.inf


# -- finding: the heartbeat ◇P falls behind when degree > heartbeat_period ----
#
# A step consumes at most one message, so round-robin fires on_heartbeat at
# most once per rotation — the rate of tick — while degree / period
# heartbeats arrive per tick.  Above degree == period the inbox backlog
# grows without bound, a crashed peer's stale heartbeats keep refreshing
# its last-seen tick, and detection lags ever further behind the crash.
# clique:6 (degree 5, period 4) is the smallest clique that fails; clique:5
# (degree 4) on the same schedule is the control.


def _completeness(graph: str) -> bool:
    return execute(RunSpec(graph=graph, seed=7, pairs="neighbors",
                           max_time=7000.0, crashes={"p3": 6000.0})
                   ).oracle_completeness_ok


def test_completeness_holds_when_degree_equals_heartbeat_period():
    assert _completeness("clique:5")


@pytest.mark.xfail(strict=True, reason=(
    "heartbeat ◇P falls behind when degree > heartbeat_period: one message "
    "per step leaves a growing heartbeat backlog (ROADMAP, open item)"))
def test_completeness_holds_when_degree_exceeds_heartbeat_period():
    assert _completeness("clique:6")
