"""Tests for the P / T / S substrate oracles and the Ω elector."""

import pytest

from repro.errors import ConfigurationError
from repro.oracles import (
    EventuallyPerfectDetector,
    OmegaElector,
    PerfectDetector,
    StrongDetector,
    TrustingDetector,
    attach_detectors,
)
from repro.oracles.properties import (
    check_perpetual_strong_accuracy,
    check_perpetual_weak_accuracy,
    check_strong_completeness,
    check_trusting_accuracy,
)
from repro.oracles.strong import default_anchor
from repro.sim.faults import CrashSchedule
from tests.conftest import make_engine

PIDS = ["p0", "p1", "p2"]


def run_with(factory, crash=None, max_time=600.0, seed=2):
    sched = crash or CrashSchedule.none()
    eng = make_engine(seed=seed, max_time=max_time, crash=sched)
    for pid in PIDS:
        eng.add_process(pid)
    mods = attach_detectors(eng, PIDS, lambda o, p: factory(o, p, sched))
    eng.run()
    return eng, sched, mods


class TestPerfect:
    def test_never_suspects_live(self):
        eng, sched, _ = run_with(
            lambda o, p, s: PerfectDetector("fd", p, s, latency=5.0),
            crash=CrashSchedule.single("p2", 300.0),
        )
        rep = check_perpetual_strong_accuracy(eng.trace, PIDS, PIDS, sched,
                                              detector="fd")
        assert rep.ok

    def test_detects_crash_with_latency(self):
        eng, sched, mods = run_with(
            lambda o, p, s: PerfectDetector("fd", p, s, latency=5.0),
            crash=CrashSchedule.single("p2", 300.0),
        )
        rep = check_strong_completeness(eng.trace, PIDS, PIDS, sched,
                                        detector="fd")
        assert rep.ok
        assert rep.convergence >= 305.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            PerfectDetector("fd", ["q"], CrashSchedule.none(), latency=-1.0)


class TestTrusting:
    def test_trusting_accuracy_holds(self):
        eng, sched, _ = run_with(
            lambda o, p, s: TrustingDetector("fd", p, s,
                                             registration_delay=20.0),
            crash=CrashSchedule.single("p2", 300.0),
        )
        rep = check_trusting_accuracy(eng.trace, PIDS, PIDS, sched,
                                      detector="fd")
        assert rep.ok

    def test_starts_suspecting_everyone(self):
        eng = make_engine()
        proc = eng.add_process("p")
        mod = proc.add_component(
            TrustingDetector("fd", ["q"], CrashSchedule.none())
        )
        assert mod.suspected("q")

    def test_never_trusts_early_crasher(self):
        eng, sched, mods = run_with(
            lambda o, p, s: TrustingDetector("fd", p, s,
                                             registration_delay=50.0),
            crash=CrashSchedule.single("p2", 10.0),  # dies before registering
        )
        for owner in ("p0", "p1"):
            assert not mods[owner].has_trusted("p2")
            assert mods[owner].suspected("p2")

    def test_completeness(self):
        eng, sched, _ = run_with(
            lambda o, p, s: TrustingDetector("fd", p, s,
                                             registration_delay=20.0),
            crash=CrashSchedule.single("p2", 300.0),
        )
        rep = check_strong_completeness(eng.trace, PIDS, PIDS, sched,
                                        detector="fd")
        assert rep.ok


class TestStrong:
    def factory(self, o, p, s):
        return StrongDetector("fd", p, s, anchor="p0", latency=5.0,
                              noise_until=100.0, noise_prob=0.2)

    def test_anchor_never_suspected(self):
        eng, sched, _ = run_with(self.factory,
                                 crash=CrashSchedule.single("p2", 200.0))
        ok, witness = check_perpetual_weak_accuracy(eng.trace, PIDS, PIDS,
                                                    sched, detector="fd")
        assert ok and witness == "p0"

    def test_noise_makes_wrongful_suspicions(self):
        eng, sched, _ = run_with(self.factory)
        from repro.oracles.properties import false_positive_count

        noisy = sum(
            false_positive_count(eng.trace, o, t, sched, detector="fd")
            for o in PIDS for t in PIDS if o != t
        )
        assert noisy > 0

    def test_completeness(self):
        eng, sched, _ = run_with(self.factory,
                                 crash=CrashSchedule.single("p2", 200.0))
        rep = check_strong_completeness(eng.trace, PIDS, PIDS, sched,
                                        detector="fd")
        assert rep.ok

    def test_faulty_anchor_rejected(self):
        sched = CrashSchedule.single("p0", 10.0)
        with pytest.raises(ConfigurationError):
            StrongDetector("fd", ["p0", "p2"], sched, anchor="p0")

    def test_default_anchor_picks_first_correct(self):
        sched = CrashSchedule.single("p0", 10.0)
        assert default_anchor(PIDS, sched) == "p1"

    def test_default_anchor_requires_correct_process(self):
        sched = CrashSchedule({p: 1.0 for p in PIDS})
        with pytest.raises(ConfigurationError):
            default_anchor(PIDS, sched)


class TestOmega:
    def test_leader_converges_to_min_correct(self):
        from repro.sim import Engine, PartialSynchronyDelays, SimConfig

        sched = CrashSchedule.single("p0", 300.0)
        eng = Engine(
            SimConfig(seed=3, max_time=1200.0),
            delay_model=PartialSynchronyDelays(gst=100.0, delta=1.5),
            crash_schedule=sched,
        )
        for pid in PIDS:
            eng.add_process(pid)
        mods = attach_detectors(
            eng, PIDS,
            lambda o, p: EventuallyPerfectDetector("fd", p,
                                                   heartbeat_period=4,
                                                   initial_timeout=10),
        )
        electors = {}
        for pid in PIDS:
            electors[pid] = eng.process(pid).add_component(
                OmegaElector("omega", mods[pid])
            )
        eng.run()
        from repro.obs import IntervalMachine
        from repro.oracles.properties import leader_agreement

        report = leader_agreement(IntervalMachine(sched).replay(
            eng.trace.records(kind="leader")), PIDS)
        assert report.ok and {p.target for p in report.pairs} == {"p1"}
        # The latest verdict time is the last leader change.
        assert report.convergence >= 300.0
