"""Tests for the perpetual-WX box and its oracle providers."""

import networkx as nx

from repro.dining.client import EagerClient
from repro.dining.perpetual import PerpetualDining
from repro.dining.spec import check_exclusion, check_wait_freedom
from repro.graphs import ring
from repro.oracles import (
    PerfectDetector,
    StrongDetector,
    TrustingDetector,
    attach_detectors,
)
from repro.sim import Engine, PartialSynchronyDelays, SimConfig
from repro.sim.faults import CrashSchedule

INSTANCE = "PX"


def accurate_provider(modules):
    """Suspicion straight from per-process P modules (crash ⟹ eventually
    suspected; live processes never suspected).  P ⪰ (T + S), so a box
    built on it is a legal FTME solution."""

    def provider(pid):
        module = modules[pid]
        return lambda q: module.suspected(q)

    return provider


def trusting_plus_strong_provider(t_modules, s_modules):
    """The paper's (T + S) rule: ``q`` is ignorable iff T revoked a
    previously granted trust (revocation ⟹ crash, by trusting accuracy) or
    both T and S suspect a never-trusted ``q`` (a process that crashed
    before registering; safe only while S's suspicions are crash-accurate,
    a caveat the full FTME protocol removes)."""

    def provider(pid):
        t, s = t_modules[pid], s_modules[pid]

        def suspect(q):
            if t.suspected(q) and t.has_trusted(q):
                return True  # trust revoked: q crashed
            return t.suspected(q) and s.suspected(q)

        return suspect

    return provider


def run_perpetual(provider_kind, seed=1, crash=None, max_time=1500.0):
    g = ring(4)
    pids = sorted(g.nodes)
    sched = crash or CrashSchedule.none()
    eng = Engine(
        SimConfig(seed=seed, max_time=max_time),
        delay_model=PartialSynchronyDelays(gst=100.0, delta=1.5),
        crash_schedule=sched,
    )
    for pid in pids:
        eng.add_process(pid)
    if provider_kind == "perfect":
        mods = attach_detectors(
            eng, pids, lambda o, p: PerfectDetector("P", p, sched))
        provider = accurate_provider(mods)
    else:
        t_mods = attach_detectors(
            eng, pids,
            lambda o, p: TrustingDetector("T", p, sched,
                                          registration_delay=15.0))
        s_mods = attach_detectors(
            eng, pids,
            lambda o, p: StrongDetector("S", p, sched, anchor="p0",
                                        noise_until=0.0))
        provider = trusting_plus_strong_provider(t_mods, s_mods)
    inst = PerpetualDining(INSTANCE, g, provider)
    diners = inst.attach(eng)
    for pid in pids:
        eng.process(pid).add_component(
            EagerClient("client", diners[pid], eat_steps=2))
    eng.run()
    return eng, sched, g


class TestWithPerfectSubstrate:
    def test_perpetual_exclusion_failure_free(self):
        eng, sched, g = run_perpetual("perfect", seed=70)
        assert check_exclusion(eng.trace, g, INSTANCE, sched,
                               eng.now).perpetual_ok

    def test_perpetual_exclusion_under_crash(self):
        eng, sched, g = run_perpetual(
            "perfect", seed=71, crash=CrashSchedule.single("p1", 300.0))
        assert check_exclusion(eng.trace, g, INSTANCE, sched,
                               eng.now).perpetual_ok

    def test_wait_freedom_under_crash(self):
        eng, sched, g = run_perpetual(
            "perfect", seed=72, crash=CrashSchedule.single("p2", 250.0))
        rep = check_wait_freedom(eng.trace, g, INSTANCE, sched, eng.now,
                                 grace=100.0)
        assert rep.ok, rep.format_table()


class TestWithTrustingPlusStrong:
    def test_perpetual_exclusion_failure_free(self):
        eng, sched, g = run_perpetual("ts", seed=73)
        assert check_exclusion(eng.trace, g, INSTANCE, sched,
                               eng.now).perpetual_ok

    def test_perpetual_exclusion_under_crash(self):
        eng, sched, g = run_perpetual(
            "ts", seed=74, crash=CrashSchedule.single("p1", 400.0))
        assert check_exclusion(eng.trace, g, INSTANCE, sched,
                               eng.now).perpetual_ok

    def test_wait_freedom_with_late_crash(self):
        # The crashed process registered with T first, so revocation-based
        # suspicion recovers its forks.
        eng, sched, g = run_perpetual(
            "ts", seed=75, crash=CrashSchedule.single("p3", 400.0))
        rep = check_wait_freedom(eng.trace, g, INSTANCE, sched, eng.now,
                                 grace=120.0)
        assert rep.ok, rep.format_table()
