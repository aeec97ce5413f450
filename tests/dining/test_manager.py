"""Tests for the coordinator-based dining box."""

import pytest

from repro.dining.manager import ManagerDining
from repro.dining.spec import check_exclusion, check_wait_freedom
from repro.graphs import clique, ring
from repro.sim.faults import CrashSchedule
from tests.dining.helpers import INSTANCE, run_dining


def run_managed(graph, **kw):
    return run_dining(graph, instance_cls=ManagerDining, **kw)


class TestFailureFree:
    def test_ring_wait_free_and_exclusive(self):
        g = ring(4)
        eng, sched, _, _ = run_managed(g, seed=420)
        wf = check_wait_freedom(eng.trace, g, INSTANCE, sched, eng.now,
                                grace=100.0)
        assert wf.ok, wf.format_table()
        ex = check_exclusion(eng.trace, g, INSTANCE, sched, eng.now)
        assert ex.eventually_exclusive_by(eng.now * 0.6)

    def test_clique_everyone_served(self):
        g = clique(4)
        eng, sched, _, _ = run_managed(g, seed=421)
        wf = check_wait_freedom(eng.trace, g, INSTANCE, sched, eng.now,
                                grace=100.0)
        assert wf.ok and all(n > 10 for n in wf.sessions.values())

    def test_stable_manager_is_min_vertex(self):
        g = ring(4)
        eng, _, inst, _ = run_managed(g, seed=422, max_time=800.0)
        # After convergence, only the min vertex should be issuing grants.
        # (Early grants from transient self-beliefs are allowed.)
        totals = {pid: m.grants_issued for pid, m in inst.managers.items()}
        assert totals["p0"] == max(totals.values())
        assert totals["p0"] > 20


class TestWithCrashes:
    def test_manager_crash_migrates_role(self):
        g = ring(4)
        sched = CrashSchedule.single("p0", 300.0)   # p0 is the manager
        eng, sched, inst, _ = run_managed(g, seed=423, crash=sched,
                                          max_time=2000.0)
        wf = check_wait_freedom(eng.trace, g, INSTANCE, sched, eng.now,
                                grace=150.0)
        assert wf.ok, wf.format_table()
        # The successor (p1) took over grant duty.
        assert inst.managers["p1"].grants_issued > 10

    def test_grant_holder_crash_is_reclaimed(self):
        g = ring(4)
        sched = CrashSchedule.single("p2", 250.0)
        eng, sched, _, _ = run_managed(g, seed=424, crash=sched,
                                       max_time=2000.0)
        wf = check_wait_freedom(eng.trace, g, INSTANCE, sched, eng.now,
                                grace=150.0)
        assert wf.ok, wf.format_table()

    def test_eventual_exclusion_despite_manager_churn(self):
        g = clique(4)
        sched = CrashSchedule({"p0": 200.0, "p1": 600.0})
        eng, sched, _, _ = run_managed(g, seed=425, crash=sched,
                                       max_time=2500.0)
        ex = check_exclusion(eng.trace, g, INSTANCE, sched, eng.now)
        assert ex.eventually_exclusive_by(eng.now * 0.75), ex.format_table()


class TestReductionOverManagerBox:
    @pytest.mark.parametrize("crashed", [False, True])
    def test_extraction_properties(self, crashed):
        from repro.core.extraction import build_full_extraction
        from repro.dining.boxes import box_factory
        from repro.oracles.properties import (
            check_eventual_strong_accuracy,
            check_strong_completeness,
        )
        from repro.runtime.builder import build_system

        crash = CrashSchedule.single("q", 600.0) if crashed else None
        system = build_system(["p", "q"], seed=426 + crashed,
                              max_time=2500.0, crash=crash)
        build_full_extraction(system.engine, ["p", "q"],
                              box_factory("manager", system.provider),
                              monitors=[("p", "q")])
        system.engine.run()
        if crashed:
            rep = check_strong_completeness(
                system.engine.trace, ["p"], ["q"], system.schedule,
                detector="extracted")
        else:
            rep = check_eventual_strong_accuracy(
                system.engine.trace, ["p"], ["q"], system.schedule,
                detector="extracted")
        assert rep.ok, rep.format_table()


def test_starvation_resistance_head_of_queue():
    """The blocked-set rule: a diner whose neighbors keep requesting is not
    starved by younger compatible requests (ring topology regression)."""
    g = ring(4)
    eng, sched, _, _ = run_managed(g, seed=427, max_time=2000.0)
    wf = check_wait_freedom(eng.trace, g, INSTANCE, sched, eng.now,
                            grace=120.0)
    assert wf.ok
    sessions = list(wf.sessions.values())
    assert max(sessions) <= 3 * min(sessions)   # roughly balanced service
