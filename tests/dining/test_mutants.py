"""Negative controls: the checkers must convict the guilty mutants.

Each mutant violates exactly one specification clause; the corresponding
checker must flag it, and the clauses the mutant respects must pass —
otherwise our green results elsewhere prove nothing.
"""

from repro.dining.client import EagerClient
from repro.dining.spec import check_exclusion, check_wait_freedom
from repro.graphs import clique, ring
from repro.sim import Engine, PartialSynchronyDelays, SimConfig
from repro.sim.faults import CrashSchedule
from tests.dining.mutants import LateDining, RecklessDining, SnobbishDining

INSTANCE = "MUT"


def run_mutant(instance, graph, seed=1, max_time=1000.0):
    pids = sorted(graph.nodes)
    eng = Engine(SimConfig(seed=seed, max_time=max_time),
                 delay_model=PartialSynchronyDelays(gst=100.0, delta=1.5))
    for pid in pids:
        eng.add_process(pid)
    diners = instance.attach(eng)
    for pid in pids:
        eng.process(pid).add_component(
            EagerClient("cl", diners[pid], eat_steps=2))
    eng.run()
    sched = CrashSchedule.none()
    wf = check_wait_freedom(eng.trace, graph, INSTANCE, sched, eng.now,
                            grace=80.0)
    ex = check_exclusion(eng.trace, graph, INSTANCE, sched, eng.now)
    return wf, ex, eng


class TestReckless:
    def test_wait_freedom_passes(self):
        g = clique(3)
        wf, ex, _ = run_mutant(RecklessDining(INSTANCE, g), g, seed=601)
        assert wf.ok

    def test_exclusion_convicted(self):
        g = clique(3)
        wf, ex, eng = run_mutant(RecklessDining(INSTANCE, g), g, seed=602)
        assert ex.count > 50
        # Violations keep happening: no eventual convergence either.
        assert not ex.eventually_exclusive_by(eng.now * 0.9)


class TestSnobbish:
    def test_victim_convicted_starving(self):
        g = ring(4)
        wf, ex, _ = run_mutant(SnobbishDining(INSTANCE, g, victim="p2"), g,
                               seed=603)
        assert not wf.ok
        assert "p2" in wf.starving

    def test_starvation_propagates_from_victim(self):
        g = ring(4)
        wf, ex, _ = run_mutant(SnobbishDining(INSTANCE, g, victim="p2"), g,
                               seed=604, max_time=1500.0)
        # The victim never eats, and its permanently-clean forks freeze the
        # whole ring (the E16 chain-starvation phenomenon, without a crash).
        assert wf.sessions["p2"] == 0
        assert len(wf.starving) >= 2

    def test_exclusion_still_clean(self):
        g = ring(4)
        wf, ex, _ = run_mutant(SnobbishDining(INSTANCE, g, victim="p2"), g,
                               seed=605)
        assert ex.perpetual_ok


class TestLate:
    def test_everyone_starves_after_cutoff(self):
        g = clique(3)
        wf, ex, eng = run_mutant(LateDining(INSTANCE, g, cutoff=200.0), g,
                                 seed=606, max_time=1200.0)
        assert not wf.ok
        assert len(wf.starving) == 3

    def test_pre_cutoff_service_happened(self):
        g = clique(3)
        wf, ex, _ = run_mutant(LateDining(INSTANCE, g, cutoff=200.0), g,
                               seed=607)
        assert all(n > 0 for n in wf.sessions.values())

    def test_grace_window_does_not_hide_real_starvation(self):
        g = clique(3)
        wf, ex, eng = run_mutant(LateDining(INSTANCE, g, cutoff=200.0), g,
                                 seed=608, max_time=1500.0)
        # Even a generous grace window cannot excuse hunger from t~200.
        from repro.dining.spec import check_wait_freedom

        lenient = check_wait_freedom(eng.trace, g, INSTANCE,
                                     CrashSchedule.none(), eng.now,
                                     grace=300.0)
        assert not lenient.ok
