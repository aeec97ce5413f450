"""Tests for the eventually k-fair dining wrapper (Section 8 construction)."""

import pytest

from repro.dining.client import EagerClient
from repro.dining.fair_wrapper import FairDiner, FairDining
from repro.dining.fairness import measure_fairness
from repro.dining.spec import check_exclusion, check_wait_freedom
from repro.dining.wf_ewx import WaitFreeEWXDining
from repro.errors import ConfigurationError
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec

INSTANCE = "FAIR"


def run_fair(graph, seed=1, k=2, crashes=None, max_time=2000.0):
    system = build_system(RunSpec(graph=graph, seed=seed, gst=150.0,
                                  max_time=max_time, crashes=crashes or {}))
    inner = lambda iid, g: WaitFreeEWXDining(iid, g, system.provider)  # noqa: E731
    inst = FairDining(INSTANCE, system.graph, inner, system.provider, k=k)
    diners = inst.attach(system.engine)
    for pid in system.pids:
        system.engine.process(pid).add_component(
            EagerClient("cl", diners[pid], eat_steps=2))
    system.engine.run()
    return system, diners


def test_k_validated():
    with pytest.raises(ConfigurationError):
        FairDiner("f", "I", ("q",), inner=None, suspect=None, k=0)


def test_wait_freedom_preserved():
    system, _ = run_fair("clique:3", seed=310, k=2)
    rep = check_wait_freedom(system.engine.trace, system.graph, INSTANCE,
                             system.schedule, system.engine.now, grace=150.0)
    assert rep.ok, rep.format_table()


def test_exclusion_preserved():
    system, _ = run_fair("clique:3", seed=311, k=2)
    rep = check_exclusion(system.engine.trace, system.graph, INSTANCE,
                          system.schedule, system.engine.now)
    assert rep.eventually_exclusive_by(system.engine.now * 0.5)


@pytest.mark.parametrize("k", [1, 2])
def test_suffix_overtaking_bounded_by_k(k):
    system, _ = run_fair("clique:3", seed=312, k=k, max_time=2500.0)
    eng = system.engine
    excl = check_exclusion(eng.trace, system.graph, INSTANCE,
                           system.schedule, eng.now)
    conv = (excl.last_violation_end or 0.0) + 250.0
    rep = measure_fairness(eng.trace, system.graph, INSTANCE, eng.now,
                           system.schedule)
    assert rep.worst_after(conv) <= k


def test_smaller_k_trades_throughput_for_fairness():
    s1, d1 = run_fair("clique:3", seed=313, k=1)
    s2, d2 = run_fair("clique:3", seed=313, k=3)
    strict = sum(d.sessions_eaten for d in d1.values())
    loose = sum(d.sessions_eaten for d in d2.values())
    assert strict < loose


def test_crashed_neighbor_does_not_block_entitlement():
    system, diners = run_fair("ring:4", seed=314, k=1,
                              crashes={"p1": 400.0}, max_time=2000.0)
    rep = check_wait_freedom(system.engine.trace, system.graph, INSTANCE,
                             system.schedule, system.engine.now, grace=150.0)
    assert rep.ok, rep.format_table()
    # Survivors kept eating well past the crash.
    assert all(rep.sessions[p] > 15 for p in ("p0", "p2", "p3"))


def test_wants_cleared_after_service():
    system, diners = run_fair("clique:3", seed=315, k=2, max_time=800.0)
    # At end of run no diner should hold a want for a diner that is
    # currently thinking with no pending announcement in flight.
    in_flight = system.engine.network.sent - system.engine.network.delivered
    if in_flight == 0:
        from repro.types import DinerState

        for pid, diner in diners.items():
            for q, _ in diner._wants.items():
                assert diners[q].state is not DinerState.THINKING


def test_deferrals_happen_under_contention():
    system, diners = run_fair("clique:3", seed=316, k=1)
    assert sum(d.deferrals for d in diners.values()) > 0
