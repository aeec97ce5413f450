"""Tests for the full (all-ordered-pairs) extracted ◇P and the
conflict-graph-local pair-selection policy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import graphs
from repro.core.extraction import (
    ExtractedDetector,
    PairSelection,
    build_full_extraction,
)
from repro.dining.boxes import box_factory
from repro.errors import ConfigurationError, InvariantViolation
from repro.oracles.properties import (
    check_eventual_strong_accuracy,
    check_strong_completeness,
)
from repro.runtime.builder import build_system
from repro.sim.faults import CrashSchedule
from repro.types import DinerState


def run_full(n=3, seed=100, crash=None, max_time=2500.0):
    pids = [f"p{i}" for i in range(n)]
    system = build_system(pids, seed=seed, max_time=max_time, crash=crash)
    detectors, pairs = build_full_extraction(
        system.engine, pids, box_factory("wf-ewx", system.provider))
    system.engine.run()
    return system, pids, detectors, pairs


def test_all_ordered_pairs_built():
    system, pids, detectors, pairs = run_full(n=3, max_time=10.0)
    assert len(pairs) == 6                       # 3 * 2 ordered pairs
    assert set(detectors) == set(pids)
    assert set(detectors["p0"].monitored) == {"p1", "p2"}


def test_monitors_subset():
    pids = ["a", "b", "c"]
    system = build_system(pids, seed=1, max_time=10.0)
    detectors, pairs = build_full_extraction(
        system.engine, pids, box_factory("wf-ewx", system.provider),
        monitors=[("a", "b")])
    assert list(pairs) == [("a", "b")]
    # Every pid gets a facade; one that monitors nobody gets an empty one.
    assert list(detectors) == pids
    assert detectors["b"].monitored == detectors["c"].monitored == ()


def test_lemma_monitors_armed_by_default():
    system = build_system(["p", "q"], seed=1, max_time=10.0)
    _, pairs = build_full_extraction(system.engine, ["p", "q"],
                                     box_factory("wf-ewx", system.provider))
    subject = pairs[("p", "q")].subjects[0]
    assert subject.diner.state is DinerState.THINKING
    subject.shared.ping[0] = False
    with pytest.raises(InvariantViolation, match="Lemma 2"):
        subject._check_invariants("test")


def test_facade_query_surface():
    system, pids, detectors, _ = run_full(n=2, max_time=10.0)
    d = detectors["p0"]
    assert isinstance(d, ExtractedDetector)
    assert d.suspected("p1") == (not d.trusted("p1"))
    assert d.suspects() <= {"p1"}
    with pytest.raises(ConfigurationError):
        d.suspected("ghost")


def test_full_system_accuracy_failure_free():
    system, pids, detectors, _ = run_full(n=3, seed=101)
    rep = check_eventual_strong_accuracy(
        system.engine.trace, pids, pids, system.schedule,
        detector="extracted")
    assert rep.ok, rep.format_table()
    for p in pids:
        assert detectors[p].suspects() == frozenset()


def test_full_system_completeness_one_crash():
    system, pids, detectors, _ = run_full(
        n=3, seed=102, crash=CrashSchedule.single("p2", 700.0))
    rep = check_strong_completeness(
        system.engine.trace, pids, pids, system.schedule,
        detector="extracted")
    assert rep.ok, rep.format_table()
    for p in ("p0", "p1"):
        assert detectors[p].suspects() == {"p2"}


class TestPairSelection:
    @pytest.mark.parametrize("spec, policy, hops", [
        ("all", "all", 1),
        ("neighbors", "neighbors", 1),
        ("neighbors:1", "neighbors", 1),
        ("neighbors:3", "neighbors", 3),
    ])
    def test_parse(self, spec, policy, hops):
        sel = PairSelection.parse(spec)
        assert (sel.policy, sel.hops) == (policy, hops)
        assert PairSelection.parse(sel.spec_string()) == sel

    @pytest.mark.parametrize("spec, match", [
        ("everyone", "unknown pair selection"),
        ("all:2", "takes no argument"),
        ("neighbors:zero", "must be an integer"),
        ("neighbors:0", "must be >= 1"),
        (7, "must be a string"),
    ])
    def test_parse_rejects(self, spec, match):
        with pytest.raises(ConfigurationError, match=match):
            PairSelection.parse(spec)

    def test_all_preserves_historical_pair_order(self):
        pids = ["p0", "p1", "p2"]
        assert (PairSelection.parse("all").pairs_for(pids, None)
                == [(p, q) for p in pids for q in pids if p != q])

    def test_neighbors_requires_graph(self):
        with pytest.raises(ConfigurationError, match="graph"):
            PairSelection.parse("neighbors").pairs_for(["a", "b"], None)

    def test_two_hops_on_a_path(self):
        g = graphs.path(4)                       # p0 - p1 - p2 - p3
        sel = PairSelection.parse("neighbors:2")
        peers = sel.peers_map(sorted(g.nodes), g)
        assert peers["p0"] == ["p1", "p2"]
        assert peers["p1"] == ["p0", "p2", "p3"]

    @given(n=st.integers(2, 12), p=st.floats(0.1, 0.9),
           seed=st.integers(0, 50))
    def test_neighbor_pairs_are_exactly_both_edge_orientations(self, n, p,
                                                               seed):
        import numpy as np
        g = graphs.random_graph(n, p, np.random.default_rng(seed),
                                connect=False)
        pids = sorted(g.nodes)
        pairs = PairSelection.parse("neighbors").pairs_for(pids, g)
        expected = {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
        assert set(pairs) == expected
        assert len(pairs) == len(expected)       # no duplicates
        assert len(pairs) == 2 * g.number_of_edges()

    def test_build_full_extraction_with_selection(self):
        pids = ["p0", "p1", "p2", "p3"]
        system = build_system(pids, seed=9, max_time=10.0)
        g = graphs.path(4)
        detectors, pairs = build_full_extraction(
            system.engine, pids, box_factory("wf-ewx", system.provider),
            selection="neighbors", graph=g)
        assert len(pairs) == 2 * g.number_of_edges()
        assert set(detectors["p0"].monitored) == {"p1"}
        assert set(detectors["p1"].monitored) == {"p0", "p2"}

    def test_build_full_extraction_rejects_monitors_plus_selection(self):
        pids = ["a", "b"]
        system = build_system(pids, seed=1, max_time=10.0)
        with pytest.raises(ConfigurationError, match="not both"):
            build_full_extraction(
                system.engine, pids, box_factory("wf-ewx", system.provider),
                monitors=[("a", "b")], selection="neighbors",
                graph=graphs.pair_graph("a", "b"))


def test_pairs_are_independent_of_each_other():
    """Crashing p2 must not disturb the (p0, p1) pair's accuracy."""
    system, pids, detectors, _ = run_full(
        n=3, seed=103, crash=CrashSchedule.single("p2", 400.0))
    rep = check_eventual_strong_accuracy(
        system.engine.trace, pids, pids, system.schedule,
        detector="extracted")
    assert rep.ok, rep.format_table()
