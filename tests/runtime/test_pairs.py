"""The `pairs` / `allow_disconnected` RunSpec knobs end to end:
neighbor-restricted detector wiring, monitoring counters, spec hashing,
and the disconnected-topology policy (docs/topologies.md)."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime import RunSpec, execute, instantiate
from repro.runtime.store import spec_hash


class TestNeighborsWiring:
    def test_detectors_monitor_only_neighbors(self):
        built = instantiate(RunSpec(graph="path:4", seed=3, max_time=50.0,
                                    pairs="neighbors"))
        mon = {p: set(m.monitored) for p, m in built.system.box_modules.items()}
        assert mon == {"p0": {"p1"}, "p1": {"p0", "p2"},
                       "p2": {"p1", "p3"}, "p3": {"p2"}}

    def test_monitors_list_is_both_edge_orientations(self):
        built = instantiate(RunSpec(graph="path:4", seed=3, max_time=50.0,
                                    pairs="neighbors"))
        assert set(built.system.monitors) == {
            ("p0", "p1"), ("p1", "p0"), ("p1", "p2"), ("p2", "p1"),
            ("p2", "p3"), ("p3", "p2")}

    def test_all_is_the_default_and_monitors_none(self):
        built = instantiate(RunSpec(graph="path:4", seed=3, max_time=50.0))
        assert built.system.monitors is None
        mon = {p: set(m.monitored) for p, m in built.system.box_modules.items()}
        assert mon["p0"] == {"p1", "p2", "p3"}

    def test_counters_published(self):
        built = instantiate(RunSpec(graph="path:4", seed=3, max_time=50.0,
                                    pairs="neighbors"))
        reg = built.engine.registry
        assert reg.counter("monitor.pairs_monitored").value == 6  # 2*|E|
        assert reg.counter("dining.instances").value == 1
        full = instantiate(RunSpec(graph="path:4", seed=3, max_time=50.0))
        assert full.engine.registry.counter(
            "monitor.pairs_monitored").value == 12                # n*(n-1)

    def test_neighbors_run_passes_invariants(self):
        result = execute(RunSpec(graph="ring:4", seed=11, max_time=600.0,
                                 pairs="neighbors"))
        assert result.ok, result.summary()

    def test_bad_pairs_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="pair selection"):
            RunSpec(graph="ring:3", pairs="everyone")


class TestSpecHash:
    def test_pairs_changes_the_hash(self):
        base = RunSpec(graph="ring:4", seed=1)
        local = RunSpec(graph="ring:4", seed=1, pairs="neighbors")
        assert spec_hash(base) != spec_hash(local)

    def test_default_hash_is_stable(self):
        spec = RunSpec(graph="ring:4", seed=1)
        assert spec_hash(spec) == spec_hash(RunSpec(graph="ring:4", seed=1))


class TestDisconnected:
    # rgg:12:0.1:0 is disconnected (pinned by the seeded generator).
    SPEC = "rgg:12:0.1:0"

    def test_rejected_by_default(self):
        with pytest.raises(ConfigurationError, match="disconnected"):
            instantiate(RunSpec(graph=self.SPEC, seed=2, max_time=50.0))

    def test_allow_disconnected_runs(self):
        built = instantiate(RunSpec(graph=self.SPEC, seed=2, max_time=50.0,
                                    pairs="neighbors",
                                    allow_disconnected=True))
        assert built.system.graph.number_of_nodes() == 12
