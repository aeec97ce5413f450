"""Tests for the canonical RunSpec → Runtime → RunResult path."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime import (
    RunSpec,
    build_system,
    execute,
    instantiate,
)


class TestRunSpec:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec.from_dict({"graph": "ring:3", "typo_key": 1})

    def test_round_trips_and_compares_by_value(self):
        a = RunSpec.from_dict({"graph": "ring:3", "seed": 4})
        b = RunSpec(graph="ring:3", seed=4)
        assert a == b

    def test_picklable(self):
        import pickle

        spec = RunSpec(graph="ring:3", seed=2,
                       partition={"side": ["p0"], "start": 1.0, "end": 2.0})
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestInstantiate:
    def test_wires_graph_oracle_and_clients(self):
        built = instantiate(RunSpec(graph="ring:3", seed=1, max_time=50.0))
        assert sorted(built.graph.nodes) == ["p0", "p1", "p2"]
        assert sorted(built.diners) == ["p0", "p1", "p2"]
        assert sorted(built.system.box_modules) == ["p0", "p1", "p2"]
        assert built.engine is built.system.engine

    def test_transport_auto_installed_iff_faults(self):
        clean = instantiate(RunSpec(graph="ring:3", max_time=10.0))
        assert clean.system.transport is None
        lossy = instantiate(RunSpec(graph="ring:3", drop=0.2, max_time=10.0))
        assert lossy.system.transport is not None

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            instantiate(RunSpec(graph="ring:3", algorithm="quantum"))

    def test_trace_sink_flows_to_engine(self):
        built = instantiate(RunSpec(graph="ring:3", trace="counters",
                                    max_time=10.0))
        assert built.engine.trace.mode == "counters"


class TestExecute:
    def test_checked_result(self):
        result = execute(RunSpec(name="r", graph="ring:3", seed=5,
                                 max_time=800.0))
        assert result.checked and result.ok
        assert result.trace is not None and result.trace.mode == "full"
        assert result.metrics.messages_sent > 0
        assert result.summary()["wait_free"] is True

    def test_counters_sink_is_metrics_only(self):
        result = execute(RunSpec(graph="ring:3", seed=5, max_time=400.0,
                                 trace="counters"))
        assert not result.checked and not result.ok
        assert result.wait_freedom is None and result.exclusion is None
        assert result.metrics.messages_sent > 0
        assert result.trace.mode == "counters"
        assert result.summary()["ok"] is None

    def test_counters_run_costs_no_trace_memory(self):
        result = execute(RunSpec(graph="ring:3", seed=5, max_time=400.0,
                                 trace="counters"))
        assert len(result.trace) == 0
        assert result.trace.total_recorded > 0


class TestSingleCanonicalBuilder:
    """Every construction path lands in the runtime's own types."""

    def test_scenario_is_a_runspec(self):
        from repro.chaos import ChaosConfig, build_run

        assert type(build_run(7, ChaosConfig())) is RunSpec

    def test_scenario_report_wraps_runresult(self):
        """A chaos verdict's report is the plain runtime type (no
        subclass view) — also what crosses the worker pipe."""
        from repro.chaos import ChaosConfig, run_one
        from repro.runtime import RunResult

        report = run_one(0, 7, ChaosConfig(max_time=200.0)).report
        assert type(report) is RunResult

    def test_spec_experiments_wire_nothing_by_hand(self):
        """The experiments built from specs run through ``execute`` only:
        no engine, extraction, instance or client of their own; and
        ``experiments/common.py`` holds only the result record."""
        import pathlib

        import repro
        from repro.experiments import common

        root = pathlib.Path(repro.__file__).parent / "experiments"
        for name in ("e02_completeness", "e03_accuracy", "e06_fairness",
                     "e13_fair_wrapper", "e16_locality"):
            source = (root / f"{name}.py").read_text()
            assert "execute(RunSpec(" in source, name
            for needle in ("build_system", "build_full_extraction",
                           ".attach(", "add_component"):
                assert needle not in source, f"{name} still wires {needle}"
        own = [name for name, value in vars(common).items()
               if getattr(value, "__module__", None) == common.__name__]
        assert own == ["ExperimentResult"]

    def test_no_engine_wiring_outside_runtime(self):
        """Grep-checkable acceptance criterion: chaos.py and
        experiments/common.py contain no Engine/Network/attach_detectors
        construction of their own."""
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        for rel in ("chaos.py", "experiments/common.py"):
            source = (root / rel).read_text()
            for needle in ("Engine(", "attach_detectors",
                           "ReliableTransport(", "Network("):
                assert needle not in source, f"{rel} still wires {needle}"
