"""Tests for the shared experiment scaffolding: the result record, and
the substrate builder the experiments that read reduction internals use."""

import pytest

from repro.analysis.report import Table
from repro.experiments.common import ExperimentResult
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec


def test_build_system_wires_processes_and_oracles():
    system = build_system(RunSpec(graph="clique:3", seed=1, gst=150.0,
                                  max_time=10.0))
    assert sorted(system.engine.processes) == ["p0", "p1", "p2"]
    assert set(system.box_modules) == {"p0", "p1", "p2"}
    suspect = system.provider("p0")
    assert suspect("p1") in (True, False)


def test_build_system_perfect_oracle():
    system = build_system(RunSpec(graph="pair:a,b", seed=1, gst=150.0,
                                  max_time=50.0, crashes={"b": 5.0},
                                  detector="perfect"))
    system.engine.run()
    assert system.provider("a")("b")          # crashed + latency elapsed


def test_build_system_rejects_unknown_oracle():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="registered detectors"):
        build_system(RunSpec(graph="pair:a,b", seed=1, detector="psychic"))


def test_experiment_result_render():
    t = Table(["a"])
    t.add_row([1])
    r = ExperimentResult(exp_id="EX", title="t", ok=True, table=t,
                         notes=["hello"])
    text = r.render()
    assert "[EX]" in text and "PASS" in text and "note: hello" in text
    r2 = ExperimentResult(exp_id="EX", title="t", ok=False, table=t)
    assert "FAIL" in r2.render()


def test_main_module_importable():
    import importlib

    spec = importlib.util.find_spec("repro.__main__")
    assert spec is not None
