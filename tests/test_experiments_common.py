"""Tests for the shared experiment scaffolding: the result record, and
the substrate builder the experiments that read reduction internals use."""

import pytest

from repro.analysis.report import Table
from repro.experiments.common import ExperimentResult
from repro.runtime.builder import build_system
from repro.sim.faults import CrashSchedule


def test_build_system_wires_processes_and_oracles():
    system = build_system(["a", "b", "c"], seed=1, max_time=10.0)
    assert sorted(system.engine.processes) == ["a", "b", "c"]
    assert set(system.box_modules) == {"a", "b", "c"}
    suspect = system.provider("a")
    assert suspect("b") in (True, False)


def test_build_system_perfect_oracle():
    sched = CrashSchedule.single("b", 5.0)
    system = build_system(["a", "b"], seed=1, max_time=50.0, crash=sched,
                          detector="perfect")
    system.engine.run()
    assert system.provider("a")("b")          # crashed + latency elapsed


def test_build_system_rejects_unknown_oracle():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="registered detectors"):
        build_system(["a", "b"], seed=1, detector="psychic")


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
