"""Tests for the shared experiment scaffolding."""

import pytest

from repro.experiments.common import (
    BOX_BUILDERS,
    ExperimentResult,
    build_system,
    deferred_box,
    manager_box,
    wf_box,
)
from repro.analysis.report import Table
from repro.sim.faults import CrashSchedule


def test_box_builders_registry():
    assert set(BOX_BUILDERS) == {"wf", "deferred", "manager"}


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


@pytest.mark.parametrize("builder", [wf_box, deferred_box, manager_box])
def test_box_factories_produce_attachable_instances(builder):
    from repro.graphs import pair_graph

    system = build_system(["a", "b"], seed=2, max_time=10.0)
    factory = builder(system)
    instance = factory("T", pair_graph("a", "b"))
    diners = instance.attach(system.engine)
    assert set(diners) == {"a", "b"}


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
