"""The documented public surface stays importable and coherent."""

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_snippet_from_docstring():
    """The front-door example in the package docstring must actually run."""
    spec = repro.RunSpec(name="demo", graph="ring:5", seed=7,
                         crashes={"p1": 400.0}, max_time=1200.0)
    result = repro.run(spec)
    assert result.ok
    summary = result.summary()
    assert summary["checked"] and summary["seed"] == 7

    results = repro.sweep(spec, runs=3)
    assert sum(r.ok for r in results) == len(results) == 3


def test_deep_dive_snippet_from_docstring():
    """The reduction example in the package docstring."""
    result = repro.run(repro.RunSpec(
        graph="ring:4", seed=7, crashes={"p1": 400.0},
        detector="extracted", detector_params={"box": "manager"}))
    assert result.oracle_accuracy_ok and result.oracle_completeness_ok
    assert result.detector_stats("extracted")["converged_at"] is not None


def test_run_accepts_a_spec_dict():
    result = repro.run({"graph": "ring:3", "seed": 11, "max_time": 400.0})
    assert result.checked and result.seed == 11


def test_run_rejects_non_spec_input():
    import pytest

    with pytest.raises(repro.ConfigurationError):
        repro.run(42)


def test_run_check_override_skips_judging():
    spec = repro.RunSpec(graph="ring:3", seed=5, max_time=400.0)
    result = repro.run(spec, check=False)
    assert not result.checked and result.wait_freedom is None
    assert result.metrics is not None and result.metrics.messages_sent > 0


def test_sweep_seeds_are_deterministic_fanout():
    spec = repro.RunSpec(graph="ring:3", seed=21, max_time=300.0)
    results = repro.sweep(spec, runs=4)
    assert [r.seed for r in results] == list(repro.fanout_seeds(21, 4))
    again = repro.sweep(spec, runs=4)
    assert [r.summary() for r in results] == [r.summary() for r in again]


def test_sweep_explicit_seeds_and_parallel_equivalence():
    spec = repro.RunSpec(graph="ring:3", seed=0, max_time=300.0)
    serial = repro.sweep(spec, seeds=[3, 9])
    parallel = repro.sweep(spec, seeds=[3, 9], workers=2)
    assert [r.seed for r in serial] == [3, 9]
    assert [r.summary() for r in serial] == [r.summary() for r in parallel]


def test_sweep_rejects_zero_runs():
    import pytest

    with pytest.raises(repro.ConfigurationError):
        repro.sweep(repro.RunSpec(), runs=0)


def test_exception_hierarchy():
    assert issubclass(repro.SimulationError, repro.ReproError)
    assert issubclass(repro.InvariantViolation, repro.ReproError)
    assert issubclass(repro.SpecificationViolation, repro.ReproError)
    assert issubclass(repro.ConfigurationError, repro.ReproError)
