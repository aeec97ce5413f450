"""Tests for the [8] construction and its Section 3 vulnerability."""

import pytest

from repro.core.flawed_cm import FlawedCMPair
from repro.dining.boxes import box_factory
from repro.errors import ConfigurationError
from repro.oracles.properties import (
    false_positive_count,
    suspicion_series,
)
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec
from tests.runtime.reference_judge import convergence_time


def run_flawed(seed=1, box="wf", crashes=None, max_time=2000.0,
               horizon=150.0):
    system = build_system(RunSpec(graph="pair:p,q", seed=seed, gst=100.0,
                                  max_time=max_time, crashes=crashes or {}))
    factory = box_factory("wf-ewx" if box == "wf" else f"deferred:{horizon}",
                          system.provider)
    pair = FlawedCMPair("p", "q", factory)
    pair.attach(system.engine)
    system.engine.run()
    return system, pair


def test_self_monitoring_rejected():
    with pytest.raises(ConfigurationError):
        FlawedCMPair("p", "p", box_factory=None)


def test_heartbeat_period_validated():
    from repro.core.flawed_cm import CMSubject

    with pytest.raises(ConfigurationError):
        CMSubject("s", None, "p", "w", heartbeat_period=0)


def test_double_attach_rejected():
    system = build_system(RunSpec(graph="pair:p,q", seed=1, gst=150.0,
                                  max_time=10.0))
    pair = FlawedCMPair("p", "q", box_factory("wf-ewx", system.provider))
    pair.attach(system.engine)
    with pytest.raises(ConfigurationError):
        pair.attach(system.engine)


def test_subject_parks_in_cs_forever():
    system, pair = run_flawed(seed=110, max_time=800.0)
    assert pair.subject.entered_cs
    from repro.types import DinerState

    assert pair.subject.diner.state is DinerState.EATING


def test_converges_on_well_behaved_box_with_correct_subject():
    system, pair = run_flawed(seed=111, box="wf")
    series = suspicion_series(system.engine.trace, "p", "q",
                              detector="flawed")
    assert convergence_time(series, lambda s: not s) is not None


def test_completeness_on_well_behaved_box():
    system, pair = run_flawed(seed=112, box="wf",
                              crashes={"q": 500.0})
    series = suspicion_series(system.engine.trace, "p", "q",
                              detector="flawed")
    assert convergence_time(series, lambda s: s) is not None


def test_vulnerability_on_deferred_box():
    """The paper's Section 3 claim: on a legal adversarial box the [8]
    detector suspects the correct q over and over, forever."""
    system, pair = run_flawed(seed=113, box="deferred", max_time=2500.0)
    trace = system.engine.trace
    mistakes = false_positive_count(trace, "p", "q", system.schedule,
                                    detector="flawed")
    assert mistakes >= 10
    series = suspicion_series(trace, "p", "q", detector="flawed")
    assert convergence_time(series, lambda s: not s) is None


def test_mistakes_grow_with_run_length_on_deferred_box():
    def mistakes(T):
        system, _ = run_flawed(seed=114, box="deferred", max_time=T)
        return false_positive_count(system.engine.trace, "p", "q",
                                    system.schedule, detector="flawed")

    assert mistakes(3000.0) > mistakes(1500.0)


def test_witness_cs_entries_grow_on_deferred_box():
    system, pair = run_flawed(seed=115, box="deferred", max_time=2000.0)
    assert pair.witness.cs_entries >= 10
