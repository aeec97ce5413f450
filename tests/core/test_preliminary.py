"""Tests for the rejected Section 5.1 single-instance construction."""

import pytest

from repro.core.preliminary import PreliminaryPair
from repro.dining.boxes import box_factory
from repro.errors import ConfigurationError
from repro.oracles.properties import (
    check_strong_completeness,
    false_positive_count,
    suspicion_series,
)
from repro.runtime.builder import build_system
from repro.sim.faults import CrashSchedule


def run_prelim(seed=1, crash=None, max_time=2000.0):
    system = build_system(["p", "q"], seed=seed, max_time=max_time,
                          crash=crash)
    pair = PreliminaryPair("p", "q", box_factory("wf-ewx", system.provider))
    pair.attach(system.engine)
    system.engine.run()
    return system, pair


def test_self_monitoring_rejected():
    with pytest.raises(ConfigurationError):
        PreliminaryPair("p", "p", box_factory=None)


def test_double_attach_rejected():
    system = build_system(["p", "q"], seed=1, max_time=10.0)
    pair = PreliminaryPair("p", "q", box_factory("wf-ewx", system.provider))
    pair.attach(system.engine)
    with pytest.raises(ConfigurationError):
        pair.attach(system.engine)


def test_completeness_still_holds():
    """The sketch is only broken on the accuracy side."""
    system, _ = run_prelim(seed=910, crash=CrashSchedule.single("q", 500.0))
    rep = check_strong_completeness(system.engine.trace, ["p"], ["q"],
                                    system.schedule, detector="prelim")
    assert rep.ok


def test_accuracy_broken_mistakes_grow():
    def mistakes(T):
        system, _ = run_prelim(seed=911, max_time=T)
        return false_positive_count(system.engine.trace, "p", "q",
                                    system.schedule, detector="prelim")

    m1, m2 = mistakes(1500.0), mistakes(3000.0)
    assert m2 > 1.5 * m1 > 10


def test_flapping_continues_to_the_end():
    system, _ = run_prelim(seed=912, max_time=3000.0)
    series = suspicion_series(system.engine.trace, "p", "q",
                              detector="prelim")
    last_suspicion = max((t for t, s in series if s), default=0.0)
    assert last_suspicion > 0.8 * system.engine.now


def test_threads_both_progress():
    system, pair = run_prelim(seed=913, max_time=1500.0)
    assert pair.witness.eat_sessions > 20
    assert pair.subject.eat_sessions_completed > 20
