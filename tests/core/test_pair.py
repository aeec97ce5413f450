"""Integration tests for one reduction pair over real black boxes."""

import pytest

from repro.core.pair import ReductionPair
from repro.errors import ConfigurationError
from repro.oracles.properties import (
    check_eventual_strong_accuracy,
    check_strong_completeness,
)
from repro.sim.faults import CrashSchedule
from tests.core.helpers import run_pair_system


def test_self_monitoring_rejected():
    with pytest.raises(ConfigurationError):
        ReductionPair("p", "p", box_factory=None)


def test_double_attach_rejected():
    from repro.dining.boxes import box_factory
    from repro.runtime.builder import build_system

    system = build_system(["p", "q"], seed=1, max_time=10.0)
    pair = ReductionPair("p", "q", box_factory("wf-ewx", system.provider))
    pair.attach(system.engine)
    with pytest.raises(ConfigurationError):
        pair.attach(system.engine)


def test_unattached_query_rejected():
    pair = ReductionPair("p", "q", box_factory=None)
    with pytest.raises(ConfigurationError):
        pair.suspected()


def test_pair_creates_two_instances_and_four_threads():
    from repro.dining.boxes import box_factory
    from repro.runtime.builder import build_system

    system = build_system(["p", "q"], seed=1, max_time=10.0)
    pair = ReductionPair("p", "q", box_factory("wf-ewx", system.provider))
    pair.attach(system.engine)
    assert len(pair.instances) == 2
    assert len(pair.witnesses) == 2 and len(pair.subjects) == 2
    assert pair.instance_ids() == ("R[p>q].DX0", "R[p>q].DX1")


@pytest.mark.parametrize("box", ["wf", "deferred"])
def test_accuracy_with_correct_subject(box):
    system, detectors, pair = run_pair_system(seed=90, box=box)
    rep = check_eventual_strong_accuracy(
        system.engine.trace, ["p"], ["q"], system.schedule,
        detector="extracted")
    assert rep.ok, rep.format_table()
    assert not detectors["p"].suspected("q")


@pytest.mark.parametrize("box", ["wf", "deferred"])
def test_completeness_with_crashed_subject(box):
    system, detectors, pair = run_pair_system(
        seed=91, box=box, crash=CrashSchedule.single("q", 600.0))
    rep = check_strong_completeness(
        system.engine.trace, ["p"], ["q"], system.schedule,
        detector="extracted")
    assert rep.ok, rep.format_table()
    assert detectors["p"].suspected("q")


def test_witness_crash_leaves_subject_unobserved_but_harmless():
    """Paper Section 8: if the witness crashes, the subject may eat forever;
    this must not corrupt anything else."""
    system, _, pair = run_pair_system(
        seed=92, crash=CrashSchedule.single("p", 400.0), max_time=1500.0)
    # q's subjects are still running (or parked eating); no exception, and
    # q's process is alive.
    assert not system.engine.process("q").crashed
    assert system.engine.process("p").crashed


def test_reduction_is_message_driven_only():
    """The witness process exchanges only protocol messages with q: dining
    req/fork plus ping/ack — no hidden channels."""
    system, _, pair = run_pair_system(seed=93, max_time=400.0)
    kinds = set(system.engine.network.sent_by_kind)
    assert kinds <= {"req", "fork", "ping", "ack", "hb"}


def test_pings_equal_acks_within_one():
    system, _, pair = run_pair_system(seed=94, max_time=1200.0)
    for i in (0, 1):
        sent = pair.subjects[i].pings_sent
        acked = pair.subjects[i].acks_received
        assert sent - acked in (0, 1)
