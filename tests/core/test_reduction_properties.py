"""Property sweeps over the reduction: the paper's lemmas across seeds.

These are the deepest integration tests: for both black boxes and several
seeds, the reduction must satisfy the lemma-level structure (sessions,
throttling, hand-off) and the theorem-level oracle properties — with the
runtime invariant monitors for Lemmas 2 and 4 armed throughout.
"""

import pytest

from repro.analysis.sessions import analyze_pair_sessions
from repro.dining.spec import check_exclusion
from repro.graphs import pair_graph
from repro.oracles.properties import (
    check_eventual_strong_accuracy,
    check_strong_completeness,
    false_positive_count,
)
from tests.core.helpers import run_pair_system


@pytest.mark.parametrize("seed", [120, 121, 122])
@pytest.mark.parametrize("box", ["wf", "deferred"])
def test_theorem2_accuracy_sweep(seed, box):
    system, _, pair = run_pair_system(seed=seed, box=box, max_time=2000.0)
    rep = check_eventual_strong_accuracy(
        system.engine.trace, ["p"], ["q"], system.schedule,
        detector="extracted")
    assert rep.ok, f"{box}/{seed}: {rep.format_table()}"
    mistakes = false_positive_count(system.engine.trace, "p", "q",
                                    system.schedule, detector="extracted")
    assert mistakes <= 10   # finite, small


@pytest.mark.parametrize("seed", [123, 124])
@pytest.mark.parametrize("box", ["wf", "deferred"])
@pytest.mark.parametrize("crash_at", [150.0, 900.0])
def test_theorem1_completeness_sweep(seed, box, crash_at):
    system, _, pair = run_pair_system(
        seed=seed, box=box, max_time=2200.0,
        crashes={"q": crash_at})
    rep = check_strong_completeness(
        system.engine.trace, ["p"], ["q"], system.schedule,
        detector="extracted")
    assert rep.ok, f"{box}/{seed}/{crash_at}: {rep.format_table()}"


@pytest.mark.parametrize("seed", [125, 126])
def test_lemma12_witness_alternation(seed):
    system, _, pair = run_pair_system(seed=seed, max_time=1500.0)
    w0 = pair.witnesses[0].eat_sessions
    w1 = pair.witnesses[1].eat_sessions
    assert abs(w0 - w1) <= 1 and w0 > 10


@pytest.mark.parametrize("seed", [127, 128])
def test_lemma5_one_ping_one_ack_per_session(seed):
    system, _, pair = run_pair_system(seed=seed, max_time=1500.0)
    for i in (0, 1):
        s = pair.subjects[i]
        w = pair.witnesses[i]
        assert abs(s.pings_sent - s.eat_sessions_completed) <= 1
        assert abs(w.pings_received - w.acks_sent) == 0
        assert abs(s.acks_received - s.pings_sent) <= 1


@pytest.mark.parametrize("box", ["wf", "deferred"])
def test_figure1_structure_in_exclusive_suffix(box):
    system, _, pair = run_pair_system(seed=129, box=box, max_time=2500.0)
    end = system.engine.now
    trace = system.engine.trace
    conv = 0.0
    for iid in pair.instance_ids():
        rep = check_exclusion(trace, pair_graph("p", "q"), iid,
                              system.schedule, end)
        if rep.last_violation_end is not None:
            conv = max(conv, rep.last_violation_end)
    analysis = analyze_pair_sessions(trace, pair, end)
    after = conv + 200.0
    assert analysis.throttling_ok(after)
    assert analysis.handoff_ok(after)


def test_lemma3_no_stale_messages_between_sessions():
    """Lemma 3: when the subject is idle with ping=true, no ping/ack of its
    instance is in transit.  We verify the global corollary at end of run:
    ping and ack counters balance."""
    system, _, pair = run_pair_system(seed=130, max_time=2000.0)
    sent_pings = sum(s.pings_sent for s in pair.subjects)
    recv_pings = sum(w.pings_received for w in pair.witnesses)
    sent_acks = sum(w.acks_sent for w in pair.witnesses)
    recv_acks = sum(s.acks_received for s in pair.subjects)
    assert 0 <= sent_pings - recv_pings <= 2   # at most one in flight per DX
    assert 0 <= sent_acks - recv_acks <= 2


def test_lemma1_hungry_subject_eventually_eats():
    system, _, pair = run_pair_system(seed=131, max_time=1500.0)
    # Every completed hungry period of each subject ended in eating:
    # completed sessions grow throughout the run.
    assert all(s.eat_sessions_completed > 10 for s in pair.subjects)


def test_lemma6_subject_sessions_finite_while_witness_correct():
    system, _, pair = run_pair_system(seed=132, max_time=1500.0)
    end = system.engine.now
    analysis = analyze_pair_sessions(system.engine.trace, pair, end)
    for i in (0, 1):
        closed = [iv for iv in analysis.subject[i] if iv[1] < end]
        assert closed, "subject never completed a session"
        longest = max(b - a for a, b in closed)
        assert longest < end / 4   # finite, far shorter than the run
