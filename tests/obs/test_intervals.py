"""The interval machine's folds, driven with synthetic record streams."""

import networkx as nx
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.intervals import IntervalMachine
from repro.sim.faults import CrashSchedule
from tests.runtime.reference_judge import convergence_time
from repro.sim.trace import TraceRecord

BOOLS = st.lists(st.tuples(st.floats(0, 1000), st.booleans()), max_size=40)


def suspect(t, owner, target, suspected):
    return TraceRecord(t, "suspect", owner, {"target": target,
                                              "suspected": suspected,
                                              "detector": "fd"})


def state(t, pid, phase):
    return TraceRecord(t, "state", pid, {"instance": "I", "state": phase})


@given(BOOLS)
def test_pair_fold_settles_where_convergence_time_does(raw):
    series = sorted(raw, key=lambda x: x[0])
    machine = IntervalMachine().replay(
        suspect(t, "p", "q", s) for t, s in series)
    for value in (True, False):
        assert machine.settled("p", "q", "fd", value) == convergence_time(
            series, lambda s: s == value)


def test_onsets_count_only_suspicions_of_a_live_target():
    machine = IntervalMachine(CrashSchedule.single("q", 10.0)).replay([
        suspect(0.0, "p", "q", True), suspect(2.0, "p", "q", True),
        suspect(4.0, "p", "q", False), suspect(6.0, "p", "q", True),
        suspect(8.0, "p", "q", False), suspect(12.0, "p", "q", True)])
    pair = machine.pairs[("p", "q", "fd")]
    assert (pair.onsets, pair.revoked) == (2, 6.0)


def justified_at(*rows):
    machine = IntervalMachine().judge(nx.Graph([("p", "q")]), "I", "fd")
    machine.replay(rows)
    machine.finish(20.0)
    return machine.justified("p", "q", 5.0)


def test_justification_reads_the_output_after_every_row_at_the_onset():
    # The suspicion row shares the eating onset's time but comes after it.
    assert justified_at(state(5.0, "p", "eating"),
                        suspect(5.0, "p", "q", True),
                        suspect(6.0, "p", "q", False))
    assert not justified_at(state(5.0, "p", "eating"),
                            suspect(5.5, "p", "q", True))
    assert not justified_at(suspect(1.0, "p", "q", True),
                            suspect(5.0, "p", "q", False),
                            state(5.0, "p", "eating"))
