"""Unit tests for the dining specification checkers, on synthetic traces."""

from hypothesis import given
from hypothesis import strategies as st

from repro.dining.spec import (
    check_exclusion,
    check_wait_freedom,
    eating_intervals,
    eventual_k_fairness,
    hungry_intervals,
    judged,
    overtakes_of,
)
from repro.graphs import pair_graph, path
from repro.sim.faults import CrashSchedule
from repro.sim.trace import Trace


def synth_trace(rows, instance="I"):
    """rows: (time, pid, state_str)."""
    t = Trace()
    clock = {"now": 0.0}
    t.bind_clock(lambda: clock["now"])
    for time, pid, state in rows:
        clock["now"] = time
        t.record("state", pid=pid, instance=instance, state=state)
    return t


class TestIntervals:
    def test_eating_intervals_basic(self):
        t = synth_trace([(0.0, "p", "thinking"), (1.0, "p", "eating"),
                         (3.0, "p", "exiting")])
        assert eating_intervals(t, "I", "p", 10.0) == [(1.0, 3.0)]

    def test_eating_clipped_at_crash(self):
        t = synth_trace([(1.0, "p", "eating")])
        sched = CrashSchedule.single("p", 5.0)
        assert eating_intervals(t, "I", "p", 10.0, sched) == [(1.0, 5.0)]

    def test_eating_after_crash_dropped(self):
        t = synth_trace([(7.0, "p", "eating")])
        sched = CrashSchedule.single("p", 5.0)
        assert eating_intervals(t, "I", "p", 10.0, sched) == []

    def test_hungry_intervals(self):
        t = synth_trace([(1.0, "p", "hungry"), (4.0, "p", "eating")])
        assert hungry_intervals(t, "I", "p", 10.0) == [(1.0, 4.0)]

    def test_instance_filtering(self):
        t = synth_trace([(1.0, "p", "eating")], instance="OTHER")
        assert eating_intervals(t, "I", "p", 10.0) == []


class TestExclusion:
    G = pair_graph("p", "q")

    def test_no_overlap_no_violations(self):
        t = synth_trace([(1.0, "p", "eating"), (2.0, "p", "thinking"),
                         (3.0, "q", "eating"), (4.0, "q", "thinking")])
        rep = check_exclusion(t, self.G, "I", CrashSchedule.none(), 10.0)
        assert rep.perpetual_ok and rep.count == 0
        assert rep.last_violation_end is None
        assert rep.eventually_exclusive_by(0.0)

    def test_overlap_detected_with_bounds(self):
        t = synth_trace([(1.0, "p", "eating"), (2.0, "q", "eating"),
                         (3.0, "p", "thinking"), (5.0, "q", "thinking")])
        rep = check_exclusion(t, self.G, "I", CrashSchedule.none(), 10.0)
        assert rep.count == 1
        v = rep.violations[0]
        assert (v.start, v.end) == (2.0, 3.0)
        assert not rep.perpetual_ok
        assert rep.eventually_exclusive_by(3.0)
        assert not rep.eventually_exclusive_by(2.5)

    def test_crashed_neighbor_overlap_not_a_violation(self):
        t = synth_trace([(1.0, "p", "eating"), (2.0, "q", "eating")])
        sched = CrashSchedule.single("q", 2.0)   # q dead from 2.0 on
        rep = check_exclusion(t, self.G, "I", sched, 10.0)
        assert rep.count == 0

    def test_non_neighbors_never_conflict(self):
        g = path(3)   # p0-p1-p2: p0 and p2 are not neighbors
        t = synth_trace([(1.0, "p0", "eating"), (1.5, "p2", "eating")])
        rep = check_exclusion(t, g, "I", CrashSchedule.none(), 10.0)
        assert rep.count == 0

    def test_violations_sorted_by_time(self):
        t = synth_trace([
            (1.0, "p", "eating"), (2.0, "q", "eating"), (3.0, "q", "thinking"),
            (5.0, "q", "eating"), (6.0, "q", "thinking"),
            (7.0, "p", "thinking"),
        ])
        rep = check_exclusion(t, self.G, "I", CrashSchedule.none(), 10.0)
        starts = [v.start for v in rep.violations]
        assert starts == sorted(starts) and rep.count == 2


class TestWaitFreedom:
    G = pair_graph("p", "q")

    def test_served_hunger_ok(self):
        t = synth_trace([(1.0, "p", "hungry"), (3.0, "p", "eating"),
                         (4.0, "p", "thinking")])
        rep = check_wait_freedom(t, self.G, "I", CrashSchedule.none(), 10.0)
        assert rep.ok and rep.max_wait == 2.0
        assert rep.sessions["p"] == 1

    def test_starvation_detected(self):
        t = synth_trace([(1.0, "p", "hungry")])
        rep = check_wait_freedom(t, self.G, "I", CrashSchedule.none(), 100.0)
        assert not rep.ok and rep.starving == ["p"]

    def test_grace_window_excuses_fresh_hunger(self):
        t = synth_trace([(95.0, "p", "hungry")])
        rep = check_wait_freedom(t, self.G, "I", CrashSchedule.none(), 100.0,
                                 grace=10.0)
        assert rep.ok

    def test_faulty_diners_not_protected(self):
        t = synth_trace([(1.0, "q", "hungry")])
        sched = CrashSchedule.single("q", 50.0)
        rep = check_wait_freedom(t, self.G, "I", sched, 100.0)
        assert rep.ok


class TestFairness:
    G = pair_graph("p", "q")

    def test_overtakes_counted_inside_hungry_interval(self):
        t = synth_trace([
            (1.0, "p", "hungry"),
            (2.0, "q", "eating"), (3.0, "q", "thinking"),
            (4.0, "q", "eating"), (5.0, "q", "thinking"),
            (6.0, "p", "eating"),
        ])
        samples = overtakes_of(judged(t, self.G, "I", None, 10.0))
        p_waits = [s for s in samples if s.waiter == "p" and s.eater == "q"]
        assert len(p_waits) == 1 and p_waits[0].count == 2

    def test_eating_outside_interval_not_counted(self):
        t = synth_trace([
            (0.5, "q", "eating"), (0.8, "q", "thinking"),   # before hunger
            (1.0, "p", "hungry"), (2.0, "p", "eating"),
        ])
        samples = overtakes_of(judged(t, self.G, "I", None, 10.0))
        p_waits = [s for s in samples if s.waiter == "p" and s.eater == "q"]
        assert p_waits[0].count == 0

    def test_eventual_k_fairness_suffix(self):
        t = synth_trace([
            (1.0, "p", "hungry"),
            (2.0, "q", "eating"), (3.0, "q", "thinking"),
            (4.0, "q", "eating"), (5.0, "q", "thinking"),
            (6.0, "q", "eating"), (7.0, "q", "thinking"),
            (8.0, "p", "eating"), (9.0, "p", "thinking"),
            (20.0, "p", "hungry"),
            (21.0, "q", "eating"), (22.0, "q", "thinking"),
            (23.0, "p", "eating"),
        ])
        samples = overtakes_of(judged(t, self.G, "I", None, 30.0))
        ok_all, worst_all = eventual_k_fairness(samples, k=1)
        assert not ok_all and worst_all == 3
        ok_suffix, worst_suffix = eventual_k_fairness(samples, k=1, after=15.0)
        assert ok_suffix and worst_suffix == 1


@given(st.lists(
    st.tuples(st.floats(0, 50),
              st.sampled_from(["p", "q"]),
              st.sampled_from(["thinking", "hungry", "eating", "exiting"])),
    max_size=30,
))
def test_exclusion_checker_never_crashes_and_orders_violations(rows):
    rows = sorted(rows, key=lambda r: r[0])
    t = synth_trace(rows)
    rep = check_exclusion(t, pair_graph("p", "q"), "I",
                          CrashSchedule.none(), 60.0)
    assert all(v.start <= v.end for v in rep.violations)
    starts = [v.start for v in rep.violations]
    assert starts == sorted(starts)
