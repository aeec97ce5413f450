"""Integration tests for the ◇P-based WF-◇WX dining algorithm."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dining.spec import check_exclusion, check_wait_freedom
from repro.dining.wf_ewx import EWXDiner
from repro.graphs import clique, pair_graph, ring, star
from repro.sim.faults import CrashSchedule
from repro.types import DinerState
from tests.dining.helpers import INSTANCE, run_dining


def assert_wait_free(eng, sched, graph, grace=80.0):
    rep = check_wait_freedom(eng.trace, graph, INSTANCE, sched, eng.now,
                             grace=grace)
    assert rep.ok, rep.format_table()
    return rep


def assert_eventually_exclusive(eng, sched, graph, by_fraction=0.7):
    rep = check_exclusion(eng.trace, graph, INSTANCE, sched, eng.now)
    assert rep.eventually_exclusive_by(eng.now * by_fraction), \
        rep.format_table()
    return rep


class TestFailureFree:
    def test_pair_alternates(self):
        g = pair_graph("a", "b")
        eng, sched, _, diners = run_dining(g, seed=10)
        wf = assert_wait_free(eng, sched, g)
        assert all(n > 10 for n in wf.sessions.values())
        assert_eventually_exclusive(eng, sched, g)

    def test_ring(self):
        g = ring(5)
        eng, sched, _, _ = run_dining(g, seed=11)
        wf = assert_wait_free(eng, sched, g)
        assert all(n > 5 for n in wf.sessions.values())
        assert_eventually_exclusive(eng, sched, g)

    def test_clique(self):
        g = clique(4)
        eng, sched, _, _ = run_dining(g, seed=12)
        assert_wait_free(eng, sched, g)
        assert_eventually_exclusive(eng, sched, g)

    def test_star_hub_not_starved(self):
        g = star(4)
        eng, sched, _, _ = run_dining(g, seed=13, max_time=1500.0)
        wf = assert_wait_free(eng, sched, g, grace=150.0)
        assert wf.sessions["hub"] > 3


class TestWithCrashes:
    def test_single_crash_on_ring(self):
        g = ring(4)
        sched = CrashSchedule.single("p1", 400.0)
        eng, sched, _, _ = run_dining(g, seed=14, crash=sched)
        assert_wait_free(eng, sched, g)
        assert_eventually_exclusive(eng, sched, g)

    def test_crash_while_eating_does_not_block_neighbors(self):
        # p1 crashes early; neighbors must keep eating via suspicion.
        g = ring(4)
        sched = CrashSchedule.single("p1", 60.0)
        eng, sched, _, _ = run_dining(g, seed=15, crash=sched,
                                      max_time=1500.0)
        wf = assert_wait_free(eng, sched, g)
        for pid in ("p0", "p2", "p3"):
            assert wf.sessions[pid] > 10

    def test_multiple_crashes_on_clique(self):
        g = clique(5)
        sched = CrashSchedule({"p0": 200.0, "p3": 500.0})
        eng, sched, _, _ = run_dining(g, seed=16, crash=sched,
                                      max_time=2000.0)
        assert_wait_free(eng, sched, g, grace=150.0)
        assert_eventually_exclusive(eng, sched, g)

    def test_all_but_one_crash(self):
        g = ring(3)
        sched = CrashSchedule({"p1": 150.0, "p2": 300.0})
        eng, sched, _, diners = run_dining(g, seed=17, crash=sched,
                                           max_time=1500.0)
        wf = assert_wait_free(eng, sched, g)
        assert wf.sessions["p0"] > 20   # survivor keeps cycling alone


class TestTokenDiscipline:
    """The hygienic invariants: one fork + one token per edge."""

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_fork_token_conservation(self, seed):
        g = ring(4)
        eng, sched, inst, diners = run_dining(g, seed=seed, max_time=600.0)
        # At quiescence-ish end of run, for every edge: the fork is held by
        # exactly one side or in transit; never duplicated.
        in_flight = eng.network.sent - eng.network.delivered
        for u, v in g.edges:
            forks = int(diners[u].fork[v]) + int(diners[v].fork[u])
            tokens = int(diners[u].token[v]) + int(diners[v].token[u])
            assert forks <= 1, f"duplicated fork on edge {u}-{v}"
            assert tokens <= 1, f"duplicated token on edge {u}-{v}"
            if in_flight == 0:
                assert forks == 1 and tokens == 1

    def test_initial_orientation_lower_id_holds_dirty_fork(self):
        g = pair_graph("a", "b")
        eng, _, inst, diners = run_dining(g, seed=23, max_time=0.0,
                                          attach_clients=False)
        assert diners["a"].fork["b"] and diners["a"].dirty["b"]
        assert not diners["b"].fork["a"] and diners["b"].token["a"]
        assert not diners["a"].token["b"]

    def test_suspicion_override_lets_diner_eat_without_fork(self):
        # b crashes holding nothing; a's fork for edge is with a... make a
        # crash instead: a holds the initial fork; b must eat via suspicion.
        g = pair_graph("a", "b")
        sched = CrashSchedule.single("a", 40.0)
        eng, sched, _, diners = run_dining(g, seed=24, crash=sched,
                                           max_time=1000.0)
        wf = check_wait_freedom(eng.trace, g, INSTANCE, sched, eng.now,
                                grace=80.0)
        assert wf.ok
        assert wf.sessions["b"] > 5


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        g = ring(4)
        runs = []
        for _ in range(2):
            eng, sched, _, _ = run_dining(g, seed=30, max_time=400.0)
            rows = [(r.time, r.pid, r["state"])
                    for r in eng.trace.records(kind="state")]
            runs.append(rows)
        assert runs[0] == runs[1]

    def test_different_seed_differs(self):
        g = ring(4)
        eng1, *_ = run_dining(g, seed=31, max_time=400.0)
        eng2, *_ = run_dining(g, seed=32, max_time=400.0)
        r1 = [(r.time, r.pid) for r in eng1.trace.records(kind="state")]
        r2 = [(r.time, r.pid) for r in eng2.trace.records(kind="state")]
        assert r1 != r2


@pytest.mark.parametrize("seed", range(40, 46))
def test_property_sweep_wait_freedom_and_eventual_exclusion(seed):
    """Across random crash schedules, both dining properties hold."""
    import numpy as np

    g = ring(4)
    rng = np.random.default_rng(seed)
    sched = CrashSchedule.random(sorted(g.nodes), max_faulty=2,
                                 horizon=500.0, rng=rng)
    eng, sched, _, _ = run_dining(g, seed=seed, crash=sched, max_time=1600.0)
    assert_wait_free(eng, sched, g, grace=150.0)
    rep = check_exclusion(eng.trace, g, INSTANCE, sched, eng.now)
    # ◇WX: no violations in the last quarter of the run.
    assert rep.eventually_exclusive_by(eng.now * 0.75), rep.format_table()


class TestStaleGrantRegression:
    """Regression: a fork granted for an already-satisfied request must land
    dirty.  Before the fix, a diner that ate via suspicion and got hungry
    again would receive the late fork CLEAN, granting it priority over a
    neighbor that ate less recently — corrupting the hygienic precedence
    order into clean-fork deadlock cycles (observed on ring(3), seed 8,
    via the fairness wrapper)."""

    def test_ring3_seed8_no_deadlock(self):
        from repro.dining.client import EagerClient
        from repro.dining.fair_wrapper import FairDining
        from repro.runtime.builder import build_system
        from repro.runtime.spec import RunSpec

        system = build_system(RunSpec(graph="ring:3", seed=8, gst=150.0,
                                      max_time=800.0))
        from repro.dining.wf_ewx import WaitFreeEWXDining as Box

        inner = lambda iid, gr: Box(iid, gr, system.provider)  # noqa: E731
        inst = FairDining("SCENARIO", system.graph, inner, system.provider,
                          k=2)
        diners = inst.attach(system.engine)
        for pid in system.pids:
            system.engine.process(pid).add_component(
                EagerClient("client", diners[pid], eat_steps=2))
        system.engine.run()
        assert all(d.sessions_eaten > 5 for d in diners.values())

    def test_stale_fork_lands_dirty(self):
        """Unit-level: a fork answering a previous session's request is
        dirty on arrival even if the diner is hungry again."""
        from repro.graphs import pair_graph
        from repro.types import DinerState, Message
        from tests.conftest import make_engine
        from repro.dining.wf_ewx import WaitFreeEWXDining

        eng = make_engine()
        eng.add_process("a")
        eng.add_process("b")
        inst = WaitFreeEWXDining("DX", pair_graph("a", "b"),
                                 lambda pid: (lambda q: True))  # suspect all
        diners = inst.attach(eng)
        b = diners["b"]   # b starts without the fork, with the token
        b.become_hungry()
        b.request_missing_forks()          # request in session 0
        b.enter_critical_section()         # eats via suspicion, no fork
        b.exit_eating()
        b.finish_exiting()
        b.become_hungry()                  # session 1
        # The stale grant for session 0 arrives now.
        b.on_fork(Message("a", "b", "DX:diner", "fork"))
        assert b.fork["a"] and b.dirty["a"]

    def test_current_session_fork_lands_clean(self):
        from repro.graphs import pair_graph
        from repro.types import Message
        from tests.conftest import make_engine
        from repro.dining.wf_ewx import WaitFreeEWXDining

        eng = make_engine()
        eng.add_process("a")
        eng.add_process("b")
        inst = WaitFreeEWXDining("DX", pair_graph("a", "b"),
                                 lambda pid: (lambda q: False))
        diners = inst.attach(eng)
        b = diners["b"]
        b.become_hungry()
        b.request_missing_forks()
        b.on_fork(Message("a", "b", "DX:diner", "fork"))
        assert b.fork["a"] and not b.dirty["a"]


class TestMealRecencyRule:
    """The clean/dirty decision on fork arrival follows meal recency: the
    fork lands clean only at a hungry receiver that has eaten *less
    recently* than the sender (never-eaten oldest; then earlier last-meal
    time; pid as a tie-break matching the initial orientation).  Found by
    the chaos runner: the session-bookkeeping rule this replaces let a
    late-arriving fork grant priority to the *more* recent eater, closing
    clean-fork cycles into deadlock (run seed 321059914)."""

    @staticmethod
    def make_pair(suspect=False):
        from repro.graphs import pair_graph
        from tests.conftest import make_engine
        from repro.dining.wf_ewx import WaitFreeEWXDining

        eng = make_engine()
        eng.add_process("a")
        eng.add_process("b")
        inst = WaitFreeEWXDining("DX", pair_graph("a", "b"),
                                 lambda pid: (lambda q: suspect))
        return inst.attach(eng)

    def test_recent_eater_gets_fork_dirty_despite_fresh_request(self):
        """The chaos-bug shape: b ate (via suspicion), is hungry again,
        and has a live request outstanding — but a, the fork's sender, has
        never eaten, so the fork must still land dirty at b."""
        from repro.types import Message

        diners = self.make_pair(suspect=True)
        b = diners["b"]
        b.become_hungry()
        b.request_missing_forks()
        b.enter_critical_section()      # eats via suspicion override
        b.exit_eating()
        b.finish_exiting()
        b.become_hungry()
        b.request_missing_forks()       # fresh request, current session
        b.on_fork(Message("a", "b", "DX:diner", "fork",
                          payload={"last_meal": (0, 0.0)}))
        assert b.fork["a"] and b.dirty["a"]

    def test_older_eater_gets_fork_clean(self):
        """Symmetric case: the sender ate more recently, so the hungry
        receiver outranks it and the fork lands clean."""
        from repro.types import Message

        diners = self.make_pair()
        b = diners["b"]
        b.become_hungry()
        b.request_missing_forks()
        b.on_fork(Message("a", "b", "DX:diner", "fork",
                          payload={"last_meal": (1, 50.0)}))
        assert b.fork["a"] and not b.dirty["a"]

    def test_earlier_meal_time_outranks(self):
        from repro.types import Message

        diners = self.make_pair(suspect=True)
        b = diners["b"]
        b.become_hungry()
        b.enter_critical_section()      # b's meal at env time 0
        b.exit_eating()
        b.finish_exiting()
        b.become_hungry()
        b.on_fork(Message("a", "b", "DX:diner", "fork",
                          payload={"last_meal": (1, 75.0)}))
        assert b.fork["a"] and not b.dirty["a"]   # b's meal is older

    def test_not_hungry_never_lands_clean(self):
        from repro.types import Message

        diners = self.make_pair()
        b = diners["b"]                 # THINKING
        b.on_fork(Message("a", "b", "DX:diner", "fork",
                          payload={"last_meal": (1, 10.0)}))
        assert b.fork["a"] and b.dirty["a"]

    def test_tiebreak_matches_initial_orientation(self):
        """Two never-eaten diners tie on meal recency; the higher pid
        counts as older, mirroring the seed state where forks start dirty
        at the lower pid (which therefore must yield)."""
        from repro.types import Message

        diners = self.make_pair()
        b = diners["b"]
        b.become_hungry()
        b.on_fork(Message("a", "b", "DX:diner", "fork",
                          payload={"last_meal": (0, 0.0)}))
        assert not b.dirty["a"]         # "b" > "a": b outranks, fork clean


# -- loop-form guards ---------------------------------------------------------

NEIGHBORS = ("n0", "n1", "n2", "n3")


class Unmonitored(Exception):
    pass


def reference_guards(d):
    """The guard expressions as the algorithm states them."""
    return (
        lambda: d.state is DinerState.HUNGRY
        and any(not d.fork[q] and d.token[q] and q not in d._requested
                for q in d.neighbors),
        lambda: d.state is not DinerState.EATING
        and any(d.token[q] and d.fork[q] and d.dirty[q]
                for q in d.neighbors),
        lambda: d.state is DinerState.HUNGRY
        and all(d.fork[q] or d.suspect(q) for q in d.neighbors),
    )


def outcome(fn):
    try:
        return bool(fn())
    except Unmonitored as exc:
        return exc.args


per_neighbor = st.fixed_dictionaries(
    {q: st.booleans() for q in NEIGHBORS})


@settings(max_examples=300, deadline=None)
@given(
    degree=st.integers(0, len(NEIGHBORS)),
    state=st.sampled_from(list(DinerState)),
    fork=per_neighbor, token=per_neighbor, dirty=per_neighbor,
    suspected=per_neighbor,
    requested=st.sets(st.sampled_from(NEIGHBORS)),
    monitored=st.sets(st.sampled_from(NEIGHBORS)),
)
def test_loop_guards_equal_the_any_all_expressions(
        degree, state, fork, token, dirty, suspected, requested, monitored):
    calls = []

    def suspect(q):
        calls.append(q)
        if q not in monitored:
            raise Unmonitored(q)
        return suspected[q]

    d = EWXDiner("I:diner", "I", NEIGHBORS[:degree], suspect)
    d._state = state
    d.fork, d.token, d.dirty, d._requested = fork, token, dirty, requested
    guards = (d._can_request, d._owes_dirty_fork, d._may_eat)
    for new, ref in zip(guards, reference_guards(d)):
        del calls[:]
        expected = outcome(ref)
        ref_calls = list(calls)
        del calls[:]
        assert outcome(new) == expected
        assert calls == ref_calls      # same probes, same short-circuit
