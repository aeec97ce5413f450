"""Tests for atomic (total-order) broadcast."""

import pytest

from repro.consensus.atomic_broadcast import (
    check_total_order,
    setup_atomic_broadcast,
)
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec
from repro.sim.faults import CrashSchedule
from repro.sim.trace import Trace


def run_abcast(seed=1, crashes=None, n=3, n_msgs=5, max_time=8000.0,
               stagger=40.0):
    system = build_system(RunSpec(graph=f"clique:{n}", seed=seed, gst=150.0,
                                  max_time=max_time, crashes=crashes or {}))
    pids = system.pids
    eps = setup_atomic_broadcast(system.engine, pids, system.box_modules)
    sent: list[str] = []
    for i in range(n_msgs):
        sender = pids[i % n]

        def go(s=sender, i=i):
            if not system.engine.process(s).crashed:
                sent.append(eps[s].abroadcast(f"m{i}"))

        system.engine.schedule_call(20.0 + stagger * i, go)
    correct = [p for p in pids if not system.schedule.is_faulty(p)]
    deadline = 20.0 + stagger * n_msgs
    system.engine.run(stop_when=lambda: system.engine.now > deadline
                      and all(len(eps[p].delivered_ids) >= len(sent)
                              for p in correct))
    res = check_total_order(system.engine.trace, pids, system.schedule,
                            set(sent))
    return res, eps, system, sent


def test_failure_free_total_order():
    res, *_ = run_abcast(seed=510)
    assert res.ok, res


def test_identical_sequences_across_replicas():
    res, *_ = run_abcast(seed=511)
    seqs = list(res.sequences.values())
    assert seqs[0] == seqs[1] == seqs[2]
    assert len(seqs[0]) == 5


def test_crash_leaves_prefix_compatible_sequences():
    res, *_ = run_abcast(seed=512, crashes={"p2": 150.0})
    assert res.agreement and res.no_duplication and res.validity
    assert res.all_delivered   # at the correct processes


def test_concurrent_burst_keeps_order():
    """All messages submitted at nearly the same instant."""
    res, *_ = run_abcast(seed=513, n_msgs=6, stagger=2.0)
    assert res.ok, res


def test_payloads_eventually_resolved():
    res, eps, system, sent = run_abcast(seed=514)
    system.engine.run(until=system.engine.now + 100.0)
    for ep in eps.values():
        if system.engine.process(ep.pid).crashed:
            continue
        assert all(payload is not None
                   for _, payload in ep.delivered_log)


def test_checker_flags_order_divergence():
    t = Trace()
    t.bind_clock(lambda: 0.0)
    t.record("adeliver", pid="a", mid="m1", instance=0)
    t.record("adeliver", pid="a", mid="m2", instance=0)
    t.record("adeliver", pid="b", mid="m2", instance=0)
    t.record("adeliver", pid="b", mid="m1", instance=0)
    res = check_total_order(t, ["a", "b"], CrashSchedule.none(),
                            {"m1", "m2"})
    assert not res.agreement


def test_checker_flags_duplication():
    t = Trace()
    t.bind_clock(lambda: 0.0)
    for _ in range(2):
        t.record("adeliver", pid="a", mid="m1", instance=0)
    res = check_total_order(t, ["a"], CrashSchedule.none(), {"m1"})
    assert not res.no_duplication


def test_checker_flags_invented_message():
    t = Trace()
    t.bind_clock(lambda: 0.0)
    t.record("adeliver", pid="a", mid="ghost", instance=0)
    res = check_total_order(t, ["a"], CrashSchedule.none(), set())
    assert not res.validity
