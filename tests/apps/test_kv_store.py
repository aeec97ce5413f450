"""Tests for the replicated key-value store."""

import pytest

from repro.apps.kv_store import (
    KVReplica,
    apply_command,
    check_replication,
)
from repro.consensus.atomic_broadcast import setup_atomic_broadcast
from repro.errors import ConfigurationError
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec


class TestApplyCommand:
    def test_set(self):
        state = {}
        apply_command(state, {"op": "set", "key": "a", "value": 5})
        assert state == {"a": 5}

    def test_del(self):
        state = {"a": 1}
        apply_command(state, {"op": "del", "key": "a", "value": None})
        assert state == {}

    def test_del_missing_is_noop(self):
        state = {}
        apply_command(state, {"op": "del", "key": "a", "value": None})
        assert state == {}

    def test_incr_from_missing(self):
        state = {}
        apply_command(state, {"op": "incr", "key": "n", "value": None})
        apply_command(state, {"op": "incr", "key": "n", "value": None})
        assert state == {"n": 2}

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_command({}, {"op": "swap", "key": "a", "value": None})


def run_replicated(seed=1, crashes=None, n=3, max_time=9000.0):
    system = build_system(RunSpec(graph=f"clique:{n}", seed=seed, gst=150.0,
                                  max_time=max_time, crashes=crashes or {}))
    pids = system.pids
    abcs = setup_atomic_broadcast(system.engine, pids, system.box_modules)
    replicas = {
        pid: system.engine.process(pid).add_component(KVReplica("kv", abcs[pid]))
        for pid in pids
    }
    commands = [
        (30.0, pids[0], "set", "x", 1),
        (70.0, pids[1], "incr", "x", None),
        (110.0, pids[2], "set", "y", "v"),
        (150.0, pids[0], "incr", "x", None),
    ]
    sent = []
    for at, pid, op, key, value in commands:
        def go(pid=pid, op=op, key=key, value=value):
            if not system.engine.process(pid).crashed:
                sent.append(replicas[pid].submit(op, key, value))
        system.engine.schedule_call(at, go)
    correct = [p for p in pids if not system.schedule.is_faulty(p)]
    system.engine.run(stop_when=lambda: system.engine.now > 160.0
                      and all(replicas[p].applied >= len(sent)
                              for p in correct))
    return system, replicas, correct


def test_replicas_converge_failure_free():
    system, replicas, correct = run_replicated(seed=520)
    res = check_replication(replicas, correct)
    assert res.ok
    assert res.final_state == {"x": 3, "y": "v"}


def test_replicas_converge_under_crash():
    system, replicas, correct = run_replicated(seed=521,
                                               crashes={"p2": 130.0})
    res = check_replication(replicas, correct)
    assert res.ok, res
    assert res.final_state["x"] == 3


def test_local_reads_reflect_applied_state():
    system, replicas, correct = run_replicated(seed=522)
    for pid in correct:
        assert replicas[pid].get("x") == 3
        assert replicas[pid].get("missing", "dflt") == "dflt"


def test_check_replication_flags_divergence():
    class Fake:
        def __init__(self, state):
            self._s = state
            self.applied = len(state)

        def snapshot(self):
            return dict(self._s)

    replicas = {"a": Fake({"x": 1}), "b": Fake({"x": 2})}
    res = check_replication(replicas, ["a", "b"])
    assert not res.ok
