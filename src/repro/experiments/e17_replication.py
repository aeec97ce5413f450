"""E17 — grand finale: dining → extracted ◇P → consensus → replicated KV.

The full constructive consequence of the paper's equivalence: starting
from nothing but a black-box WF-◇WX dining service, extract ◇P with the
reduction, run Chandra–Toueg consensus instances on it, build atomic
broadcast, and replicate a key-value store — then crash a replica mid-run
and check every correct replica converged to the identical state, with the
extracted oracle as the only failure information in the whole stack.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.apps.kv_store import KVReplica, check_replication
from repro.consensus.atomic_broadcast import (
    check_total_order,
    setup_atomic_broadcast,
)
from repro.core.extraction import build_full_extraction
from repro.dining.boxes import box_factory
from repro.experiments.common import ExperimentResult
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec

EXP_ID = "E17"
TITLE = "End-to-end: dining → extracted ◇P → atomic broadcast → replicated KV"


def run(seed: int = 1701, n: int = 3, n_commands: int = 5,
        crash_at: float = 260.0, max_time: float = 12000.0,
        use_extraction: bool = True) -> ExperimentResult:
    faulty = f"p{n - 1}"
    system = build_system(RunSpec(graph=f"clique:{n}", seed=seed, gst=150.0,
                                  max_time=max_time,
                                  crashes={faulty: crash_at}))
    pids = system.pids
    if use_extraction:
        detectors, _ = build_full_extraction(
            system.engine, pids, box_factory("wf-ewx", system.provider))
    else:
        detectors = system.box_modules
    abcs = setup_atomic_broadcast(system.engine, pids, detectors)
    replicas = {
        pid: system.engine.process(pid).add_component(
            KVReplica("kv", abcs[pid]))
        for pid in pids
    }

    sent: set[str] = set()

    def submit(pid: str, op: str, key: str, value=None):
        def go():
            if not system.engine.process(pid).crashed:
                sent.add(replicas[pid].submit(op, key, value))
        return go

    script = [
        (30.0, submit(pids[0], "set", "x", 1)),
        (80.0, submit(pids[1], "incr", "x")),
        (130.0, submit(pids[2], "set", "y", "hello")),
        (180.0, submit(pids[0], "incr", "x")),
        (320.0, submit(pids[1], "set", "z", 42)),   # after the crash
    ][:n_commands]
    for at, fn in script:
        system.engine.schedule_call(at, fn)

    correct = [p for p in pids if p != faulty]
    expected_commands = len(script)   # every submitter is live at its time
    system.engine.run(stop_when=lambda: len(sent) >= expected_commands
                      and all(replicas[p].applied >= len(sent)
                              for p in correct))

    order = check_total_order(system.engine.trace, pids, system.schedule,
                              sent)
    repl = check_replication(replicas, correct)

    table = Table(["property", "verdict", "detail"], title=TITLE)
    table.add_row(["total order (agreement, prefix-compatible)",
                   order.agreement, f"{len(sent)} commands"])
    table.add_row(["no duplication / validity",
                   order.no_duplication and order.validity, ""])
    table.add_row(["all delivered at correct replicas",
                   order.all_delivered, ""])
    table.add_row(["replica state consistency", repl.consistent,
                   f"final state {repl.final_state}"])
    table.add_row(["virtual time to convergence", True,
                   f"{system.engine.now:.1f}"])
    expected = {"x": 3, "y": "hello", "z": 42}
    correct_semantics = repl.final_state == expected
    table.add_row(["state matches command semantics", correct_semantics,
                   f"expected {expected}"])
    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE,
        ok=order.ok and repl.ok and correct_semantics,
        table=table,
        notes=[f"replica {faulty} crashes at t={crash_at}; the only failure "
               "information anywhere in the stack is the oracle extracted "
               "from black-box dining"],
    )
