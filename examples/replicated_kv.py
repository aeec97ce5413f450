"""The grand tour: black-box dining to a replicated key-value store.

Everything between the two ends is built in this repository:

    dining black box --(paper's reduction)--> extracted ◇P
      --(Chandra-Toueg)--> consensus --(repeated instances)--> atomic
      broadcast --(deterministic apply)--> identical replicas

A replica crashes mid-run; the survivors keep agreeing on the command
order and converge to the same store state, with the extracted oracle as
the only failure information in the entire stack.

Run:  python examples/replicated_kv.py
"""

from repro.apps.kv_store import KVReplica, check_replication
from repro.consensus.atomic_broadcast import setup_atomic_broadcast
from repro.core import build_full_extraction
from repro.dining.boxes import box_factory
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec

CRASH_AT = 260.0


def main() -> None:
    system = build_system(RunSpec(graph="clique:3", seed=17, gst=150.0,
                                  max_time=12000.0,
                                  crashes={"p2": CRASH_AT}))
    pids = system.pids
    detectors, pairs = build_full_extraction(
        system.engine, pids, box_factory("wf-ewx", system.provider))
    abcs = setup_atomic_broadcast(system.engine, pids, detectors)
    replicas = {
        pid: system.engine.process(pid).add_component(
            KVReplica("kv", abcs[pid]))
        for pid in pids
    }

    sent = []
    script = [
        (30.0, "p0", "set", "balance", 100),
        (80.0, "p1", "incr", "hits", None),
        (130.0, "p2", "incr", "hits", None),     # from the doomed replica
        (320.0, "p0", "set", "owner", "alice"),  # after the crash
        (360.0, "p1", "incr", "hits", None),
    ]
    for at, pid, op, key, value in script:
        def go(pid=pid, op=op, key=key, value=value):
            if not system.engine.process(pid).crashed:
                sent.append(replicas[pid].submit(op, key, value))
        system.engine.schedule_call(at, go)

    correct = ["p0", "p1"]
    system.engine.run(stop_when=lambda: len(sent) >= len(script)
                      and all(replicas[p].applied >= len(sent)
                              for p in correct))

    print(f"{len(pairs)} reduction pairs feed the oracle; "
          f"p2 crashed at t={CRASH_AT}\n")
    for pid in pids:
        r = replicas[pid]
        status = "crashed" if system.engine.process(pid).crashed else "ok"
        print(f"  {pid} [{status}]: applied {r.applied} commands, "
              f"state = {r.snapshot()}")
    result = check_replication(replicas, correct)
    print(f"\nconsistent: {result.consistent}  "
          f"(virtual time {system.engine.now:.1f})")
    assert result.ok


if __name__ == "__main__":
    main()
