"""Quickstart: extract ◇P from black-box dining and watch it converge.

Builds a 3-process asynchronous system, runs the paper's witness/subject
reduction over a black-box WF-◇WX dining solution for every ordered pair,
crashes one process mid-run, and prints each survivor's extracted suspect
list before the crash, right after it, and at the end of the run.

Run:  python examples/quickstart.py
"""

from repro.core import build_full_extraction
from repro.dining.boxes import box_factory
from repro.oracles.properties import (
    check_eventual_strong_accuracy,
    check_strong_completeness,
)
from repro.runtime.builder import build_system
from repro.sim.faults import CrashSchedule

PIDS = ["alice", "bob", "carol"]
CRASH_AT = 900.0


def main() -> None:
    system = build_system(
        PIDS, seed=42, gst=150.0, max_time=2500.0,
        crash=CrashSchedule.single("carol", CRASH_AT),
    )

    # The reduction is black-box: it only sees the dining client API.
    detectors, _ = build_full_extraction(
        system.engine, PIDS, box_factory("wf-ewx", system.provider))

    def show(moment: str) -> None:
        print(f"t={system.engine.now:7.1f}  ({moment})")
        for pid in PIDS:
            if system.engine.process(pid).crashed:
                print(f"    {pid:>6}: <crashed>")
            else:
                suspects = sorted(detectors[pid].suspects()) or ["nobody"]
                print(f"    {pid:>6} suspects: {', '.join(suspects)}")

    system.engine.run(until=CRASH_AT - 50.0)
    show("before the crash")
    system.engine.run(until=CRASH_AT + 120.0)
    show("shortly after carol crashed")
    system.engine.run()
    show("end of run")

    # The formal verdicts, straight from the trace.
    trace = system.engine.trace
    comp = check_strong_completeness(trace, PIDS, PIDS, system.schedule,
                                     detector="extracted")
    acc = check_eventual_strong_accuracy(trace, PIDS, PIDS, system.schedule,
                                         detector="extracted")
    print()
    print(comp.format_table())
    print(acc.format_table())


if __name__ == "__main__":
    main()
