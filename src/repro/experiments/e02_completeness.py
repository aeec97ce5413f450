"""E2 — Theorem 1: strong completeness of the extracted detector.

Paper claim: for *any* black-box WF-◇WX solution, a crashed subject is
eventually and permanently suspected by every correct witness.  We sweep
crash times over three black boxes (well-behaved, adversarial and
coordinator-based) and report the detection latency (suspicion
convergence − crash time).  Each run is one ``extracted`` spec: the
reduction over the box is the run's detector.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.experiments.common import ExperimentResult
from repro.oracles.properties import check_strong_completeness
from repro.runtime import RunSpec, execute
from repro.sim.faults import CrashSchedule

EXP_ID = "E2"
TITLE = "Theorem 1: strong completeness (crashed => permanently suspected)"


def run(seed: int = 201,
        crash_times: tuple[float, ...] = (250.0, 800.0),
        boxes: tuple[str, ...] = ("wf-ewx", "deferred:150", "manager"),
        n: int = 3,
        max_time: float = 2500.0) -> ExperimentResult:
    table = Table(["box", "crash time", "converged", "detection latency",
                   "pairs checked"], title=TITLE)
    pids = [f"p{i}" for i in range(n)]
    all_ok = True
    for box in boxes:
        for k, crash_at in enumerate(crash_times):
            crashes = {pids[-1]: crash_at}
            result = execute(RunSpec(
                name=EXP_ID, graph=f"clique:{n}", seed=seed + k, gst=150.0,
                max_time=max_time, crashes=crashes, detector="extracted",
                detector_params={"box": box}))
            # The run's verdict is the machine's; the per-pair convergence
            # behind the latency column is read off the trace.
            report = check_strong_completeness(
                result.trace, pids, pids, CrashSchedule(crashes),
                detector="extracted")
            ok = result.oracle_completeness_ok
            all_ok &= ok
            conv = report.convergence
            latency = (conv - crash_at) if (ok and conv is not None) else None
            table.add_row([box, crash_at, ok, latency, len(report.pairs)])
    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE, ok=all_ok, table=table,
        notes=["latency = suspicion convergence time - crash time; every "
               "black box must satisfy the theorem (universality)",
               "each run also hosts the spec's own wf-ewx instance, with "
               "clients, on the extracted detector"],
    )
