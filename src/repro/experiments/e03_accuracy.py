"""E3 — Theorem 2: eventual strong accuracy of the extracted detector.

Paper claim: for *any* black-box WF-◇WX solution, a correct subject is
eventually and permanently trusted by every correct witness; only finitely
many wrongful suspicions occur.  We sweep the network's stabilization time
(GST) over three black boxes.  Each run is one ``extracted`` spec: the
reduction over the box is the run's detector.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.experiments.common import ExperimentResult
from repro.runtime import RunSpec, execute

EXP_ID = "E3"
TITLE = "Theorem 2: eventual strong accuracy (correct => eventually trusted)"


def run(seed: int = 301,
        gsts: tuple[float, ...] = (80.0, 400.0),
        boxes: tuple[str, ...] = ("wf-ewx", "deferred:150", "manager"),
        n: int = 3,
        max_time: float = 3000.0) -> ExperimentResult:
    table = Table(["box", "gst", "converged", "convergence time",
                   "total mistakes"], title=TITLE)
    all_ok = True
    for box in boxes:
        for k, gst in enumerate(gsts):
            result = execute(RunSpec(
                name=EXP_ID, graph=f"clique:{n}", seed=seed + k, gst=gst,
                max_time=max_time, detector="extracted",
                detector_params={"box": box}))
            stats = result.detector_stats("extracted")
            all_ok &= result.oracle_accuracy_ok
            table.add_row([box, gst, result.oracle_accuracy_ok,
                           stats["converged_at"],
                           stats["wrongful_suspicions"]])
    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE, ok=all_ok, table=table,
        notes=["mistakes include each pair's initial suspicion (the paper's "
               "algorithm starts with suspect_q = true)",
               "each run also hosts the spec's own wf-ewx instance, with "
               "clients, on the extracted detector"],
    )
