"""E15 — distributional view: reduction convergence across seed sweeps.

Single-run tables (E2/E3) establish the qualitative claims; this sweep
characterizes the *distributions*: across 8 seeds and both black boxes,
the extracted detector's accuracy-convergence time and crash-detection
latency, plus per-run mistake counts (all finite).
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.analysis.stats import sweep_many
from repro.core.extraction import build_full_extraction
from repro.dining.boxes import box_factory
from repro.experiments.common import ExperimentResult
from repro.oracles.properties import (
    check_eventual_strong_accuracy,
    check_strong_completeness,
    false_positive_count,
)
from repro.runtime.builder import build_system
from repro.sim.faults import CrashSchedule

EXP_ID = "E15"
TITLE = "Statistics: extraction convergence across seeds (both boxes)"

#: The two black boxes, by table name.
BOXES = {"wf": "wf-ewx", "deferred": "deferred:150"}


def _metrics(seed: int, box_name: str, crash_at: float,
             max_time: float) -> dict:
    # Accuracy run.
    system = build_system(["p", "q"], seed=seed, max_time=max_time)
    build_full_extraction(system.engine, ["p", "q"],
                          box_factory(BOXES[box_name], system.provider),
                          monitors=[("p", "q")])
    system.engine.run()
    acc = check_eventual_strong_accuracy(
        system.engine.trace, ["p"], ["q"], system.schedule,
        detector="extracted")
    mistakes = false_positive_count(system.engine.trace, "p", "q",
                                    system.schedule, detector="extracted")
    # Completeness run.
    sched = CrashSchedule.single("q", crash_at)
    system2 = build_system(["p", "q"], seed=seed + 5000, max_time=max_time,
                           crash=sched)
    build_full_extraction(system2.engine, ["p", "q"],
                          box_factory(BOXES[box_name], system2.provider),
                          monitors=[("p", "q")])
    system2.engine.run()
    comp = check_strong_completeness(
        system2.engine.trace, ["p"], ["q"], sched, detector="extracted")
    return {
        "accuracy_conv": acc.convergence if acc.ok else None,
        "detect_latency": (comp.convergence - crash_at
                           if comp.ok and comp.convergence else None),
        "mistakes": float(mistakes),
        "acc_ok": 1.0 if acc.ok else 0.0,
        "comp_ok": 1.0 if comp.ok else 0.0,
    }


def run(base_seed: int = 1500, n_seeds: int = 8, crash_at: float = 700.0,
        max_time: float = 2200.0) -> ExperimentResult:
    table = Table(["box", "metric", "mean ± std [min, max] (n)"],
                  title=TITLE)
    ok_all = True
    seeds = range(base_seed, base_seed + n_seeds)
    for box_name in BOXES:
        stats = sweep_many(
            lambda seed: _metrics(seed, box_name, crash_at, max_time),
            list(seeds),
        )
        # Every run converged on both properties.
        ok_all &= stats["acc_ok"].mean == 1.0 and stats["acc_ok"].n == n_seeds
        ok_all &= stats["comp_ok"].mean == 1.0
        ok_all &= stats["mistakes"].max <= 10.0
        for metric in ("accuracy_conv", "detect_latency", "mistakes"):
            table.add_row([box_name, metric, stats[metric].summary()])
    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE, ok=ok_all, table=table,
        notes=[f"{n_seeds} seeds per box; accuracy and completeness "
               "converged in every single run; mistakes always finite"],
    )
