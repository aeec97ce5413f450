"""E11 — Section 4 / [3]: the native heartbeat ◇P under partial synchrony.

Validates the sufficiency-side substrate: the heartbeat/adaptive-timeout
implementation of ◇P satisfies strong completeness and eventual strong
accuracy in a GST partial-synchrony network, with mistake counts that are
finite and convergence that tracks GST.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.experiments.common import ExperimentResult
from repro.oracles.properties import (
    check_eventual_strong_accuracy,
    check_strong_completeness,
    false_positive_count,
)
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec

EXP_ID = "E11"
TITLE = "Native heartbeat ◇P: completeness, accuracy, finite mistakes"


def run(seed: int = 1101, n: int = 3,
        gsts: tuple[float, ...] = (100.0, 400.0, 800.0),
        crash_at: float = 1200.0,
        max_time: float = 2500.0) -> ExperimentResult:
    table = Table(["gst", "completeness", "accuracy", "accuracy conv",
                   "mistakes"], title=TITLE)
    ok_all = True
    for k, gst in enumerate(gsts):
        system = build_system(RunSpec(
            graph=f"clique:{n}", seed=seed + k, gst=gst, max_time=max_time,
            crashes={f"p{n - 1}": crash_at},
            detector_params={"initial_timeout": 8, "heartbeat_period": 6}))
        pids = system.pids
        system.engine.run()
        trace = system.engine.trace
        comp = check_strong_completeness(trace, pids, pids, system.schedule,
                                         detector="boxfd")
        acc = check_eventual_strong_accuracy(trace, pids, pids,
                                             system.schedule,
                                             detector="boxfd")
        mistakes = sum(
            false_positive_count(trace, p, q, system.schedule,
                                 detector="boxfd")
            for p in pids for q in pids if p != q
        )
        ok_all &= comp.ok and acc.ok
        table.add_row([gst, comp.ok, acc.ok, acc.convergence, mistakes])
    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE, ok=ok_all, table=table,
        notes=["accuracy convergence is bounded by GST plus the adaptive "
               "timeout's settling; mistakes stay finite in every run"],
    )
