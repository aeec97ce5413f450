"""E7 — Section 9: over a perpetual-WX box the reduction extracts T.

Paper claim: applied to any wait-free *perpetual* weak-exclusion dining
solution, the same reduction extracts the trusting oracle T: strong
completeness plus trusting accuracy (every correct process eventually
permanently trusted; trust, once granted, is revoked only on a real crash).

The perpetual box is the hygienic algorithm with a crash-accurate
suspicion substrate (see ``repro/dining/perpetual.py``); we first verify
the box really had zero exclusion violations, then check the extracted
outputs against the T specification.
"""

from __future__ import annotations

from functools import partial

from repro.analysis.report import Table
from repro.core.extraction import build_full_extraction
from repro.core.pair import TRUSTING_LABEL, ReductionPair
from repro.dining.perpetual import PerpetualDining
from repro.dining.spec import check_exclusion
from repro.experiments.common import ExperimentResult
from repro.oracles.properties import (
    check_strong_completeness,
    check_trusting_accuracy,
)
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec

EXP_ID = "E7"
TITLE = "Section 9: reduction over a perpetual-WX box extracts T"


def run(seed: int = 701, n: int = 3, crash_at: float = 700.0,
        max_time: float = 2500.0) -> ExperimentResult:
    system = build_system(RunSpec(
        graph=f"clique:{n}", seed=seed, gst=150.0, max_time=max_time,
        detector="perfect", crashes={f"p{n - 1}": crash_at}))
    pids = system.pids
    box = lambda iid, g: PerpetualDining(iid, g, system.provider)  # noqa: E731
    _, pairs = build_full_extraction(
        system.engine, pids, box,
        construction=partial(ReductionPair, label=TRUSTING_LABEL))
    system.engine.run()
    end = system.engine.now
    trace = system.engine.trace

    # The box must actually be perpetually exclusive in this run.
    violations = 0
    for pair in pairs.values():
        for iid, inst in zip(pair.instance_ids(), pair.instances):
            violations += check_exclusion(trace, inst.graph, iid,
                                          system.schedule, end).count
    box_ok = violations == 0

    trust = check_trusting_accuracy(trace, pids, pids, system.schedule,
                                    detector=TRUSTING_LABEL)
    comp = check_strong_completeness(trace, pids, pids, system.schedule,
                                     detector=TRUSTING_LABEL)

    table = Table(["property", "verdict", "detail"], title=TITLE)
    table.add_row(["box perpetual weak exclusion", box_ok,
                   f"{violations} violations across "
                   f"{2 * len(pairs)} instances"])
    table.add_row(["extracted: trusting accuracy", trust.ok,
                   f"{len(trust.pairs)} ordered pairs"])
    table.add_row(["extracted: strong completeness", comp.ok,
                   f"convergence {comp.convergence}"])
    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE, ok=box_ok and trust.ok and comp.ok,
        table=table,
        notes=["trusting accuracy audited every trusted→suspected "
               "transition against the ground-truth crash schedule"],
    )
