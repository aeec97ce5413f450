"""E4 — Section 3: the construction of [8] is not universal; ours is.

Three sub-runs over the *same* ordered pair (p monitors correct q):

1. the [8] single-instance construction over the **adversarial** (deferred-
   exclusion) box — the subject parks in its critical section forever, the
   box legally keeps admitting the witness, and the extracted detector
   suspects the correct ``q`` again and again: wrongful suspicions grow
   with run length (◇P accuracy violated);
2. the [8] construction over the **well-behaved** box — converges (the
   construction is not *wrong* on friendly boxes, just not black-box);
3. **this paper's reduction** over the same adversarial box — converges,
   with finitely many mistakes independent of run length.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.core.extraction import build_full_extraction
from repro.core.flawed_cm import FlawedCMPair
from repro.core.pair import ReductionPair
from repro.dining.boxes import box_factory
from repro.experiments.common import ExperimentResult
from repro.oracles.properties import false_positive_count, suspicion_series
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec

EXP_ID = "E4"
TITLE = "Section 3: [8]'s construction fails on a legal box; ours survives"


def _run(seed: int, construction, box: str,
         max_time: float) -> tuple[int, bool]:
    """Run one construction (p monitors q) over ``box``; return
    (wrongful suspicions, converged)."""
    system = build_system(RunSpec(graph="pair:p,q", seed=seed, gst=100.0,
                                  max_time=max_time))
    _, pairs = build_full_extraction(
        system.engine, system.pids, box_factory(box, system.provider),
        construction=construction, monitors=[("p", "q")])
    system.engine.run()
    trace = system.engine.trace
    label = pairs[("p", "q")].output.detector_label
    mistakes = false_positive_count(trace, "p", "q", system.schedule,
                                    detector=label)
    series = suspicion_series(trace, "p", "q", detector=label)
    converged = bool(series) and not series[-1][1]
    return mistakes, converged


def run(seed: int = 401, short: float = 1500.0, long: float = 3000.0,
        horizon: float = 150.0) -> ExperimentResult:
    table = Table(["construction", "box", "run length", "wrongful suspicions",
                   "eventually trusts q"], title=TITLE)
    boxes = {"deferred": f"deferred:{horizon}", "wf": "wf-ewx"}
    outcomes = []
    for name, construction, box, length in (
            ("[8] flawed", FlawedCMPair, "deferred", short),
            ("[8] flawed", FlawedCMPair, "deferred", long),
            ("[8] flawed", FlawedCMPair, "wf", long),
            ("this paper", ReductionPair, "deferred", short),
            ("this paper", ReductionPair, "deferred", long)):
        mistakes, converged = _run(seed, construction, boxes[box], length)
        outcomes.append((mistakes, converged))
        table.add_row([name, box, length, mistakes, converged])
    ((f_short, _), (f_long, f_long_conv), (_, g_conv),
     (o_short, o_short_conv), (o_long, o_long_conv)) = outcomes

    vulnerability_shown = (
        not f_long_conv               # flawed: still suspecting in the suffix
        and f_long > f_short          # ... and mistakes grow with run length
        and f_long >= 10              # ... unboundedly, not incidentally
    )
    ours_immune = (
        o_short_conv and o_long_conv
        and o_long == o_short         # mistakes finite: independent of length
    )
    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE,
        ok=vulnerability_shown and ours_immune and g_conv,
        table=table,
        notes=["the deferred box is a LEGAL WF-◇WX solution (see "
               "repro/dining/deferred.py); [8]'s detector violates eventual "
               "strong accuracy on it, this paper's does not"],
    )
