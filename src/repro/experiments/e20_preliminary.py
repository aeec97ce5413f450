"""E20 — Section 5.1: why the reduction needs two dining instances.

The paper first sketches a single-instance construction (witness trusts
iff a ping arrived since its last meal; subject pings once per meal) and
rejects it: nothing stops the witness from eating many times between two
subject meals — WF-◇WX guarantees no fairness — so the witness may suspect
a correct subject forever.

This experiment reproduces that argument end-to-end on the *standard*
black box: whenever the subject lingers in its exit→think→hungry gap the
box happily serves the witness again, so the preliminary detector's
wrongful suspicions grow linearly with run length and never converge.  The
paper's two-instance reduction on the very same box converges with O(1)
mistakes — the subjects' overlapping hand-off keeps one of them eating at
all times, throttling the witnesses no matter how the box schedules.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.core.extraction import build_full_extraction
from repro.core.pair import ReductionPair
from repro.core.preliminary import PreliminaryPair
from repro.dining.boxes import box_factory
from repro.experiments.common import ExperimentResult
from repro.oracles.properties import false_positive_count, suspicion_series
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec

EXP_ID = "E20"
TITLE = "Section 5.1 ablation: one dining instance is not enough"


def _one(seed: int, horizon: float, construction) -> tuple[int, float]:
    system = build_system(RunSpec(graph="pair:p,q", seed=seed, gst=150.0,
                                  max_time=horizon))
    _, pairs = build_full_extraction(
        system.engine, system.pids, box_factory("wf-ewx", system.provider),
        construction=construction, monitors=[("p", "q")])
    label = pairs[("p", "q")].output.detector_label
    system.engine.run()
    trace = system.engine.trace
    mistakes = false_positive_count(trace, "p", "q", system.schedule,
                                    detector=label)
    series = suspicion_series(trace, "p", "q", detector=label)
    # A flapping series may happen to end on "trusted", so the honest
    # statistic is WHEN the last wrongful suspicion started.
    last_wrongful = max((t for t, suspected in series if suspected),
                        default=0.0)
    return mistakes, last_wrongful


def run(seed: int = 2001,
        horizons: tuple[float, ...] = (1500.0, 3000.0, 6000.0)
        ) -> ExperimentResult:
    table = Table(["construction", "run length", "wrongful suspicions",
                   "last wrongful suspicion"], title=TITLE)
    prelim_rows = []
    for horizon in horizons:
        mk, last = _one(seed, horizon, PreliminaryPair)
        prelim_rows.append((mk, last, horizon))
        table.add_row(["single instance (Sec. 5.1)", horizon, mk, last])
    paper_rows = []
    for horizon in (horizons[0], horizons[-1]):
        mk, last = _one(seed, horizon, ReductionPair)
        paper_rows.append((mk, last, horizon))
        table.add_row(["two instances (the paper)", horizon, mk, last])

    prelim_grows = all(a[0] < b[0] for a, b in zip(prelim_rows,
                                                   prelim_rows[1:]))
    # Mistakes track the horizon: no convergence at any tested length.
    prelim_never_converges = all(last > 0.8 * horizon
                                 for _, last, horizon in prelim_rows)
    paper_bounded = (
        paper_rows[0][0] == paper_rows[-1][0]       # length-independent
        and all(last < 0.2 * horizon for _, last, horizon in paper_rows)
    )
    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE,
        ok=prelim_grows and prelim_never_converges and paper_bounded,
        table=table,
        notes=["same black box, same seeds: the single-instance sketch "
               "accrues mistakes every time the witness slips in an extra "
               "meal during the subject's exit→think→hungry gap; the "
               "hand-off of the two-instance reduction makes that "
               "impossible once exclusion holds"],
    )
