"""E13 — ablation: the Section 8 fairness transformation, k sweep.

Section 8 implies an asynchronous transformation from any WF-◇WX solution
to an eventually k-fair one (via the extracted ◇P and the construction of
[13]).  :mod:`repro.dining.fair_wrapper` implements such a wrapper; this
ablation sweeps the overtake budget ``k``, measuring

* the suffix overtaking bound actually achieved (must be ≤ k),
* preserved wait-freedom and ◇WX,
* the throughput price of fairness (total eating sessions shrink as the
  budget tightens).
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.experiments.common import ExperimentResult
from repro.runtime import RunSpec, execute

EXP_ID = "E13"
TITLE = "Ablation: eventually k-fair wrapper (Section 8 / [13]) — k sweep"


def _one(seed: int, k: int | None, n: int, max_time: float, washout: float):
    result = execute(RunSpec(
        name=EXP_ID, graph=f"clique:{n}", seed=seed, gst=150.0,
        max_time=max_time, grace=150.0,
        algorithm="wf-ewx" if k is None else f"fair:{k}"))
    wf, excl, fairness = result.wait_freedom, result.exclusion, result.fairness
    conv = (excl.last_violation_end or 0.0) + washout
    return {
        "wf": wf.ok,
        "ewx": excl.eventually_exclusive_by(result.end_time * 0.6),
        "suffix_overtake": fairness.worst_after(conv),
        "overall_overtake": fairness.worst_overall(),
        "sessions": sum(wf.sessions.values()),
    }


def run(seed: int = 1301, ks: tuple[int, ...] = (1, 2, 3), n: int = 3,
        max_time: float = 2500.0, washout: float = 250.0) -> ExperimentResult:
    table = Table(["k", "wait-free", "◇WX", "suffix overtaking",
                   "overall overtaking", "total sessions"], title=TITLE)
    ok_all = True
    sessions_by_k = []
    for k in ks:
        r = _one(seed, k, n, max_time, washout)
        ok_all &= r["wf"] and r["ewx"] and r["suffix_overtake"] <= k
        sessions_by_k.append(r["sessions"])
        table.add_row([k, r["wf"], r["ewx"], r["suffix_overtake"],
                       r["overall_overtake"], r["sessions"]])
    raw = _one(seed, None, n, max_time, washout)
    table.add_row(["(no wrapper)", raw["wf"], raw["ewx"],
                   raw["suffix_overtake"], raw["overall_overtake"],
                   raw["sessions"]])
    # The price of fairness: the tightest budget must cost throughput
    # relative to the loosest.
    ok_all &= sessions_by_k[0] <= sessions_by_k[-1]
    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE, ok=ok_all, table=table,
        notes=["suffix overtaking must respect each k; sessions shrink as "
               "the budget tightens (fairness costs throughput)"],
    )
