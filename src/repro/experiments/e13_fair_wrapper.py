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
from repro.dining.boxes import box_factory
from repro.dining.client import EagerClient
from repro.dining.fairness import measure_fairness
from repro.dining.spec import check_exclusion, check_wait_freedom
from repro.experiments.common import ExperimentResult, build_system
from repro.graphs import clique

EXP_ID = "E13"
TITLE = "Ablation: eventually k-fair wrapper (Section 8 / [13]) — k sweep"
INSTANCE = "FAIR"


def _one(seed: int, k: int | None, n: int, max_time: float, washout: float):
    g = clique(n)
    pids = sorted(g.nodes)
    system = build_system(pids, seed=seed, max_time=max_time)
    box = "wf-ewx" if k is None else f"fair:{k}"
    diners = box_factory(box, system.provider)(INSTANCE, g).attach(
        system.engine)
    for pid in pids:
        system.engine.process(pid).add_component(
            EagerClient("cl", diners[pid], eat_steps=2))
    system.engine.run()
    eng = system.engine
    wf = check_wait_freedom(eng.trace, g, INSTANCE, system.schedule, eng.now,
                            grace=150.0)
    excl = check_exclusion(eng.trace, g, INSTANCE, system.schedule, eng.now)
    conv = (excl.last_violation_end or 0.0) + washout
    fairness = measure_fairness(eng.trace, g, INSTANCE, eng.now,
                                system.schedule)
    return {
        "wf": wf.ok,
        "ewx": excl.eventually_exclusive_by(eng.now * 0.6),
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
