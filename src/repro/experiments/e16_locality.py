"""E16 — failure locality: how far does one crash reach?

The paper builds on crash-locality results for dining ([11]: ◇P gives
crash-locality-1 for *perpetual* exclusion).  This experiment makes the
motivation concrete on a chain conflict graph: without a failure detector,
one crash starves processes at *unbounded* distance (a hungry-forever diner
pins its other fork clean, starving its next neighbor, and so on down the
chain); with the ◇P-based WF-◇WX algorithm nobody starves — the impact is a
transient delay at distance 1.
"""

from __future__ import annotations

import networkx as nx

from repro.analysis.report import Table
from repro.dining.spec import hungry_intervals
from repro.experiments.common import ExperimentResult
from repro.graphs import path
from repro.runtime import RunSpec, execute
from repro.runtime.builder import INSTANCE

EXP_ID = "E16"
TITLE = "Failure locality: crash impact radius, hygienic vs ◇P dining"


def _run(seed: int, algorithm: str, n: int, crash_at: float,
         max_time: float):
    g = path(n)
    pids = sorted(g.nodes)
    victim = pids[0]
    result = execute(RunSpec(
        name=EXP_ID, graph=f"path:{n}", seed=seed, gst=150.0,
        max_time=max_time, algorithm=algorithm,
        crashes={victim: crash_at}))
    end = result.end_time

    dist = nx.single_source_shortest_path_length(g, victim)
    rows = []
    for pid in pids[1:]:
        ivs = [iv for iv in hungry_intervals(result.trace, INSTANCE, pid, end)
               if iv[1] > crash_at]
        max_wait = max((b - a for a, b in ivs), default=0.0)
        # Starving: still hungry at the end with hunger from long before.
        starving = bool(ivs) and ivs[-1][1] >= end and \
            ivs[-1][0] < end - 300.0
        rows.append((dist[pid], pid, starving, max_wait))
    return rows


def run(seed: int = 1601, n: int = 6, crash_at: float = 200.0,
        max_time: float = 2500.0) -> ExperimentResult:
    table = Table(["algorithm", "distance from crash", "process", "starves",
                   "max hungry wait"], title=TITLE)
    hygienic = _run(seed, "hygienic", n, crash_at, max_time)
    wf = _run(seed, "wf-ewx", n, crash_at, max_time)
    for algorithm, rows in (("hygienic", hygienic), ("wf-ewx", wf)):
        for d, pid, starving, wait in rows:
            table.add_row([algorithm, d, pid, starving, wait])

    hygienic_far_starvation = any(
        starving for d, _, starving, _ in hygienic if d >= 2
    )
    wf_nobody_starves = not any(starving for _, _, starving, _ in wf)
    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE,
        ok=hygienic_far_starvation and wf_nobody_starves,
        table=table,
        notes=["chain graph p0-p1-...-p5; p0 crashes at "
               f"t={crash_at}; starvation under the hygienic baseline "
               "propagates down the chain, the ◇P algorithm confines the "
               "impact to a transient delay"],
    )
