"""E12 — reduction overhead scaling (our extension; no paper counterpart).

The reduction costs 2 dining instances (plus ping/ack traffic) per ordered
pair, so the full extracted ◇P runs 2·n·(n-1) instances.  Because each
process executes one action per step regardless of how many threads it
hosts, per-pair *throughput* necessarily falls as n grows; the meaningful
unit cost is **messages per witness eating session** — i.e. per sample of
the extracted detector — which should stay flat.  This experiment measures
both, plus the native heartbeat detector's traffic for comparison.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.core.extraction import build_full_extraction
from repro.dining.boxes import box_factory
from repro.experiments.common import ExperimentResult
from repro.runtime.builder import build_system
from repro.sim.metrics import collect_metrics

EXP_ID = "E12"
TITLE = "Reduction overhead: cost per extracted-detector sample vs n"


def run(seed: int = 1201, ns: tuple[int, ...] = (2, 3, 4),
        max_time: float = 1200.0) -> ExperimentResult:
    table = Table(["n", "pairs", "messages", "reduction msgs",
                   "witness sessions", "msgs/session", "native fd msgs",
                   "events"], title=TITLE)
    per_sample_cost = []
    for n in ns:
        pids = [f"p{i}" for i in range(n)]
        system = build_system(pids, seed=seed, gst=100.0, max_time=max_time)
        _, pairs = build_full_extraction(
            system.engine, pids, box_factory("wf-ewx", system.provider))
        system.engine.run()
        m = collect_metrics(system.engine)
        n_pairs = n * (n - 1)
        native = m.messages_by_kind.get("hb", 0)
        reduction = m.messages_sent - native
        sessions = sum(
            w.eat_sessions for pair in pairs.values() for w in pair.witnesses
        )
        cost = reduction / max(sessions, 1)
        per_sample_cost.append(cost)
        table.add_row([n, n_pairs, m.messages_sent, reduction, sessions,
                       cost, native, m.events_processed])
    flat = max(per_sample_cost) <= 2.0 * min(per_sample_cost)
    sampled = all(c > 0 for c in per_sample_cost)
    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE, ok=flat and sampled, table=table,
        notes=["a witness eating session is one refresh of the extracted "
               "suspicion bit; its message cost (dining req/fork + "
               "ping/ack) should not grow with system size"],
    )
