"""E1 — Figure 1: witness/subject session structure in the exclusive suffix.

Paper claim: once the dining instances stop making scheduling mistakes,
(a) per instance, a witness never eats twice without the subject eating in
between (throttling), and (b) the two subjects' eating sessions overlap
pairwise (the hand-off gray regions).
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.analysis.sessions import analyze_pair_sessions
from repro.core.extraction import build_full_extraction
from repro.dining.boxes import box_factory
from repro.dining.spec import check_exclusion
from repro.experiments.common import ExperimentResult
from repro.graphs import pair_graph
from repro.runtime.builder import build_system

EXP_ID = "E1"
TITLE = "Figure 1: session alternation and subject hand-off overlap"


def run(seed: int = 101, max_time: float = 2500.0, gst: float = 150.0,
        washout: float = 200.0) -> ExperimentResult:
    system = build_system(["p", "q"], seed=seed, gst=gst, max_time=max_time)
    _, pairs = build_full_extraction(
        system.engine, system.pids, box_factory("wf-ewx", system.provider),
        monitors=[("p", "q")])
    system.engine.run()
    end = system.engine.now
    pair = pairs[("p", "q")]

    analysis = analyze_pair_sessions(system.engine.trace, pair, end)
    # Empirical convergence: last exclusion violation across both instances.
    conv = 0.0
    for iid in pair.instance_ids():
        rep = check_exclusion(system.engine.trace, pair_graph("p", "q"), iid,
                              system.schedule, end)
        if rep.last_violation_end is not None:
            conv = max(conv, rep.last_violation_end)
    after = conv + washout

    throttling = analysis.throttling_ok(after)
    handoff = analysis.handoff_ok(after)
    counts = analysis.counts()

    table = Table(
        ["check", "window start", "verdict", "sessions w0/w1/s0/s1"],
        title=TITLE,
    )
    sessions = "/".join(str(counts[k]) for k in ("w0", "w1", "s0", "s1"))
    table.add_row(["witness throttling (per instance)", after, throttling, sessions])
    table.add_row(["subject hand-off overlap", after, handoff, sessions])

    window = (max(after, end - 150.0), end)
    timeline = analysis.render(window[0], window[1])
    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE,
        ok=throttling and handoff and min(counts.values()) > 10,
        table=table,
        notes=[f"exclusion converged by t={conv:.1f}; suffix checked from "
               f"t={after:.1f}",
               "timeline of the final window (cf. paper Fig. 1):",
               timeline],
        data={"analysis": analysis, "convergence": conv},
    )
