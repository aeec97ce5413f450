"""E6 — Section 8: the two-step construction to eventually fair dining.

Paper claim: from any WF-◇WX solution one can extract ◇P (this paper's
reduction) and feed it to the construction of [13] to obtain WF-◇WX dining
with eventual k-fairness (k ≤ 2).  We run the full composition:

  black-box dining  →  reduction  →  extracted ◇P  →  a NEW dining
  instance (over a clique, with real client workloads) whose suspicion
  source is the extracted oracle

and measure the overtaking statistic of the new instance: after its
exclusive suffix begins, no hungry diner is overtaken by a neighbor more
than k times, for small k.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.experiments.common import ExperimentResult
from repro.runtime import RunSpec, execute

EXP_ID = "E6"
TITLE = "Section 8: extracted ◇P drives eventually k-fair dining (k <= 2)"


def run(seed: int = 601, n: int = 3, max_time: float = 3000.0,
        washout: float = 250.0, k: int = 2) -> ExperimentResult:
    # The reduction over the black box is the run's detector; the spec's
    # own dining instance (over a clique, with real client workloads) is
    # the fresh instance whose oracle is the extracted ◇P.
    result = execute(RunSpec(
        name=EXP_ID, graph=f"clique:{n}", seed=seed, gst=120.0,
        max_time=max_time, grace=100.0, detector="extracted"))
    end = result.end_time
    excl, wf, fairness = result.exclusion, result.wait_freedom, result.fairness
    conv = excl.last_violation_end or 0.0
    worst_suffix = fairness.worst_after(conv + washout)
    worst_all = fairness.worst_overall()

    table = Table(["property", "value", "verdict"], title=TITLE)
    ok_wf = wf.ok
    ok_excl = excl.eventually_exclusive_by(end * 0.6)
    ok_fair = worst_suffix <= k
    table.add_row(["wait-freedom of composed instance", wf.max_wait, ok_wf])
    table.add_row(["◇WX of composed instance (last violation)",
                   excl.last_violation_end, ok_excl])
    table.add_row([f"eventual {k}-fairness (worst suffix overtaking)",
                   worst_suffix, ok_fair])
    table.add_row(["worst overtaking over whole run (may exceed k)",
                   worst_all, True])

    sessions = ", ".join(f"{p}:{m}" for p, m in sorted(wf.sessions.items()))
    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE, ok=ok_wf and ok_excl and ok_fair,
        table=table,
        notes=[f"eating sessions in composed instance: {sessions}",
               f"suffix checked from t={conv + washout:.1f}"],
    )
