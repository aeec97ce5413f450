"""E5 — Lemmas 5, 7, 9, 11, 12: liveness and structure of the reduction.

Paper claims checked on runs of two lengths T and 2T (both correct):

* Lemma 7 / 11 — subjects and witnesses eat infinitely often (session
  counts grow with run length);
* Lemma 12 — witnesses strictly alternate (session counts differ by ≤ 1);
* Lemma 5 — exactly one ping and one ack per completed subject session
  (ping/ack totals match completed sessions to within the one in flight);
* Lemma 9 — at all times some witness is thinking;
* Lemma 8 — eventually, at all times some subject is eating.

Lemmas 2 and 4 are checked continuously by the runtime invariant monitors
(armed in every extraction run), and Lemmas 1, 3, 6, 10 are exercised by
the unit tests in ``tests/core``.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.analysis.sessions import analyze_pair_sessions
from repro.core.extraction import build_full_extraction
from repro.dining.boxes import box_factory
from repro.dining.spec import state_series
from repro.experiments.common import ExperimentResult
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec
from repro.sim.trace import state_intervals
from repro.types import DinerState, Time

EXP_ID = "E5"
TITLE = "Lemmas 5/7/9/11/12: liveness and structure of witnesses & subjects"


def _coverage_gaps(intervals: list[tuple[Time, Time]], start: Time,
                   end: Time, slack: Time = 1e-9) -> float:
    """Total time in [start, end] not covered by the given intervals."""
    covered = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, start), min(b, end)
        if b <= cursor:
            continue
        covered += b - max(a, cursor)
        cursor = max(cursor, b)
    return max(end - start - covered, 0.0)


def _one_run(seed: int, max_time: float) -> dict:
    system = build_system(RunSpec(graph="pair:p,q", seed=seed, gst=120.0,
                                  max_time=max_time))
    _, pairs = build_full_extraction(
        system.engine, system.pids, box_factory("wf-ewx", system.provider),
        monitors=[("p", "q")])
    system.engine.run()
    pair = pairs[("p", "q")]
    end = system.engine.now
    trace = system.engine.trace
    analysis = analyze_pair_sessions(trace, pair, end)

    # Lemma 9: union of the witnesses' thinking intervals covers the run.
    thinking = []
    for iid in pair.instance_ids():
        series = state_series(trace, iid, "p")
        thinking += state_intervals(series, DinerState.THINKING.value, end)
    lemma9_gap = _coverage_gaps(thinking, 0.0, end)

    # Lemma 8: union of the subjects' eating intervals covers a suffix.
    eating = analysis.subject[0] + analysis.subject[1]
    lemma8_gap_suffix = _coverage_gaps(eating, end * 0.5, end)

    return {
        "counts": analysis.counts(),
        "pings": [s.pings_sent for s in pair.subjects],
        "acks": [w.acks_sent for w in pair.witnesses],
        "completed": [s.eat_sessions_completed for s in pair.subjects],
        "lemma9_gap": lemma9_gap,
        "lemma8_gap": lemma8_gap_suffix,
        "end": end,
    }


def run(seed: int = 501, base_time: float = 1500.0) -> ExperimentResult:
    short = _one_run(seed, base_time)
    long = _one_run(seed, 2 * base_time)

    table = Table(["lemma", "claim", "short run", "long run", "verdict"],
                  title=TITLE)
    checks: list[bool] = []

    def row(lemma: str, claim: str, s_val, l_val, ok: bool) -> None:
        checks.append(ok)
        table.add_row([lemma, claim, s_val, l_val, ok])

    s_w = short["counts"]["w0"] + short["counts"]["w1"]
    l_w = long["counts"]["w0"] + long["counts"]["w1"]
    row("L11", "witnesses eat ever more often", s_w, l_w,
        l_w > 1.5 * s_w and s_w > 20)

    s_s = short["counts"]["s0"] + short["counts"]["s1"]
    l_s = long["counts"]["s0"] + long["counts"]["s1"]
    row("L7", "subjects eat ever more often", s_s, l_s,
        l_s > 1.5 * s_s and s_s > 20)

    alt_s = abs(short["counts"]["w0"] - short["counts"]["w1"])
    alt_l = abs(long["counts"]["w0"] - long["counts"]["w1"])
    row("L12", "witnesses alternate (|#w0-#w1| <= 1)", alt_s, alt_l,
        alt_s <= 1 and alt_l <= 1)

    def lemma5_ok(r: dict) -> bool:
        return all(
            abs(r["pings"][i] - r["completed"][i]) <= 1
            and abs(r["acks"][i] - r["pings"][i]) <= 1
            for i in (0, 1)
        )

    row("L5", "one ping + one ack per subject session",
        f"{short['pings']}/{short['completed']}",
        f"{long['pings']}/{long['completed']}",
        lemma5_ok(short) and lemma5_ok(long))

    row("L9", "some witness always thinking (gap time)",
        round(short["lemma9_gap"], 3), round(long["lemma9_gap"], 3),
        short["lemma9_gap"] == 0.0 and long["lemma9_gap"] == 0.0)

    row("L8", "eventually some subject always eating (suffix gap)",
        round(short["lemma8_gap"], 3), round(long["lemma8_gap"], 3),
        short["lemma8_gap"] == 0.0 and long["lemma8_gap"] == 0.0)

    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE, ok=all(checks), table=table,
        notes=["runtime monitors for Lemmas 2 and 4 were enabled and did "
               "not fire"],
    )
