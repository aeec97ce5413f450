"""Compare two ledger result files under the bounds in BENCHMARK.json.

    python3 benchmarks/ledger/compare.py A.json B.json

A is the base (the parent commit, or the first of two sets of one commit),
B the candidate.  One row per (metric, workload): both values, the ratio
B/A, the bound, and a verdict:

* ``ok``          B is no worse than A by more than the metric's bound;
* ``REGRESSION``  it is worse by more than the bound;
* ``unresolved``  the repetitions recorded in either file spread wider than
  the bound (interquartile range over median), so the pair cannot show the
  metric unchanged — unless every repetition of B beats every one of A,
  which reads ``improved``.

Counts the program makes on a replayed input (``exact``) must be identical
when both files ran the same seed and scale.  Exits 1 on a regression, a
differing exact count, or any failed operation in either file.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

#: Which recorded repetitions estimate each end-to-end metric's spread
#: (``peak_rss_mb`` is one reading per run: no spread is recorded).
SAMPLES = {"op_ms": "rep_op_medians_s", "setup_s": "setup_walls_s"}


def spread(values: list) -> float:
    if len(values) < 4:
        return 0.0
    q = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q[2] - q[0]) / mid if mid else 0.0


def judge(metric: dict, a: dict, b: dict) -> "tuple[float, float, str]":
    """``(ratio B/A, widest recorded spread, verdict)`` for one workload."""
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    va = a["end_to_end"][name]["value"]
    vb = b["end_to_end"][name]["value"]
    ratio = vb / va
    worse = ratio - 1.0 if lower else 1.0 - ratio
    sa = a["raw"].get(SAMPLES.get(name, ""), [])
    sb = b["raw"].get(SAMPLES.get(name, ""), [])
    width = max(spread(sa), spread(sb))
    if width > bound:
        separated = sa and sb and (
            max(sb) < min(sa) if lower else min(sb) > max(sa))
        return ratio, width, "improved" if separated else "unresolved"
    return ratio, width, "REGRESSION" if worse > bound else "ok"


def compare(a: dict, b: dict, bench: dict) -> "tuple[list, list]":
    """``(rows, problems)``; ``problems`` non-empty means exit 1."""
    rows, problems = [], []
    same_input = (a["seed"], a["scale"]) == (b["seed"], b["scale"])
    for workload in (w["name"] for w in bench["workloads"]):
        da, db = a["workloads"].get(workload), b["workloads"].get(workload)
        if da is None or db is None:
            continue
        for side, doc in (("A", da), ("B", db)):
            if doc["failed"] or not doc["correct"]:
                problems.append(
                    f"{workload}: {doc['failed']} of {doc['attempted']} "
                    f"operations failed in {side}: {doc['failures'][:1]}")
        for metric in bench["end_to_end"]:
            ratio, width, verdict = judge(metric, da, db)
            rows.append((metric["name"], workload,
                         da["end_to_end"][metric["name"]]["value"],
                         db["end_to_end"][metric["name"]]["value"],
                         metric["unit"], ratio, width, metric["bound"],
                         verdict))
            if verdict == "REGRESSION":
                problems.append(
                    f"{metric['name']} on {workload}: B/A = {ratio:.3f}, "
                    f"bound {metric['bound']:.2f}")
        if same_input:
            for name, value in da.get("exact", {}).items():
                other = db.get("exact", {}).get(name)
                if other is not None and other != value:
                    problems.append(f"exact count {name} on {workload}: "
                                    f"A {value:g}, B {other:g}")
    return rows, problems


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(p).read_text("utf-8")) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    rows, problems = compare(a, b, bench)
    print(f"{'metric':<12} {'workload':<18} {'A':>12} {'B':>12} unit "
          f"{'B/A':>7} {'spread':>7} {'bound':>6} verdict")
    for name, workload, va, vb, unit, ratio, width, bound, verdict in rows:
        print(f"{name:<12} {workload:<18} {va:>12.4f} {vb:>12.4f} {unit:<4} "
              f"{ratio:>7.3f} {width:>7.3f} {bound:>6.2f} {verdict}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"{len(rows)} pairs, {unresolved} unresolved, "
          f"{len(problems)} problem(s); ratios are B over base A")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
