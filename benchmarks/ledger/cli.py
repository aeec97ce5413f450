"""Command line of the ledger.

``--workload NAME`` measures one workload in this process and prints, as
the last line of standard output, the one-object result the benchmark
contract asks for.  Without it (or with ``--workloads``) every named
workload is measured in a process of its own — so ``peak_rss_mb`` and
set-up are per workload — and the merged result is printed as a table and
written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile
import time
from typing import Optional

from . import harness

BENCHMARK = json.loads(
    (harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
DEFAULT_OUT = harness.RESULTS_DIR / "ledger.json"


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--workload", choices=WORKLOAD_NAMES,
                       help="measure one workload in this process")
    which.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES,
                       default=None, help="default: all")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float,
                   default=float(BENCHMARK["run_seconds"]),
                   help="wall budget of one workload's timed repetitions")
    p.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1,
                   default=0, help="also run the traced per-layer pass")
    p.add_argument("--scale", choices=sorted(harness.SCALES), default="full")
    p.add_argument("--out", type=pathlib.Path, default=None,
                   help=f"result JSON (default {DEFAULT_OUT})")
    return p


def main(argv: Optional[list] = None, started: Optional[float] = None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter() if started is None else started
    if args.workload:
        return _one(args, started)
    return _all(args)


# -- one workload, this process ------------------------------------------------


def _one(args, started: float) -> int:
    harness.bootstrap_paths()
    try:
        from .workloads import WORKLOADS  # imports the program: set-up
    except ModuleNotFoundError as exc:
        raise SystemExit(f"ledger: cannot import the program under test "
                         f"({exc}); run from a checkout that has src/")

    import_s = time.perf_counter() - started
    pins = json.loads((harness.HERE / "pins.json").read_text("utf-8"))
    doc = harness.measure(
        WORKLOADS[args.workload], seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), scale=harness.SCALES[args.scale], pins=pins,
        import_s=import_s)
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    for failure in doc["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    _print_rows(_rows(doc))
    print(json.dumps(contract_line(doc, bool(args.trace))))
    return 0 if doc["correct"] else 1


def contract_line(doc: dict, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                   for name, value in doc["per_layer"].items()}
    else:
        metrics = doc["end_to_end"]
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


# -- every workload, a process each ----------------------------------------------


def _child(args, workload: str, trace: int, out: pathlib.Path) -> dict:
    cmd = [sys.executable, str(harness.HERE / "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--scale", args.scale, "--out", str(out)]
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=900)
    if not out.exists():
        raise SystemExit(f"ledger: {workload} produced no result "
                         f"(exit {done.returncode})")
    return json.loads(out.read_text("utf-8"))


def _all(args) -> int:
    names = args.workloads or WORKLOAD_NAMES
    merged = {"schema": harness.RESULT_SCHEMA, "seed": args.seed,
              "seconds": args.seconds, "scale": args.scale, "workloads": {}}
    harness.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.SCRATCH) as tmp:
        for name in names:
            print(f"ledger: {name} ...", file=sys.stderr, flush=True)
            doc = _child(args, name, 0, pathlib.Path(tmp) / "untraced.json")
            if args.trace:
                traced = _child(args, name, 1,
                                pathlib.Path(tmp) / "traced.json")
                for key in ("per_layer", "exact"):
                    doc[key] = traced[key]
                doc["raw"]["traced_rep_walls_s"] = traced["raw"][
                    "traced_rep_walls_s"]
                doc["attempted"] += traced["attempted"]
                doc["failed"] += traced["failed"]
                doc["failures"] += traced["failures"]
                doc["correct"] = doc["correct"] and traced["correct"]
            merged["workloads"][name] = doc
            _print_rows(_rows(doc))
    out = args.out or DEFAULT_OUT
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(merged, indent=1), encoding="utf-8")
    failed = [n for n, d in merged["workloads"].items() if not d["correct"]]
    print(f"ledger: wrote {out}; "
          + (f"FAILED verification on {', '.join(failed)}" if failed
             else "every output verified"))
    return 1 if failed else 0


# -- printing --------------------------------------------------------------------


def _rows(doc: dict) -> list:
    name = doc["workload"]
    rows = [(name, metric, m["value"], m["unit"])
            for metric, m in doc["end_to_end"].items()]
    rows.append((name, "failed_share", doc["failed"] / doc["attempted"],
                 f"of {doc['attempted']}"))
    for metric, value in (doc.get("per_layer") or {}).items():
        rows.append((name, metric, value, PER_LAYER_UNITS[metric]))
    return rows


def _print_rows(rows: list) -> None:
    for workload, metric, value, unit in rows:
        print(f"{workload:<18} {metric:<30} {value:>16.6g} {unit}")
