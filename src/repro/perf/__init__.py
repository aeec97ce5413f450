"""Profiling and benchmarking of the simulation substrate.

The paper's claims are asymptotic, so evidence quality scales with how
many seeds × adversaries × topologies a campaign can grind through —
which makes raw engine throughput a first-class concern.  This package
keeps it honest:

* :mod:`repro.perf.bench` — a deterministic microbench harness over
  named workloads (``repro bench`` on the CLI), emitting the
  machine-readable ``BENCH_engine.json`` artifact with before/after
  event-throughput numbers;
* :mod:`repro.perf.profiler` — cProfile helpers backing the
  ``--profile-out`` flag on ``repro run/scenario/sweep/chaos``.

See docs/performance.md for the workflow.
"""

from repro.perf.bench import (
    BENCH_SCHEMA,
    WORKLOADS,
    WorkloadResult,
    compare_to_baseline,
    emit_report,
    run_bench,
)
from repro.perf.profiler import profile_to

__all__ = [
    "BENCH_SCHEMA",
    "WORKLOADS",
    "WorkloadResult",
    "compare_to_baseline",
    "emit_report",
    "profile_to",
    "run_bench",
]
