"""The run-construction runtime: one contract, ``RunSpec → RunResult``.

This package is the single place a simulated dining run is described,
wired, executed, and judged:

* :class:`~repro.runtime.spec.RunSpec` — declarative, picklable
  description of one run (topology, seed, fault/delay models, transport,
  oracle, algorithm, workload, crash schedule, trace retention);
* :mod:`~repro.runtime.builder` — the canonical builder
  (:func:`~repro.runtime.builder.build_system`,
  :func:`~repro.runtime.builder.instantiate`,
  :func:`~repro.runtime.builder.execute`) that ``chaos``, the
  experiments and the benchmarks all build through;
* :class:`~repro.runtime.result.RunResult` — the uniform outcome envelope
  (verdicts, metrics, trace handle);
* :class:`~repro.runtime.executor.SupervisedExecutor` — deterministic,
  fault-tolerant multi-core fan-out (``--workers N`` on the CLI):
  per-task timeouts, crashed-worker detection, seeded backoff retry,
  graceful serial degradation;
* :class:`~repro.runtime.store.ResultStore` /
  :func:`~repro.runtime.store.spec_hash` — content-addressed result
  caching and campaign checkpoint/resume (``--store`` / ``--resume``);
* :func:`~repro.runtime.seeds.fanout_seeds` — stable campaign seed
  derivation;
* :class:`~repro.runtime.progress.ProgressReporter` — live stderr
  progress line + append-only heartbeat JSONL for long campaigns
  (``--progress`` / ``--progress-out``).

See docs/runtime.md for the architecture walkthrough and
docs/reliability.md for the supervision / checkpoint-resume layer.
"""

from repro.runtime.builder import (
    INSTANCE,
    BuiltRun,
    System,
    build_client,
    build_system,
    execute,
    execute_payload,
    instantiate,
    justify_violations,
)
from repro.runtime.executor import (
    RetryPolicy,
    SupervisedExecutor,
    mp_context,
)
from repro.runtime.progress import (
    PROGRESS_SCHEMA,
    ProgressReporter,
    progress_sample,
)
from repro.runtime.result import RunResult
from repro.runtime.seeds import fanout_seeds
from repro.runtime.spec import RunSpec, parse_graph
from repro.runtime.store import ResultStore, resumable_map, spec_hash

__all__ = [
    "INSTANCE",
    "BuiltRun",
    "PROGRESS_SCHEMA",
    "ProgressReporter",
    "ResultStore",
    "RetryPolicy",
    "RunResult",
    "RunSpec",
    "SupervisedExecutor",
    "System",
    "build_client",
    "build_system",
    "execute",
    "execute_payload",
    "fanout_seeds",
    "instantiate",
    "justify_violations",
    "mp_context",
    "parse_graph",
    "progress_sample",
    "resumable_map",
    "spec_hash",
]
