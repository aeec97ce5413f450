"""Deterministic microbench harness for the simulation substrate.

Each *workload* is a named builder of complete, seeded simulation runs;
the harness repeatedly builds and runs them (construction excluded from
the timed region) until a wall-clock budget is spent, then reports
aggregate event throughput.  All workloads are pure functions of fixed
seeds, so two builds of the same tree measure the same work — only the
speed differs.

Workloads:

``chaos_counters``
    The headline number: chaos-campaign runs (randomized topology,
    link faults, partitions, crashes, transport) executed under the
    ``counters`` trace — the shape long perf runs use, where engine
    hot-path cost dominates because no row is kept.
``engine_steps``
    Step scheduling and action dispatch in isolation: processes with a
    never-enabled action and no traffic.
``message_flood``
    Network send/deliver saturation: a ring of chatter components that
    send on every step over fixed delays.
``dining_full``
    An end-to-end wf-ewx dining run with a crash, full trace retention,
    and convergence probes — the interactive / test-suite shape.
``sparse_rgg``
    A large-n (256 diners) random-geometric run under conflict-graph-local
    pair selection (``pairs=neighbors``) and a ``counters`` trace — the
    sparse-topology campaign shape; the full events/sec-vs-n curve lives
    in :mod:`repro.perf.scaling` (``BENCH_scaling.json``).
``dining_obs_off`` / ``dining_spans``
    The observability-overhead pair around ``dining_full``: the same run
    with the metrics registry and probes disabled (``obs=False``), and
    with span tracing added on top (``spans=True``).  Comparing the three
    bounds what metrics and span collection cost; the committed
    ``BENCH_obs.json`` carries their baseline events/sec so CI can gate
    the span-probe overhead (``repro bench --check --baseline
    benchmarks/results/BENCH_obs.json``).

The JSON artifact (``benchmarks/results/BENCH_engine.json``) carries the
current numbers plus the committed pre-optimization baseline and the
resulting speedups, so the perf trajectory is machine-checkable
(``repro bench --check`` fails on a > ``--max-regression`` slowdown; CI
runs exactly that on a tiny budget).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.component import Component, action, receive

BENCH_SCHEMA = "repro.bench.engine.v1"

#: Default location of the committed pre-optimization numbers.
BASELINE_PATH = (pathlib.Path(__file__).resolve().parents[3]
                 / "benchmarks" / "results" / "BENCH_engine_baseline.json")


@dataclass(frozen=True)
class WorkloadResult:
    """Aggregate outcome of repeatedly running one workload."""

    name: str
    runs: int
    events: int
    wall_seconds: float

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "runs": self.runs,
            "events": self.events,
            "wall_seconds": round(self.wall_seconds, 4),
            "events_per_sec": round(self.events_per_sec, 1),
        }


# -- workload builders --------------------------------------------------------
#
# A builder returns a zero-arg runner; calling the runner executes the
# (freshly built) simulation and returns the number of events processed.
# Builders take an iteration index so successive runs can rotate through
# a fixed seed list — deterministic, but not a single cache-warm seed.


def _build_chaos_counters(i: int) -> Callable[[], int]:
    from repro.chaos import ChaosConfig, build_run
    from repro.runtime.builder import instantiate

    seeds = (2885616951, 1824804496, 2385331485, 3373332282)
    cfg = ChaosConfig()
    spec = dataclasses.replace(build_run(seeds[i % len(seeds)], cfg),
                               trace="counters")
    built = instantiate(spec)

    def run() -> int:
        built.engine.run()
        return built.engine.events_processed

    return run


def _build_engine_steps(i: int) -> Callable[[], int]:
    from repro.sim import Engine, FixedDelays, SimConfig
    from repro.sim.component import FunctionalComponent

    eng = Engine(SimConfig(seed=100 + i, max_time=1e9),
                 delay_model=FixedDelays(1.0))
    for p in range(8):
        eng.add_process(f"p{p}").add_component(
            FunctionalComponent(
                "idle", internal=[("noop", lambda c: False, lambda: None)]))

    def run() -> int:
        eng.run(until=800.0)
        return eng.events_processed

    return run


class _Chatter(Component):
    """Send a gossip message to the ring neighbour on every step."""

    def __init__(self, peer: str) -> None:
        super().__init__("chat")
        self.peer = peer

    @action(guard=lambda self: True)
    def talk(self) -> None:
        self.send(self.peer, "chat", "gossip")

    @receive("gossip")
    def on_gossip(self, msg) -> None:
        pass


def _build_message_flood(i: int) -> Callable[[], int]:
    from repro.sim import Engine, FixedDelays, SimConfig

    eng = Engine(SimConfig(seed=200 + i, max_time=1e9),
                 delay_model=FixedDelays(1.0))
    n = 6
    pids = [f"p{p}" for p in range(n)]
    for pid in pids:
        eng.add_process(pid)
    for p, pid in enumerate(pids):
        eng.processes[pid].add_component(_Chatter(pids[(p + 1) % n]))

    def run() -> int:
        eng.run(until=250.0)
        return eng.events_processed

    return run


def _build_dining_full(i: int) -> Callable[[], int]:
    from repro.runtime.builder import instantiate
    from repro.runtime.spec import RunSpec

    spec = RunSpec(name="bench-dining", graph="ring:4", seed=42 + i,
                   max_time=500.0, crashes={"p1": 180.0})
    built = instantiate(spec)

    def run() -> int:
        built.engine.run()
        return built.engine.events_processed

    return run


def _build_dining_obs_off(i: int) -> Callable[[], int]:
    from repro.runtime.builder import instantiate
    from repro.runtime.spec import RunSpec

    spec = RunSpec(name="bench-dining", graph="ring:4", seed=42 + i,
                   max_time=500.0, crashes={"p1": 180.0}, obs=False)
    built = instantiate(spec)

    def run() -> int:
        built.engine.run()
        return built.engine.events_processed

    return run


def _build_dining_spans(i: int) -> Callable[[], int]:
    from repro.runtime.builder import instantiate
    from repro.runtime.spec import RunSpec

    spec = RunSpec(name="bench-dining", graph="ring:4", seed=42 + i,
                   max_time=500.0, crashes={"p1": 180.0}, spans=True)
    built = instantiate(spec)

    def run() -> int:
        built.engine.run()
        return built.engine.events_processed

    return run


def _build_sparse_rgg(i: int) -> Callable[[], int]:
    from repro.perf.scaling import rgg_spec
    from repro.runtime.builder import instantiate
    from repro.runtime.spec import RunSpec

    # A large-n sparse point under conflict-graph-local monitoring — the
    # shape big campaigns run in (see repro.perf.scaling for the full
    # events/sec-vs-n curve).  Degree 6 and possibly disconnected: the
    # graphs the frozen baseline entry was measured on.
    spec = RunSpec(name="bench-sparse",
                   graph=rgg_spec(256, seed=7 + i, target_degree=6.0),
                   seed=7 + i, max_time=60.0, pairs="neighbors",
                   trace="counters", allow_disconnected=True)
    built = instantiate(spec)

    def run() -> int:
        built.engine.run()
        return built.engine.events_processed

    return run


WORKLOADS: dict[str, Callable[[int], Callable[[], int]]] = {
    "chaos_counters": _build_chaos_counters,
    "engine_steps": _build_engine_steps,
    "message_flood": _build_message_flood,
    "dining_full": _build_dining_full,
    "dining_obs_off": _build_dining_obs_off,
    "dining_spans": _build_dining_spans,
    "sparse_rgg": _build_sparse_rgg,
}


# -- the harness --------------------------------------------------------------


def run_workload(name: str, budget: float = 1.5,
                 min_runs: int = 2) -> WorkloadResult:
    """Build-and-run ``name`` until ``budget`` timed seconds are spent.

    Construction is excluded from the timed region; at least ``min_runs``
    runs always execute so tiny budgets still measure something.
    """
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown bench workload {name!r} "
            f"(available: {', '.join(sorted(WORKLOADS))})") from None
    runs = 0
    events = 0
    wall = 0.0
    while runs < min_runs or wall < budget:
        runner = builder(runs)
        t0 = time.perf_counter()
        events += runner()
        wall += time.perf_counter() - t0
        runs += 1
    return WorkloadResult(name=name, runs=runs, events=events,
                          wall_seconds=wall)


def run_bench(names: Sequence[str] | None = None, budget: float = 1.5,
              min_runs: int = 2) -> list[WorkloadResult]:
    """Run the named workloads (default: all) with ``budget`` seconds each."""
    return [run_workload(name, budget=budget, min_runs=min_runs)
            for name in (names or list(WORKLOADS))]


# -- baseline comparison and the JSON artifact --------------------------------


def load_baseline(path: "str | pathlib.Path | None" = None) -> Optional[dict]:
    """The committed baseline numbers.

    With no explicit path, a missing default baseline is a soft ``None``
    (fresh checkouts simply have nothing to compare against).  An
    *explicitly requested* baseline that is missing or malformed is a
    :class:`ConfigurationError` — the caller named a file and deserves a
    one-line actionable failure, not a silent no-comparison run.
    """
    p = pathlib.Path(path) if path is not None else BASELINE_PATH
    if not p.exists():
        if path is not None:
            raise ConfigurationError(
                f"baseline {p} does not exist (pass --baseline PATH to an "
                "existing BENCH_engine.json-shaped file)")
        return None
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read baseline {p}: {exc}") from exc


def _baseline_eps(baseline: Mapping[str, Any], name: str) -> Optional[float]:
    for row in baseline.get("workloads", ()):
        if row.get("name") == name:
            return row.get("events_per_sec")
    return None


def compare_to_baseline(
    results: Sequence[WorkloadResult],
    baseline: Optional[Mapping[str, Any]],
) -> dict[str, Optional[float]]:
    """Per-workload speedup vs. the baseline (None when not comparable)."""
    out: dict[str, Optional[float]] = {}
    for res in results:
        before = None if baseline is None else _baseline_eps(baseline,
                                                             res.name)
        out[res.name] = (None if not before
                         else round(res.events_per_sec / before, 3))
    return out


def emit_report(
    results: Sequence[WorkloadResult],
    baseline: Optional[Mapping[str, Any]] = None,
    out: "str | pathlib.Path | None" = None,
) -> dict[str, Any]:
    """Build (and optionally write) the ``BENCH_engine.json`` payload."""
    speedups = compare_to_baseline(results, baseline)
    payload: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "workloads": [r.to_dict() for r in results],
        "baseline": None if baseline is None else {
            "schema": baseline.get("schema"),
            "workloads": baseline.get("workloads"),
        },
        "speedup_vs_baseline": speedups,
    }
    if out is not None:
        path = pathlib.Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    return payload


def check_regressions(
    results: Sequence[WorkloadResult],
    baseline: Optional[Mapping[str, Any]],
    max_regression: float = 3.0,
) -> list[str]:
    """Workloads slower than ``baseline / max_regression``; [] = healthy.

    Tolerant by design: bench hosts (CI runners especially) vary widely,
    so only an order-of-magnitude-ish collapse should fail the build.
    """
    if max_regression <= 0:
        raise ConfigurationError("max_regression must be positive")
    failures = []
    for res in results:
        before = None if baseline is None else _baseline_eps(baseline,
                                                             res.name)
        if not before:
            continue
        floor = before / max_regression
        if res.events_per_sec < floor:
            failures.append(
                f"{res.name}: {res.events_per_sec:.0f} events/sec < "
                f"{floor:.0f} (baseline {before:.0f} / {max_regression:g})")
    return failures


def render_results(results: Sequence[WorkloadResult],
                   speedups: Mapping[str, Optional[float]]) -> str:
    """Human-readable bench table."""
    lines = [f"{'workload':<16} {'runs':>5} {'events':>10} "
             f"{'wall s':>8} {'events/sec':>12} {'vs baseline':>12}"]
    for res in results:
        spd = speedups.get(res.name)
        lines.append(
            f"{res.name:<16} {res.runs:>5} {res.events:>10} "
            f"{res.wall_seconds:>8.3f} {res.events_per_sec:>12.0f} "
            f"{('%.2fx' % spd) if spd else '-':>12}")
    return "\n".join(lines)
