"""The ledger's estimator: set-up, warm-up, timed repetitions, attribution.

One process generates all load.  A workload is *prepared* (fixtures; the
set-up is repeated to take its median), run once as a discarded warm-up,
then repeated with ``gc.collect()`` before each repetition until the time
budget is spent.  The operation wall reported is that of the fastest
repetition (its median, where a repetition holds many requests): on the
reference box slow episodes lasting seconds to minutes shift whole
repetitions by 15-70 %, always upwards, and the median over repetitions
moved with them.  Every operation is verified and counted as
attempted/failed.  A traced pass (:mod:`tracing`) follows the untraced one
when asked for and yields the per-layer numbers; end-to-end numbers only
ever come from the untraced pass.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from .tracing import STEP_LAYERS, Tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS_DIR = HERE / "results"
#: Stores, journals and child results live here — inside the checkout,
#: never /tmp: the benchmark reads and writes only below its own directory.
SCRATCH = HERE / "tmp"
RESULT_SCHEMA = "ledger.result.v1"

#: Set-up is repeated until this many samples exist or this much wall has
#: gone into it, whichever comes first (a 10^4-entry store is seeded once).
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 1.5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Scale:
    """The shape of every workload.  ``full`` is the benchmark; ``tiny``
    exists so the smoke test can drive every code path in seconds."""

    name: str
    campaigns: int
    sparse_graph: str
    sparse_max_time: float
    small_graph: str
    small_max_time: float
    lattice_seeds: int
    miss_batch: int
    hit_batch: int
    hit_keys: int
    store_entries: int
    executor_probe_tasks: int
    min_reps: int


SCALES = {
    "full": Scale("full", campaigns=32,
                  sparse_graph="rgg:1000:0.0564:8", sparse_max_time=120.0,
                  small_graph="rgg:16:0.4607:8", small_max_time=7500.0,
                  lattice_seeds=4, miss_batch=25, hit_batch=250, hit_keys=50,
                  store_entries=10_000, executor_probe_tasks=200,
                  min_reps=3),
    "tiny": Scale("tiny", campaigns=3,
                  sparse_graph="rgg:60:0.25:8", sparse_max_time=30.0,
                  small_graph="rgg:16:0.4607:8", small_max_time=100.0,
                  lattice_seeds=1, miss_batch=4, hit_batch=12, hit_keys=4,
                  store_entries=200, executor_probe_tasks=8, min_reps=1),
}


@dataclass
class Rep:
    """One repetition: the wall of each operation in it, what was checked."""

    walls: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    #: ``runs`` and ``events`` delivered, plus workload-specific facts.
    facts: dict = field(default_factory=dict)
    #: Equal across repetitions of a workload that replays one input.
    fingerprint: Optional[str] = None
    wall: float = 0.0


class Context:
    """What a workload needs from the harness: inputs, scratch space and
    the (optional) tracer."""

    def __init__(self, seed: int, scale: Scale, tmp: pathlib.Path,
                 pins: dict) -> None:
        self.seed = seed
        self.scale = scale
        self.tmp = tmp
        self.pins = pins
        self.tracer: Optional[Tracer] = None
        self._dirs = 0

    def subdir(self, stem: str) -> pathlib.Path:
        self._dirs += 1
        path = self.tmp / f"{stem}-{self._dirs}"
        path.mkdir()
        return path

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    @contextlib.contextmanager
    def rep(self, rep: Rep):
        """The timed region of one repetition."""
        with self.span("rep"):
            t0 = time.perf_counter()
            try:
                yield
            finally:
                rep.wall += time.perf_counter() - t0


@dataclass
class Pass:
    reps: list

    @property
    def op_walls(self) -> list:
        return [w for rep in self.reps for w in rep.walls]

    @property
    def rep_walls(self) -> list:
        return [rep.wall for rep in self.reps]

    def rate(self, fact: str) -> float:
        """Median over repetitions of ``fact`` per wall second."""
        rates = [rep.facts.get(fact, 0) / rep.wall
                 for rep in self.reps if rep.wall > 0]
        return statistics.median(rates) if rates else 0.0

    def fact_mean(self, fact: str) -> float:
        values = [rep.facts[fact] for rep in self.reps if fact in rep.facts]
        return statistics.fmean(values) if values else 0.0


def run_pass(workload, ctx: Context, fx: Any, seconds: float) -> Pass:
    """Repeat the workload until ``seconds`` of wall are spent (at least
    ``min_reps`` times); a repetition that would mostly overshoot the
    budget is not started."""
    reps: list[Rep] = []
    t_start = time.perf_counter()
    while True:
        gc.collect()
        reps.append(workload.repeat(ctx, fx))
        elapsed = time.perf_counter() - t_start
        if len(reps) < ctx.scale.min_reps:
            continue
        if elapsed + 0.5 * elapsed / len(reps) > seconds:
            return Pass(reps)


def tail(walls: list) -> float:
    """The highest percentile with at least ten samples beyond it (p99 from
    1000 samples, p95 from 200, p90 from 100); 0 with fewer samples."""
    for q in (99, 95, 90):
        if len(walls) * (100 - q) / 100 >= 10:
            return statistics.quantiles(walls, n=100)[q - 1]
    return 0.0


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"python": platform.python_version(), "nproc": nproc(),
            "platform": platform.platform(), "git_commit": commit,
            "loadavg_1m_start": os.getloadavg()[0]}


# -- one workload, one process -------------------------------------------------


def measure(workload, *, seed: int, seconds: float, trace: bool,
            scale: Scale, pins: dict, import_s: float) -> dict:
    """Run one workload in this process and return its result document."""
    env = environment()
    if workload.workers > nproc():
        raise SystemExit(
            f"ledger: workload {workload.name} needs {workload.workers} "
            f"workers but only {nproc()} cpu(s) are available; refusing to "
            "oversubscribe the box")
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        ctx = Context(seed, scale, pathlib.Path(tmp), pins)
        setup_walls: list[float] = []
        fx = None
        try:
            while True:
                if fx is not None:
                    workload.release(fx)
                    fx = None
                t0 = time.perf_counter()
                fx = workload.prepare(ctx)
                setup_walls.append(time.perf_counter() - t0)
                if (len(setup_walls) >= SETUP_SAMPLES
                        or sum(setup_walls) >= SETUP_BUDGET_S):
                    break
            gc.collect()
            warm = workload.repeat(ctx, fx)
            untraced = run_pass(workload, ctx, fx,
                                seconds / 2 if trace else seconds)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            traced = layers = None
            if trace:
                traced, layers = _traced_pass(workload, ctx, fx, seconds / 2,
                                              untraced)
        finally:
            if fx is not None:
                workload.release(fx)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    reps = [warm] + untraced.reps + (traced.reps if traced else [])
    failures = [f for rep in reps for f in rep.failures]
    prints = {rep.fingerprint for rep in reps if rep.fingerprint is not None}
    if len(prints) > 1:
        failures.append(
            f"{workload.name}: repetitions of one input disagree "
            f"({len(prints)} distinct outputs)")
    attempted = sum(rep.attempted for rep in reps)
    op_walls = untraced.op_walls
    rep_medians = [statistics.median(rep.walls)
                   for rep in untraced.reps if rep.walls]
    return {
        "schema": RESULT_SCHEMA,
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale.name,
        "env": env,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "correct": not failures,
        "failures": failures[:20],
        "end_to_end": {
            "op_ms": {"value": min(rep_medians) * 1e3, "unit": "ms"},
            "setup_s": {"value": (import_s + statistics.median(setup_walls)
                                  + warm.wall), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
        "raw": {
            "operation": workload.op,
            "repetitions": len(untraced.reps),
            "op_samples": len(op_walls),
            "rep_walls_s": untraced.rep_walls,
            "rep_op_medians_s": rep_medians,
            "traced_rep_walls_s": traced.rep_walls if traced else [],
            "import_s": import_s,
            "setup_walls_s": setup_walls,
            "warmup_wall_s": warm.wall,
        },
        "facts": dict(untraced.reps[-1].facts),
        "per_layer": layers,
        "exact": ({name: layers[name] for name in EXACT_COUNTS}
                  if layers and workload.replays else {}),
    }


def _traced_pass(workload, ctx: Context, fx: Any, seconds: float,
                 untraced: Pass) -> "tuple[Pass, dict]":
    """Repeat the workload under the tracer; flush the spans to
    ``results/trace_<workload>.json`` and return the per-layer metrics."""
    extras = workload.probe(ctx, fx, untraced)
    tracer = Tracer(workload.name)
    ctx.tracer = tracer
    tracer.install()
    try:
        with tracer.span("workload:" + workload.name):
            traced = run_pass(workload, ctx, fx, seconds)
    finally:
        tracer.uninstall()
        ctx.tracer = None
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"trace_{workload.name}.json"
    out.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    return traced, per_layer(tracer, untraced, traced, extras)


def per_layer(tracer: Tracer, untraced: Pass, traced: Pass,
              extras: dict) -> dict:
    """Every per-layer metric, by name.  Times are self time per traced
    repetition; counts are per traced repetition and repeat exactly."""
    reps = len(traced.reps)
    self_s = tracer.self_time_by_name()
    calls = tracer.calls_by_name()
    c = tracer.counters

    def per_rep(name: str) -> float:
        return self_s.get(name, 0.0) / reps

    def count(name: str) -> float:
        return c.get(name, 0.0) / reps

    def median_ms(name: str) -> float:
        walls = tracer.durations(name)
        return statistics.median(walls) * 1e3 if walls else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    rep_wall = sum(tracer.durations("rep"))
    spec_check = per_rep("dining.spec.check")
    oracle_check = per_rep("oracles.properties.check")
    opened_k = c.get("store.entries_loaded", 0.0) / 1e3
    out = {
        "runs_per_s": untraced.rate("runs"),
        "events_per_s": untraced.rate("events"),
        "op_tail_ms": tail(untraced.op_walls) * 1e3,
        "graphs.parse_s": per_rep("graphs.parse"),
        "chaos.build_run_s": per_rep("chaos.build_run"),
        "chaos.check_invariants_s": per_rep("chaos.check_invariants"),
        "chaos.run_campaign_s": per_rep("chaos.run_campaign"),
        "builder.instantiate_s": per_rep("builder.instantiate"),
        "builder.judge_s": spec_check + oracle_check,
        "dining.spec.check_s": spec_check,
        "oracles.properties.check_s": oracle_check,
        "engine.run_s": per_rep("engine.run"),
        "engine.events": count("engine.events"),
        "engine.us_per_event": ratio(self_s.get("engine.run", 0.0) * 1e6,
                                     c.get("engine.events", 0.0)),
        "process.steps": count("process.steps"),
        "process.step_s": count("process.step_s"),
        "process.idle_step_ratio": ratio(c.get("process.idle_steps", 0.0),
                                         c.get("process.steps", 0.0)),
        "process.actions_mean": ratio(c.get("process.actions", 0.0),
                                      c.get("process.steps", 0.0)),
        **{f"{layer}.step_s": count(f"{layer}.step_s")
           for layer in STEP_LAYERS},
        "network.sent": count("network.sent"),
        "network.delivered": count("network.delivered"),
        "network.dropped": count("network.dropped"),
        "network.duplicated": count("network.duplicated"),
        "network.useful_ratio": ratio(c.get("network.delivered", 0.0),
                                      c.get("network.sent", 0.0)),
        "network.send_s": count("network.send_s"),
        "transport.retransmissions": count("transport.retransmissions"),
        "transport.acks_sent": count("transport.acks_sent"),
        "trace.records": count("trace.records"),
        "obs.collect_metrics_s": per_rep("obs.collect_metrics"),
        "encoding.payload_s": per_rep("encoding.payload"),
        "encoding.payload_bytes": traced.fact_mean("payload_bytes"),
        "executor.map_s": per_rep("executor.map"),
        "store.spec_hash_s": per_rep("store.spec_hash"),
        "store.put_s": per_rep("store.put"),
        "store.puts": calls.get("store.put", 0) / reps,
        "store.get_s": per_rep("store.get"),
        "store.hits": traced.fact_mean("store_hits"),
        "store.misses": traced.fact_mean("store_misses"),
        "store.open_s": per_rep("store.open"),
        "store.open_s_per_k_entries": ratio(self_s.get("store.open", 0.0),
                                            opened_k),
        "store.decode_s": per_rep("store.decode"),
        "service.post_ack_ms": median_ms("service.post_ack"),
        "service.queue_to_done_ms": median_ms("service.queue_to_done"),
        "service.fetch_ms": median_ms("service.fetch"),
        "lattice.matrix_s": per_rep("lattice.compare") + per_rep(
            "lattice.cell"),
        "trace.overhead": ratio(statistics.median(traced.rep_walls),
                                statistics.median(untraced.rep_walls)) - 1.0,
        "trace.attributed_share": 1.0 - ratio(self_s.get("rep", 0.0),
                                              rep_wall),
    }
    for name in EXTRA_PER_LAYER:
        out[name] = float(extras.get(name, 0.0))
    return out


#: Per-layer numbers a workload's ``probe`` supplies (0 on the others).
EXTRA_PER_LAYER = (
    "scale_ratio", "events_per_s_n16", "engine.us_per_event_n16",
    "executor.spawn_s", "executor.per_task_ipc_us",
    "executor.result_pickle_bytes", "executor.parallel_efficiency",
    "executor.incidents", "service.http_rtt_ms", "service.hit_ratio",
)

#: Counts made by the program that repeat bit for bit on a workload that
#: replays one input: comparable across commits as counts.
EXACT_COUNTS = (
    "engine.events", "process.steps", "network.sent", "network.delivered",
    "network.dropped", "network.duplicated", "transport.retransmissions",
    "transport.acks_sent", "trace.records", "store.puts", "store.hits",
    "store.misses",
)

def bootstrap_paths() -> None:
    """Make ``repro`` importable from a bare checkout (no PYTHONPATH)."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
