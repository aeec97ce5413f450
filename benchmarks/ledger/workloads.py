"""The ledger's workloads: every public front door, one operation each.

Each workload drives the program only through what a user would call —
``repro.chaos.run_campaign``, ``repro.run``, ``repro.compare``,
``EmbeddedService`` + ``Client``, ``ResultStore`` — with inputs generated
from the seed, verifies every output, and reports the wall of each
operation.  Why each exists is recorded in BENCHMARK.json and README.md: a
workload stays only while some layer's cost shows on it and on no other.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import statistics
import time
from typing import Any

import networkx as nx

import repro
import repro.chaos as chaos
from repro.obs.exporters import dumps_record
from repro.runtime.executor import SupervisedExecutor
from repro.runtime.spec import RunSpec, parse_graph
from repro.runtime.store import ResultStore, spec_hash
from repro.service import (
    Client,
    EmbeddedService,
    ServiceConfig,
    ServiceError,
    execute_spec_payload,
    payload_bytes,
)

from .harness import Context, Pass, Rep
from .tracing import Tracer

#: A chaos campaign can legitimately contain a run whose detector has not
#: converged by the horizon (about one campaign seed in fifteen).  Such a
#: verdict is a true output, but the ledger needs inputs on which nothing
#: fails, so a campaign seed is settled in set-up: the first of
#: ``seed, seed + STRIDE, ...`` whose serial campaign is all-ok.
SEED_STRIDE = 1_000_003
SEED_CANDIDATES = 4


def _digest(doc: Any) -> str:
    return hashlib.sha256(dumps_record(doc).encode("utf-8")).hexdigest()


def _noop(x: int) -> int:
    return x


class Workload:
    name = ""
    #: What one timed operation is (the unit of ``op_ms``).
    op = ""
    #: Processes or connections that generate or carry load at once.
    workers = 1
    #: True when every repetition replays the same input, so counts made
    #: by the program repeat exactly and may be compared across commits.
    replays = True

    def prepare(self, ctx: Context) -> Any:
        return None

    def release(self, fx: Any) -> None:
        pass

    def repeat(self, ctx: Context, fx: Any) -> Rep:
        raise NotImplementedError

    def probe(self, ctx: Context, fx: Any, untraced: Pass) -> dict:
        """Untraced extras for the per-layer report (trace runs only)."""
        return {}


# -- chaos campaigns -----------------------------------------------------------


@dataclasses.dataclass
class CampaignFixture:
    cfg: chaos.ChaosConfig
    reference: str  # digest of the serial campaign's to_json()
    events: int
    store_path: str = ""


def _campaign_events(result: chaos.CampaignResult) -> int:
    return sum(int(v.run_record()["summary"]["events_processed"])
               for v in result.verdicts)


def _settle_campaign(ctx: Context, store_dir: bool = False) -> CampaignFixture:
    """Pick the campaign seed (see SEED_STRIDE) and keep the serial
    campaign's output as the reference every repetition must reproduce."""
    for k in range(SEED_CANDIDATES):
        cfg = chaos.ChaosConfig(campaigns=ctx.scale.campaigns,
                                seed=ctx.seed + k * SEED_STRIDE)
        path = str(ctx.subdir("store") / "store.jsonl") if store_dir else ""
        result = chaos.run_campaign(
            cfg, store=ResultStore(path) if store_dir else None)
        if result.ok:
            return CampaignFixture(cfg, _digest(result.to_json()),
                                   _campaign_events(result), path)
    raise SystemExit(
        f"ledger: no all-ok chaos campaign among {SEED_CANDIDATES} "
        f"candidate seeds from {ctx.seed}; the program's verdicts are broken")


def _judge_campaign(rep: Rep, fx: CampaignFixture,
                    result: chaos.CampaignResult, label: str) -> None:
    rep.attempted += len(result.verdicts)
    for v in result.failed:
        rep.failures.append(f"{label}: run {v.run_seed} not ok: "
                            f"{'; '.join(v.failures)}")
    rep.fingerprint = _digest(result.to_json())
    if rep.fingerprint != fx.reference:
        rep.failures.append(f"{label}: to_json() differs from the serial "
                            "reference campaign")
    rep.facts.update(runs=len(result.verdicts), events=fx.events)


class ChaosCampaign(Workload):
    name = "chaos_campaign"
    op = "run_campaign(ChaosConfig(campaigns=32, seed=S), workers=1)"

    def prepare(self, ctx: Context) -> CampaignFixture:
        return _settle_campaign(ctx)

    def repeat(self, ctx: Context, fx: CampaignFixture) -> Rep:
        rep = Rep()
        executor = SupervisedExecutor(workers=self.workers)
        with ctx.rep(rep):
            result = chaos.run_campaign(fx.cfg, executor=executor)
        rep.walls.append(rep.wall)
        _judge_campaign(rep, fx, result, self.name)
        stats = executor.stats()
        incidents = sum(stats.get(f"executor.{kind}", 0) for kind in
                        ("retries", "timeouts", "worker_crashes",
                         "inline_fallbacks"))
        if incidents:
            rep.failures.append(f"{self.name}: {incidents:g} executor "
                                "incident(s)")
        rep.facts["executor_incidents"] = incidents
        return rep


class ChaosCampaignW2(ChaosCampaign):
    name = "chaos_campaign_w2"
    op = "run_campaign(ChaosConfig(campaigns=32, seed=S), workers=2)"
    workers = 2

    def probe(self, ctx: Context, fx: CampaignFixture,
              untraced: Pass) -> dict:
        tasks = list(range(ctx.scale.executor_probe_tasks))
        t0 = time.perf_counter()
        SupervisedExecutor(workers=self.workers).map(_noop, tasks)
        pooled = time.perf_counter() - t0
        t0 = time.perf_counter()
        SupervisedExecutor(workers=1).map(_noop, tasks)
        inline = time.perf_counter() - t0
        t0 = time.perf_counter()
        SupervisedExecutor(workers=self.workers).map(_noop, tasks[:2])
        spawn = time.perf_counter() - t0
        verdict = chaos.run_one(
            0, chaos.fanout_seeds(fx.cfg.seed, 1)[0], fx.cfg)
        verdict.report.detach_trace()
        t0 = time.perf_counter()
        chaos.run_campaign(fx.cfg, workers=1)
        serial = time.perf_counter() - t0
        w2 = statistics.median(untraced.rep_walls)
        return {
            "executor.spawn_s": spawn,
            "executor.per_task_ipc_us": (pooled - inline) / len(tasks) * 1e6,
            "executor.result_pickle_bytes": len(pickle.dumps(verdict)),
            "executor.parallel_efficiency": serial / (self.workers * w2),
            "executor.incidents": untraced.fact_mean("executor_incidents"),
        }


# -- one large sparse run --------------------------------------------------------


@dataclasses.dataclass
class SparseFixture:
    spec: RunSpec
    small: RunSpec


def _graph_facts(spec: str) -> dict:
    graph = parse_graph(spec)
    n = graph.number_of_nodes()
    return {"graph": spec, "nodes": n,
            "components": nx.number_connected_components(graph),
            "mean_degree": round(2 * graph.number_of_edges() / n, 3)}


def _run_counts(result: Any) -> dict:
    m = result.metrics
    return {"events": int(m.events_processed),
            "steps": int(sum(m.steps_by_process.values())),
            "messages_sent": int(m.messages_sent)}


class SparseScale(Workload):
    name = "sparse_scale"
    op = ("repro.run(RunSpec(graph='rgg:1000:0.0564:8', seed=S, "
          "max_time=120, pairs='neighbors', trace='counters')), "
          "construction included")

    def _spec(self, graph: str, max_time: float, seed: int) -> RunSpec:
        return RunSpec(graph=graph, seed=seed, max_time=max_time,
                       pairs="neighbors", trace="counters")

    def prepare(self, ctx: Context) -> SparseFixture:
        scale = ctx.scale
        pins = ctx.pins[self.name][scale.name]
        for key, graph in (("graph", scale.sparse_graph),
                           ("small_graph", scale.small_graph)):
            facts = _graph_facts(graph)
            if facts != pins[key]:
                raise SystemExit(
                    f"ledger: {graph} is not the pinned topology: built "
                    f"{facts}, pinned {pins[key]}")
            if facts["components"] != 1:
                raise SystemExit(f"ledger: {graph} is disconnected")
        return SparseFixture(
            self._spec(scale.sparse_graph, scale.sparse_max_time, ctx.seed),
            self._spec(scale.small_graph, scale.small_max_time, ctx.seed))

    def repeat(self, ctx: Context, fx: SparseFixture) -> Rep:
        rep = Rep(attempted=1)
        with ctx.rep(rep), ctx.span("builder.execute"):
            result = repro.run(fx.spec)
        rep.walls.append(rep.wall)
        counts = _run_counts(result)
        rep.facts.update(runs=1, **counts)
        rep.fingerprint = _digest(counts)
        pins = ctx.pins[self.name][ctx.scale.name]
        if ctx.seed == pins["seed"] and counts != pins["counts"]:
            rep.failures.append(
                f"{self.name}: simulated counts {counts} differ from the "
                f"pinned {pins['counts']} for seed {ctx.seed}")
        return rep

    def probe(self, ctx: Context, fx: SparseFixture, untraced: Pass) -> dict:
        """The same-degree n=16 run to a matching event budget: what the
        n=1000 per-event cost is compared against."""
        repro.run(fx.small)
        rates = []
        for _ in range(2):
            t0 = time.perf_counter()
            events = _run_counts(repro.run(fx.small))["events"]
            rates.append(events / (time.perf_counter() - t0))
        small_rate = sum(rates) / len(rates)
        tracer = Tracer(self.name + ":n16")
        tracer.install()
        try:
            repro.run(fx.small)
        finally:
            tracer.uninstall()
        return {
            "events_per_s_n16": small_rate,
            "scale_ratio": untraced.rate("events") / small_rate,
            "engine.us_per_event_n16": (
                tracer.self_time_by_name()["engine.run"] * 1e6
                / tracer.counters["engine.events"]),
        }


# -- the detector lattice --------------------------------------------------------


class LatticeMatrix(Workload):
    name = "lattice_matrix"
    op = "repro.compare(graphs=('ring:4',), seeds=4, seed=S)"

    def _compare(self, ctx: Context, seed: int, on_result=None):
        with ctx.span("lattice.compare"):
            return repro.compare(graphs=("ring:4",),
                                 seeds=ctx.scale.lattice_seeds, seed=seed,
                                 on_result=on_result)

    def _failures(self, matrix: Any) -> list:
        out = []
        good = matrix.row("eventually_perfect")
        if not good.ewx_ok:
            out.append(f"{self.name}: eventually_perfect fails eventual "
                       f"weak exclusion on {len(good.ewx_failures())} seed(s)")
        flawed = matrix.row("flawed_cm")
        if flawed.ewx_ok and flawed.accuracy_ok:
            out.append(f"{self.name}: flawed_cm is not flagged")
        return out

    def prepare(self, ctx: Context) -> dict:
        for k in range(SEED_CANDIDATES):
            seed = ctx.seed + k * SEED_STRIDE
            events = []
            matrix = self._compare(
                ctx, seed, lambda _d, _i, verdict, _c: events.append(
                    verdict.run_record()["summary"]["events_processed"]))
            if not self._failures(matrix):
                return {"seed": seed, "events": int(sum(events)),
                        "reference": _digest(matrix.to_records())}
        raise SystemExit(
            f"ledger: the lattice verdict fails on {SEED_CANDIDATES} "
            f"candidate seeds from {ctx.seed}")

    def repeat(self, ctx: Context, fx: dict) -> Rep:
        rep = Rep()
        with ctx.rep(rep):
            matrix = self._compare(ctx, fx["seed"])
        rep.walls.append(rep.wall)
        runs = sum(len(row.cells) for row in matrix.rows)
        rep.attempted = runs
        rep.failures.extend(self._failures(matrix))
        rep.fingerprint = _digest(matrix.to_records())
        if rep.fingerprint != fx["reference"]:
            rep.failures.append(f"{self.name}: matrix differs from the "
                                "set-up reference")
        rep.facts.update(runs=runs, events=fx["events"])
        return rep


# -- the service -----------------------------------------------------------------


class ServiceFixture:
    def __init__(self, ctx: Context) -> None:
        root = ctx.subdir("service")
        self.svc = EmbeddedService(ServiceConfig(
            store_path=str(root / "store.jsonl"), port=0, workers=1))
        host, port = self.svc.start()
        self.client = Client(host, port)
        self.seed = ctx.seed
        self.submitted = 0
        #: ``(spec, expected result bytes)`` of the specs a hit replays.
        self.stored: list = []
        self._counted = {"store_hits": 0.0, "store_misses": 0.0}

    def fresh_spec(self) -> dict:
        """A spec this service has never seen."""
        self.submitted += 1
        return {"graph": "ring:4", "max_time": 300,
                "seed": self.seed * 1_000_000 + self.submitted}

    def store_counts(self) -> dict:
        """Store hits and misses since the previous call."""
        stats = self.svc.service.store.stats()
        now = {"store_hits": stats.get("store.hits", 0.0),
               "store_misses": stats.get("store.misses", 0.0)}
        delta = {k: now[k] - self._counted[k] for k in now}
        self._counted = now
        return delta

    def hit_ratio(self) -> float:
        for line in self.client.metrics().splitlines():
            if line.startswith("repro_service_cache_hit_ratio"):
                return float(line.split()[-1])
        return 0.0


def _miss(ctx: Context, fx: ServiceFixture, rep: Rep, spec: dict) -> bytes:
    """Submit an unseen spec, wait for the job's SSE ``end``, fetch the
    result.  SSE, not polling: a poll interval would quantise the wall."""
    client = fx.client
    rep.attempted += 1
    t0 = time.perf_counter()
    try:
        with ctx.span("service.post_ack"):
            sub = client.submit_run(spec)
        if sub["cached"]:
            rep.failures.append(f"miss: unseen spec {spec} answered cached")
            return b""
        end = None
        with ctx.span("service.queue_to_done"):
            for end in client.events(sub["job"]):
                pass
        with ctx.span("service.fetch"):
            body = client.result_bytes(sub["spec_key"])
    except ServiceError as exc:
        rep.failures.append(f"miss: {exc}")
        return b""
    rep.walls.append(time.perf_counter() - t0)
    if not end or end.get("event") != "end" or end.get("state") != "done":
        rep.failures.append(f"miss: job {sub['job']} ended as {end}")
    return body


class _ServiceWorkload(Workload):
    replays = False

    def release(self, fx: ServiceFixture) -> None:
        fx.svc.shutdown()

    def probe(self, ctx: Context, fx: ServiceFixture, untraced: Pass) -> dict:
        """The HTTP floor: ``GET /healthz`` does no work behind the parser."""
        walls = []
        for _ in range(50):
            t0 = time.perf_counter()
            fx.client.health()
            walls.append(time.perf_counter() - t0)
        return {"service.http_rtt_ms": statistics.median(walls) * 1e3,
                "service.hit_ratio": fx.hit_ratio()}


class ServiceMiss(_ServiceWorkload):
    name = "service_miss"
    op = "submit_run(unseen spec) -> SSE end -> result_bytes"
    #: One request in this many is re-executed locally and compared byte
    #: for byte; doing it for all would double the run.
    verify_every = 8

    def prepare(self, ctx: Context) -> ServiceFixture:
        return ServiceFixture(ctx)

    def repeat(self, ctx: Context, fx: ServiceFixture) -> Rep:
        rep = Rep()
        specs = [fx.fresh_spec() for _ in range(ctx.scale.miss_batch)]
        bodies = []
        with ctx.rep(rep):
            for spec in specs:
                bodies.append(_miss(ctx, fx, rep, spec))
        events = 0
        for i, (spec, body) in enumerate(zip(specs, bodies)):
            if not body:
                continue
            summary = json.loads(body)["record"]["summary"]
            events += summary["events_processed"]
            if summary["seed"] != spec["seed"]:
                rep.failures.append(f"miss: result of seed {spec['seed']} "
                                    f"carries seed {summary['seed']}")
            if i % self.verify_every == 0 and body != payload_bytes(
                    execute_spec_payload(spec)):
                rep.failures.append(f"miss: result bytes of {spec} differ "
                                    "from local execution")
        rep.facts.update(runs=len(rep.walls), events=events,
                         payload_bytes=sum(map(len, bodies)) / len(bodies),
                         **fx.store_counts())
        return rep


class ServiceHit(_ServiceWorkload):
    name = "service_hit"
    op = "submit_run(stored spec) answered cached -> result_bytes"

    def prepare(self, ctx: Context) -> ServiceFixture:
        fx = ServiceFixture(ctx)
        filler = Rep()
        for _ in range(ctx.scale.hit_keys):
            spec = fx.fresh_spec()
            body = _miss(ctx, fx, filler, spec)
            fx.stored.append((spec, payload_bytes(execute_spec_payload(spec))))
            if body != fx.stored[-1][1]:
                filler.failures.append(f"stored bytes of {spec} differ from "
                                       "local execution")
        if filler.failures:
            fx.svc.shutdown()
            raise SystemExit("ledger: could not fill the service store: "
                             + "; ".join(filler.failures[:3]))
        return fx

    def repeat(self, ctx: Context, fx: ServiceFixture) -> Rep:
        rep = Rep()
        client = fx.client
        with ctx.rep(rep):
            for i in range(ctx.scale.hit_batch):
                spec, expected = fx.stored[i % len(fx.stored)]
                rep.attempted += 1
                t0 = time.perf_counter()
                try:
                    with ctx.span("service.post_ack"):
                        sub = client.submit_run(spec)
                    with ctx.span("service.fetch"):
                        body = client.result_bytes(sub["spec_key"])
                except ServiceError as exc:
                    rep.failures.append(f"hit: {exc}")
                    continue
                rep.walls.append(time.perf_counter() - t0)
                if not sub["cached"]:
                    rep.failures.append(f"hit: stored spec {spec} not cached")
                if body != expected:
                    rep.failures.append(f"hit: result bytes of {spec} "
                                        "differ from local execution")
        rep.facts.update(runs=len(rep.walls), events=0,
                         payload_bytes=len(fx.stored[0][1]),
                         **fx.store_counts())
        return rep


# -- the store -------------------------------------------------------------------


class StoreResume(Workload):
    name = "store_resume"
    op = ("ResultStore(path) + run_campaign(cfg32, store=..., resume=True), "
          "all hits")

    def prepare(self, ctx: Context) -> CampaignFixture:
        return _settle_campaign(ctx, store_dir=True)

    def repeat(self, ctx: Context, fx: CampaignFixture) -> Rep:
        rep = Rep()
        with ctx.rep(rep):
            store = ResultStore(fx.store_path)
            result = chaos.run_campaign(fx.cfg, store=store, resume=True)
        rep.walls.append(rep.wall)
        _judge_campaign(rep, fx, result, self.name)
        stats = store.stats()
        hits, misses = stats.get("store.hits", 0), stats.get("store.misses", 0)
        if hits != fx.cfg.campaigns or misses:
            rep.failures.append(f"{self.name}: {hits:g} hits and {misses:g} "
                                f"misses, expected {fx.cfg.campaigns} and 0")
        rep.facts.update(events=0, store_hits=hits, store_misses=misses)
        return rep


class StoreOpen(Workload):
    name = "store_open"
    op = "ResultStore(path) on a 10^4-entry store"
    #: Distinct real payloads the entries cycle through.
    payloads = 8

    def prepare(self, ctx: Context) -> dict:
        path = str(ctx.subdir("bigstore") / "store.jsonl")
        store = ResultStore(path)
        specs = [RunSpec(graph="ring:4", max_time=300, seed=ctx.seed + i)
                 for i in range(ctx.scale.store_entries)]
        payloads = [execute_spec_payload(dataclasses.asdict(spec))
                    for spec in specs[:self.payloads]]
        keys = [spec_hash(spec) for spec in specs]
        for i, key in enumerate(keys):
            store.put(key, {**payloads[i % self.payloads], "spec_key": key})
        return {"path": path, "keys": keys, "payloads": payloads}

    def repeat(self, ctx: Context, fx: dict) -> Rep:
        rep = Rep(attempted=1)
        with ctx.rep(rep):
            store = ResultStore(fx["path"])
        rep.walls.append(rep.wall)
        keys = fx["keys"]
        if len(store) != len(keys):
            rep.failures.append(f"{self.name}: opened {len(store)} entries, "
                                f"seeded {len(keys)}")
        for i in (0, len(keys) // 2, len(keys) - 1):
            want = {**fx["payloads"][i % self.payloads], "spec_key": keys[i]}
            if store.get(keys[i]) != want:
                rep.failures.append(f"{self.name}: entry {i} does not read "
                                    "back as written")
        rep.facts.update(runs=len(keys), events=0)
        rep.fingerprint = str(len(store))
        return rep


WORKLOADS = {w.name: w for w in (
    ChaosCampaign(), ChaosCampaignW2(), SparseScale(), LatticeMatrix(),
    ServiceMiss(), ServiceHit(), StoreResume(), StoreOpen())}
