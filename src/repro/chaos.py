"""Seeded chaos campaigns: randomized fault schedules, checked invariants.

A chaos *campaign* runs ``campaigns`` independent dining scenarios, each
derived deterministically from one 32-bit *run seed*: the run seed alone
fixes the topology, algorithm, client workload, crash schedule, link-fault
rates, partition window, and adversary rule (drawn inside
:func:`build_run`), and also seeds the simulation itself.  Per run, four
invariants are checked with the existing trace checkers:

* **wait-freedom** — every correct hungry diner eventually eats
  (:func:`repro.dining.spec.check_wait_freedom`);
* **◇WX** — every exclusion violation is *oracle-justified*: simultaneous
  eating happens only when a session starts under a ◇P mistake, so once
  mistakes stop (eventual accuracy, checked separately) violations stop —
  a finite-run check robust to legitimately late oracle mistakes;
* **◇P accuracy / completeness** — the box oracle converges on the truth
  (:mod:`repro.oracles.properties`).

Because a run is a pure function of its run seed plus the campaign knobs,
any failure reproduces deterministically from the one handle that also
keys the store: its :class:`~repro.runtime.spec.RunSpec`.  A failed row
prints ``python -m repro chaos --replay '<spec JSON>'``, which re-runs
exactly that scenario, bit for bit, whatever the campaign's config was
(``--json`` output maps each failed run seed to the same spec).  The CLI
exposes campaigns as ``repro chaos --campaigns N --seed S``.

Every verdict is a view of its run's ``repro.result.v1`` payload
(:func:`~repro.runtime.result.result_payload`), the one shape the store
keeps, so a run just computed and one read back from the store render
the same bytes.
"""

from __future__ import annotations

import functools
import json
import shlex
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.report import Table
from repro.errors import ConfigurationError
from repro.obs import CampaignTelemetry, run_record
from repro.runtime import (
    RunResult,
    RunSpec,
    SupervisedExecutor,
    execute,
    execute_payload,
    fanout_seeds,
    parse_graph,
)
from repro.runtime.result import result_payload
from repro.runtime.spec import check_grammars
from repro.runtime.store import (
    ResultStore,
    canonical_spec,
    resumable_map,
    spec_hash,
)
from repro.sim.faults import CrashSchedule


@dataclass(frozen=True)
class ChaosConfig:
    """Campaign-level knobs: how many runs, and how hostile each may get."""

    campaigns: int = 20
    seed: int = 0
    graphs: Sequence[str] = ("ring:3", "ring:4", "path:4", "star:3")
    algorithms: Sequence[str] = ("wf-ewx",)
    clients: Sequence[str] = ("eager:2", "periodic")
    drop_max: float = 0.3
    duplicate_max: float = 0.1
    partition_prob: float = 0.5
    partition_max_len: float = 180.0
    max_faulty: int = 1
    slow_prob: float = 0.3
    gst: float = 120.0
    max_time: float = 900.0
    #: End-of-run allowance for still-pending hunger (wait-freedom is a
    #: liveness property; under heavy loss honest service latency spans a
    #: few retransmission round-trips, so this is larger than the
    #: clean-network default).
    grace: float = 250.0
    #: Retransmit policy for chaos runs: snappier than the transport
    #: default so recovery timescales fit inside ``max_time``.
    rto_initial: float = 6.0
    rto_max: float = 45.0
    #: With the transport the paper's channel assumptions hold and every
    #: invariant must pass; ``transport=False`` exposes raw lossy channels
    #: to the algorithms (negative testing — expect failures).
    transport: bool = True
    #: Which failure detector every run uses, by registry name
    #: (:data:`repro.oracles.registry.REGISTRY`); the default keeps the
    #: historical heartbeat ◇P.  The detector knob consumes no randomness
    #: in :func:`build_run`, so two campaigns differing only in detector
    #: face *identical* scenarios seed for seed — the property the
    #: ``repro lattice`` comparison rests on.
    detector: str = "eventually_perfect"
    #: Per-detector parameter overrides (see the registry entry defaults).
    detector_params: Mapping[str, Any] = field(default_factory=dict)
    #: Pair-selection policy threaded into every built scenario (``all`` |
    #: ``neighbors`` | ``neighbors:<k>``).  ``neighbors`` is what makes
    #: large sparse topologies (``rgg:100:...``) campaign-tractable; see
    #: docs/topologies.md.
    pairs: str = "all"
    #: Accept disconnected conflict graphs (components monitored
    #: independently) — low-radius rgg draws commonly disconnect.
    allow_disconnected: bool = False
    #: Span-level tracing (:mod:`repro.obs.spans`) on every run: suspicion
    #: intervals, dining phases, crash points, convergence markers — the
    #: ``--spans-out`` / ``repro timeline`` evidence.  Off by default.
    spans: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "graphs", tuple(self.graphs))
        for name in ("drop_max", "duplicate_max", "partition_prob",
                     "slow_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be a probability, got {value}")
        if self.max_time <= 0:
            raise ConfigurationError("max_time must be positive")
        from repro.oracles.registry import DetectorSpec

        DetectorSpec(self.detector, dict(self.detector_params))
        box = self.detector_params.get("box")
        check_grammars(self.pairs, *self.algorithms,
                       *(() if box is None else (box,)))

    @classmethod
    def from_args(cls, args: Any) -> "ChaosConfig":
        """The config that ``repro chaos`` arguments parsed from
        :data:`CHAOS_FLAGS` set; an unset flag keeps its field's default."""
        return cls(**{name: getattr(args, name) for name, _, _ in CHAOS_FLAGS
                      if name and getattr(args, name) is not None})


#: The ``repro chaos`` campaign flags as ``(field, flag, argparse
#: keywords)`` rows, in ``--help`` order.  The CLI builds its parser from
#: them and :meth:`ChaosConfig.from_args` reads the parsed values back.
#: Every default is the field's own (argparse's None means unset);
#: ``--replay`` sets no field.
CHAOS_FLAGS: tuple[tuple[Optional[str], str, dict[str, Any]], ...] = (
    ("spans", "--spans", dict(
        action="store_true",
        help="collect span-level tracing even without --spans-out (kept in "
             "--store payloads and replay-run reports)")),
    ("campaigns", "--campaigns", dict(
        type=int, help="number of randomized runs (default 20)")),
    ("seed", "--seed", dict(
        type=int, help="base seed; each run's seed derives from it")),
    (None, "--replay", dict(
        metavar="SPEC",
        help="re-run exactly one run from its RunSpec JSON, as a failed "
             "run's replay line prints it (campaign flags do not apply)")),
    ("drop_max", "--drop-max", dict(
        type=float, help="max per-run message drop probability")),
    ("duplicate_max", "--duplicate-max", dict(
        type=float, help="max per-run duplication probability")),
    ("partition_prob", "--partition-prob", dict(
        type=float, help="probability a run gets a partition window")),
    ("max_faulty", "--max-faulty", dict(
        type=int, help="max crashed processes per run")),
    ("slow_prob", "--slow-prob", dict(
        type=float,
        help="probability a run gets a targeted-delay adversary")),
    ("max_time", "--max-time", dict(
        type=float, help="virtual horizon per run")),
    ("transport", "--no-transport", dict(
        action="store_false",
        help="expose raw lossy links to the algorithms (negative testing; "
             "expect invariant failures)")),
    ("graphs", "--graphs", dict(
        nargs="+", metavar="SPEC",
        help="topology pool runs draw from (graph spec strings, e.g. ring:4 "
             "rgg:100:0.2:7; default: small rings/paths/stars)")),
    ("detector", "--detector", dict(
        metavar="NAME",
        help="failure detector every run uses, by registry name (default "
             "eventually_perfect; see docs/detectors.md)")),
    ("pairs", "--pairs", dict(
        help="detector pair selection: all | neighbors | neighbors:<k> "
             "(neighbors = conflict-graph-local monitoring; see "
             "docs/topologies.md)")),
    ("allow_disconnected", "--allow-disconnected", dict(
        action="store_true",
        help="accept disconnected conflict graphs (components monitored "
             "independently)")),
)


# numpy's ``choice`` and ``uniform`` draws, without their per-call overhead.
def _pick(rng: np.random.Generator, seq: Sequence[Any]) -> Any:
    return seq[int(rng.integers(len(seq)))]


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    if hi < lo:  # refused as rng.uniform refuses it
        raise ValueError(f"high - low < 0: [{lo}, {hi})")
    return lo + (hi - lo) * rng.random()


@functools.lru_cache(maxsize=64)
def _graph_pids(graph_spec: str) -> tuple[Any, ...]:
    """The sorted process ids of a graph spec, built once per spec."""
    return tuple(sorted(parse_graph(graph_spec).nodes))


def build_run(run_seed: int, cfg: ChaosConfig) -> RunSpec:
    """The scenario for one chaos run — a pure function of ``run_seed``.

    All randomization is drawn from a generator seeded with ``run_seed``
    in a fixed order, so the same seed (under the same config knobs)
    always yields the same scenario; the scenario's own ``seed`` is the
    run seed too, so the simulation replays identically as well.
    """
    rng = np.random.default_rng(int(run_seed))
    graph_spec = str(_pick(rng, cfg.graphs))
    algorithm = str(_pick(rng, cfg.algorithms))
    client = str(_pick(rng, cfg.clients))
    pids = _graph_pids(graph_spec)

    drop = _uniform(rng, 0.0, cfg.drop_max)
    duplicate = _uniform(rng, 0.0, cfg.duplicate_max)

    partition: Optional[dict[str, Any]] = None
    if rng.random() < cfg.partition_prob and len(pids) >= 2:
        side_size = int(rng.integers(1, len(pids)))
        side = [pids[int(i)] for i in
                rng.choice(len(pids), size=side_size, replace=False)]
        start = _uniform(rng, 0.1, 0.45) * cfg.max_time
        length = _uniform(rng, 30.0, cfg.partition_max_len)
        partition = {"side": sorted(side), "start": start,
                     "end": start + length}

    crashes = dict(CrashSchedule.random(
        pids, cfg.max_faulty, 0.6 * cfg.max_time, rng).items())

    slow: Optional[dict[str, Any]] = None
    if rng.random() < cfg.slow_prob:
        slow = {
            "endpoint": str(_pick(rng, pids)),
            "factor": _uniform(rng, 1.5, 4.0),
            "extra_max": _uniform(rng, 0.0, 15.0),
            "until": cfg.gst + 0.3 * cfg.max_time,
        }

    # NB: the detector knobs are pure pass-through (no rng draws), so every
    # scenario below is identical across detectors for a given run seed.
    return RunSpec(
        name=f"chaos-{run_seed}",
        graph=graph_spec,
        algorithm=algorithm,
        detector=cfg.detector,
        detector_params=dict(cfg.detector_params),
        client=client,
        crashes=crashes,
        seed=int(run_seed),
        gst=cfg.gst,
        max_time=cfg.max_time,
        grace=cfg.grace,
        drop=drop,
        duplicate=duplicate,
        partition=partition,
        transport=({"rto_initial": cfg.rto_initial, "rto_max": cfg.rto_max}
                   if cfg.transport else False),
        slow=slow,
        pairs=cfg.pairs,
        allow_disconnected=cfg.allow_disconnected,
        spans=cfg.spans,
    )


@dataclass
class RunVerdict:
    """Outcome of one chaos run: a view of its ``repro.result.v1`` payload.

    Everything it reports is a function of its scenario and the run's
    ``payload`` (:func:`~repro.runtime.result.result_payload`) — the one
    shape the store keeps, so a run just executed and one read back from
    the store give the same verdict, which is what makes a resumed
    campaign byte-identical to a fresh one.
    """

    index: int
    run_seed: int
    scenario: RunSpec
    payload: Mapping[str, Any]
    #: The live result; set only by :func:`run_one`.
    report: Optional[RunResult] = None
    failures: list[str] = field(init=False)

    def __post_init__(self) -> None:
        self.failures = check_invariants(self.payload["record"]["summary"])

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> dict[str, Any]:
        run = self.payload["record"]["summary"]
        wait = run["max_hungry_wait"]
        return {
            "index": self.index,
            "run_seed": self.run_seed,
            "ok": self.ok,
            "failures": list(self.failures),
            "graph": self.scenario.graph,
            "algorithm": self.scenario.algorithm,
            "client": self.scenario.client,
            "drop": round(self.scenario.drop, 4),
            "duplicate": round(self.scenario.duplicate, 4),
            "partition": (dict(self.scenario.partition)
                          if self.scenario.partition else None),
            "crashes": dict(self.scenario.crashes),
            "slow": dict(self.scenario.slow) if self.scenario.slow else None,
            "messages_sent": run["messages_sent"],
            "messages_dropped": run["messages_dropped"],
            "messages_duplicated": run["messages_duplicated"],
            "retransmissions": run["retransmissions"],
            # The verdict fields below are None on an unchecked run, the
            # telemetry ones when the obs knob is off.
            "exclusion_violations": run["exclusion_violations"],
            "last_violation_end": run["last_violation_end"],
            "max_hungry_wait": None if wait is None else round(wait, 2),
            "convergence_time": run["convergence_time"],
            "wrongful_suspicions": run["wrongful_suspicions"],
            "suspicion_churn": run["suspicion_churn"],
        }

    def run_record(self) -> dict[str, Any]:
        """The ``--metrics-out`` JSONL record: full metric snapshot plus
        the flat verdict summary."""
        return {**self.payload["record"], "verdict": self.summary()}

    def span_records(self) -> list[dict[str, Any]]:
        """This run's ``repro.span.v1`` records (empty when the campaign's
        ``spans`` knob is off)."""
        return [dict(r) for r in self.payload.get("spans", ())]


#: A verdict served from the store is a plain :class:`RunVerdict`; the
#: name stays because the perf ledger times its ``__init__`` as
#: ``store.decode``.
StoredVerdict = RunVerdict


def check_invariants(run: Mapping[str, Any]) -> list[str]:
    """The per-run invariant battery over one run ``summary``
    (:meth:`RunResult.summary`, as its stored record keeps it); empty
    list = all good.

    An *unchecked* run (a ``counters`` run, which ``execute`` leaves
    unjudged by default) has nothing to judge and reports no failures.
    """
    if not run["checked"]:
        return []
    failures = []
    if not run["wait_free"]:
        failures.append(
            "wait-freedom: starving "
            f"{', '.join(run['starving'])}")
    if not run["violations_justified"]:
        failures.append(
            "eventual-weak-exclusion: unjustified violation — simultaneous "
            "eating without an oracle mistake at session start")
    if not run["oracle_accuracy_ok"]:
        failures.append("oracle-accuracy: correct process still suspected")
    if not run["oracle_completeness_ok"]:
        failures.append("oracle-completeness: crashed process not suspected")
    return failures


def run_one(index: int, run_seed: int, cfg: ChaosConfig,
            scenario: Optional[RunSpec] = None) -> RunVerdict:
    """Build (unless given), run, and judge a single chaos run, keeping
    the live result as the verdict's ``report``."""
    if scenario is None:
        scenario = build_run(run_seed, cfg)
    report = execute(scenario)
    return RunVerdict(index, run_seed, scenario, result_payload(report),
                      report)


@dataclass
class CampaignResult:
    """All verdicts of one campaign plus aggregate accounting."""

    cfg: ChaosConfig
    verdicts: list[RunVerdict]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def failed(self) -> list[RunVerdict]:
        return [v for v in self.verdicts if not v.ok]

    def run_records(self) -> list[dict[str, Any]]:
        """The campaign's ``--metrics-out`` JSONL records, in run order."""
        return [v.run_record() for v in self.verdicts]

    def span_records(self) -> list[dict[str, Any]]:
        """The campaign's ``repro.span.v1`` records (``--spans-out``), in
        run order — every run's spans concatenated, so the file is
        byte-identical between serial, parallel, and resumed campaigns."""
        return [rec for v in self.verdicts for rec in v.span_records()]

    def telemetry(self) -> CampaignTelemetry:
        """Cross-seed detector-quality aggregation (p50/p95/max
        convergence time, merged latency histograms, message totals)."""
        return CampaignTelemetry.from_records(self.run_records())

    def to_json(self) -> dict[str, Any]:
        return {
            "seed": self.cfg.seed,
            "campaigns": self.cfg.campaigns,
            "transport": self.cfg.transport,
            "passed": sum(v.ok for v in self.verdicts),
            "failed": len(self.failed),
            "ok": self.ok,
            "replay": {str(v.run_seed): canonical_spec(v.scenario)
                       for v in self.failed},
            "telemetry": self.telemetry().summary(),
            "runs": [v.summary() for v in self.verdicts],
        }

    def render(self) -> str:
        table = Table(
            ["run", "seed", "graph", "drop", "part", "crash", "verdict"],
            title=(f"chaos campaign: {len(self.verdicts)} runs from base seed "
                   f"{self.cfg.seed} "
                   f"({'transport' if self.cfg.transport else 'raw links'})"),
        )
        for v in self.verdicts:
            table.add_row([
                v.index,
                v.run_seed,
                v.scenario.graph,
                f"{v.scenario.drop:.2f}",
                "yes" if v.scenario.partition else "-",
                ",".join(sorted(v.scenario.crashes)) or "-",
                "ok" if v.ok else "; ".join(v.failures),
            ])
        lines = [table.render()]
        for v in self.failed:
            spec = json.dumps(canonical_spec(v.scenario),
                              separators=(",", ":"))
            lines.append(f"replay run {v.index}: python -m repro chaos "
                         f"--replay {shlex.quote(spec)}")
        tele = self.telemetry()
        if tele.with_metrics:
            lines.append(tele.render(title="campaign telemetry"))
        lines.append(
            f"{sum(v.ok for v in self.verdicts)}/{len(self.verdicts)} passed")
        return "\n".join(lines)


def run_campaign(cfg: ChaosConfig, workers: int = 1,
                 store: "ResultStore | None" = None,
                 resume: bool = False,
                 executor: "SupervisedExecutor | None" = None,
                 on_result: "Any | None" = None,
                 ) -> CampaignResult:
    """Run the whole seeded campaign, fanned over ``workers`` processes.

    Each run is a pure function of its run seed, so verdicts are keyed by
    seed and independent of worker count or completion order:
    ``workers=4`` reproduces ``workers=1`` exactly, per seed (the
    determinism suite in ``tests/runtime/test_executor.py`` pins this).

    Every run goes through one pool task,
    :func:`~repro.runtime.builder.execute_payload`, and comes back as its
    result envelope (:func:`~repro.runtime.result.result_payload`, the one
    shape every surface stores), which its verdict then views.  With a
    ``store``, each envelope is checkpointed under its content address —
    the :func:`spec_hash` of the scenario its run seed expands to, so the
    key captures every campaign knob that shapes the run — the moment it
    completes, so an interrupted campaign keeps everything already
    computed; with ``resume`` as well, stored runs — whichever of ``repro
    chaos``, ``lattice``, ``sweep`` or ``serve`` computed them — are
    served from the store instead of re-simulated, and the aggregates
    (tables, ``--json``, telemetry, metrics records) are byte-identical to
    an uninterrupted campaign (pinned by ``tests/runtime/test_resume.py``).

    Pass an ``executor`` to control supervision knobs (per-task timeout,
    retry policy, self-chaos fault hook); by default one is built from
    ``workers``.  ``on_result(index, verdict, cached)`` fires once per
    run as its verdict lands (store-served verdicts at load with
    ``cached=True``, fresh ones in completion order) — the hook
    :class:`~repro.runtime.progress.ProgressReporter` plugs into.
    """
    seeds = fanout_seeds(cfg.seed, cfg.campaigns)
    # One build per seed: the run, its key and its verdict share it.
    specs = [build_run(run_seed, cfg) for run_seed in seeds]
    verdicts: list[Any] = [None] * len(specs)

    def land(i: int, payload: Mapping[str, Any], cached: bool) -> None:
        verdicts[i] = verdict = RunVerdict(i, seeds[i], specs[i], payload)
        if on_result is not None:
            on_result(i, verdict, cached)

    resumable_map(
        execute_payload, specs, keys=[spec_hash(spec) for spec in specs],
        encode=lambda payload: payload,
        decode=lambda payload, i, spec: payload,
        store=store, resume=resume,
        executor=executor or SupervisedExecutor(workers=workers),
        on_result=land,
    )
    return CampaignResult(cfg=cfg, verdicts=verdicts)
