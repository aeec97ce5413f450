"""The one canonical builder: ``RunSpec`` → wired engine → ``RunResult``.

All wiring of Engine + Network + oracles + dining stacks lives here:

* :func:`build_system` — a :class:`RunSpec`'s substrate: engine +
  per-process box oracle + suspicion provider (what experiments attach
  their own instances to);
* :func:`instantiate` — the full declarative path: that substrate +
  the spec's dining algorithm + per-process workload clients;
* :func:`execute` — instantiate, run to the horizon, and judge: returns
  the :class:`~repro.runtime.result.RunResult` envelope.  It reads the
  verdicts off the run's interval machine; the trace-taking checkers
  imported here judge a saved trace;
* :func:`execute_payload` — :func:`execute` down to the stored
  ``repro.result.v1`` envelope: the pool task of ``repro sweep``,
  ``chaos`` and ``lattice``.

``execute`` is a pure function of its spec (all randomness flows from
``spec.seed``), which is what lets the
:class:`~repro.runtime.executor.SupervisedExecutor` fan specs out over
worker processes with bit-identical per-seed results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

import networkx as nx

from repro.core.extraction import PairSelection
from repro.dining.base import DiningInstance, SuspicionProvider
from repro.dining.boxes import box_factory
from repro.dining.client import EagerClient, PeriodicClient
from repro.dining.fairness import fairness_of, measure_fairness
from repro.dining.spec import (
    check_exclusion,
    check_wait_freedom,
    exclusion_of,
    wait_freedom_of,
)
from repro.errors import ConfigurationError
from repro.graphs import validate_conflict_graph
from repro.obs.intervals import IntervalMachine
from repro.oracles.properties import (
    DetectorAssumptions,
    check_detector_properties,
    detector_verdicts,
)
from repro.oracles.registry import (
    BOX_LABEL,
    DetectorSpec,
    InstallContext,
    install_detector,
)
from repro.runtime.result import RunResult, result_payload
from repro.runtime.spec import RunSpec, parse_graph
from repro.sim import adversary
from repro.sim.engine import Engine, SimConfig
from repro.sim.faults import CrashSchedule
from repro.sim.link_faults import LinkFaultModel, Partition
from repro.sim.metrics import collect_metrics
from repro.sim.network import DelayModel, PartialSynchronyDelays
from repro.sim.transport import ReliableTransport, RetransmitPolicy
from repro.types import ProcessId

#: Dining-instance id used by every declarative run (trace checkers key
#: state rows by it).
INSTANCE = "SCENARIO"


#: The partial-synchrony channel constants every run shares: after GST a
#: message takes at most ``DELTA``; before it, up to ``PRE_GST_MAX``.
DELTA = 1.5
PRE_GST_MAX = 30.0


@dataclass
class System:
    """A built substrate: engine, processes and detector, no dining box."""

    engine: Engine
    graph: nx.Graph
    pids: list[ProcessId]
    schedule: CrashSchedule
    #: ``pid ->`` the dining-facing detector (an
    #: :class:`~repro.oracles.base.OracleModule` or an extraction facade —
    #: anything with the ``suspected(q)`` query API).
    box_modules: dict[ProcessId, Any]
    provider: SuspicionProvider
    transport: "ReliableTransport | None"
    #: The ``detector=`` label the dining-facing ``"suspect"`` trace rows
    #: carry (``boxfd`` for native modules; ``omega`` / ``flawed`` for the
    #: derived ones).
    detector_label: str
    #: The property battery this run's detector claims — what ``execute``
    #: judges the trace against.
    assumptions: DetectorAssumptions
    #: The ordered (owner, target) monitoring relation when the spec's
    #: pair selection is local; ``None`` means all-to-all (``pairs=all``).
    monitors: "list[tuple[ProcessId, ProcessId]] | None"


def build_system(spec: RunSpec) -> System:
    """The substrate half of :func:`instantiate`: the spec's graph, its
    processes (``sorted(graph.nodes)``), crash schedule, link faults,
    transport and channel model, an engine over them, and the registry
    detector with its suspicion provider — everything but the dining box
    and its clients, so experiments can attach their own instances."""
    graph = parse_graph(spec.graph)
    validate_conflict_graph(graph,
                            allow_disconnected=spec.allow_disconnected)
    pids = sorted(graph.nodes)
    bad = set(spec.crashes) - set(pids)
    if bad:
        raise ConfigurationError(f"crashes name unknown processes: {bad}")
    selection = PairSelection.parse(spec.pairs)
    # pairs=all leaves the historical all-to-all construction untouched
    # (golden traces pin it bit-for-bit); local selections restrict each
    # oracle module to its conflict-graph peers.
    peers_of = None if selection.is_all else selection.peers_map(pids, graph)
    monitors = (None if selection.is_all
                else [(p, q) for p in pids for q in peers_of[p]])
    fault_model = build_fault_model(spec, pids)
    transport = (spec.transport if spec.transport is not None
                 else fault_model is not None)
    schedule = CrashSchedule(dict(spec.crashes))
    engine = Engine(
        SimConfig(seed=spec.seed, max_time=spec.max_time,
                  trace_sink=spec.trace, record_messages=spec.record_messages,
                  obs=spec.obs, spans=spec.spans),
        delay_model=build_delay_model(spec),
        crash_schedule=schedule,
        fault_model=fault_model,
    )
    installed: ReliableTransport | None = None
    if isinstance(transport, Mapping):
        installed = ReliableTransport(RetransmitPolicy(
            **{k: float(v) for k, v in transport.items()})).install(engine)
    elif transport:
        installed = ReliableTransport().install(engine)
    for pid in pids:
        engine.add_process(pid)
    detector = DetectorSpec(spec.detector, dict(spec.detector_params),
                            seed=spec.seed)
    modules = install_detector(detector, InstallContext(
        engine=engine, pids=pids, schedule=schedule,
        peers_of=peers_of, seed=spec.seed))

    def provider(pid: ProcessId):
        return modules[pid].suspected

    entry = detector.entry
    return System(engine=engine, graph=graph, pids=pids, schedule=schedule,
                  box_modules=modules, provider=provider,
                  transport=installed, detector_label=entry.label,
                  assumptions=entry.assumptions, monitors=monitors)


# -- declarative pieces -------------------------------------------------------


def build_client(client: str, pid: ProcessId, diner, engine: Engine):
    """The workload component named by a client spec:
    ``eager:<steps>`` | ``periodic``."""
    kind, _, arg = client.partition(":")
    if kind == "eager":
        steps = int(arg) if arg else 2
        return EagerClient("client", diner, eat_steps=steps)
    if kind == "periodic":
        return PeriodicClient("client", diner,
                              rng=engine.rng.stream(f"client:{pid}"))
    raise ConfigurationError(f"unknown client kind {client!r}")


def build_fault_model(spec: RunSpec,
                      pids: Sequence[ProcessId]) -> Optional[LinkFaultModel]:
    """Link-fault model from the spec's drop/duplicate/partition knobs."""
    partitions = []
    if spec.partition is not None:
        part = dict(spec.partition)
        unknown = set(part) - {"side", "start", "end"}
        if unknown:
            raise ConfigurationError(
                f"unknown partition keys: {sorted(unknown)}")
        side = set(part.get("side", ()))
        bad = side - set(pids)
        if bad:
            raise ConfigurationError(
                f"partition side names unknown processes: {sorted(bad)}")
        partitions.append(Partition.of(side, float(part["start"]),
                                       float(part["end"])))
    if not (spec.drop or spec.duplicate or partitions):
        return None
    return LinkFaultModel(drop=spec.drop, duplicate=spec.duplicate,
                          partitions=partitions)


def build_delay_model(spec: RunSpec) -> DelayModel:
    """The channel model, wrapped in a targeted adversary if ``slow``."""
    base = PartialSynchronyDelays(gst=spec.gst, delta=DELTA,
                                  pre_gst_max=PRE_GST_MAX)
    if spec.slow is None:
        return base
    slow = dict(spec.slow)
    preds = []
    if "kind" in slow:
        preds.append(adversary.by_kind(slow.pop("kind")))
    if "endpoint" in slow:
        preds.append(adversary.by_endpoint(slow.pop("endpoint")))
    if "tag_prefix" in slow:
        preds.append(adversary.by_tag_prefix(slow.pop("tag_prefix")))
    if not preds:
        raise ConfigurationError(
            "slow needs a kind/endpoint/tag_prefix selector")
    until = slow.pop("until", None)
    rule = adversary.DelayRule(
        predicate=(preds[0] if len(preds) == 1
                   else lambda m: all(p(m) for p in preds)),
        factor=float(slow.pop("factor", 1.0)),
        extra_max=float(slow.pop("extra_max", 0.0)),
        until=None if until is None else float(until),
    )
    if slow:
        raise ConfigurationError(f"unknown slow keys: {sorted(slow)}")
    return adversary.TargetedDelays(base, [rule])


# -- the full declarative path ------------------------------------------------


@dataclass
class BuiltRun:
    """A fully wired, not-yet-executed run: the substrate plus the box."""

    spec: RunSpec
    system: System
    instance: DiningInstance
    diners: Mapping[ProcessId, Any]

    @property
    def engine(self) -> Engine:
        return self.system.engine


def instantiate(spec: RunSpec) -> BuiltRun:
    """Wire engine, oracle substrate, dining stack, and workload clients
    for ``spec`` — without running anything."""
    system = build_system(spec)
    instance = box_factory(spec.algorithm, system.provider)(INSTANCE,
                                                            system.graph)
    diners = instance.attach(system.engine)
    for pid in system.pids:
        system.engine.process(pid).add_component(
            build_client(spec.client, pid, diners[pid], system.engine))
    # Cost-visibility counter (repro report): how many ordered pairs the
    # oracle actually monitors.  DiningInstance.attach counts the dining
    # instances, the box's and any its detector or wrapper runs.
    n = len(system.pids)
    n_pairs = (n * (n - 1) if system.monitors is None
               else len(system.monitors))
    system.engine.registry.counter("monitor.pairs_monitored").inc(n_pairs)
    return BuiltRun(spec=spec, system=system, instance=instance,
                    diners=diners)


def justify_violations(trace, violations, detector: str = BOX_LABEL) -> bool:
    """Check every exclusion violation is oracle-justified: either
    endpoint's latest eating session begun by its start began while it
    suspected the other.  A replay of the trace's rows."""
    if not violations:
        return True
    graph = nx.Graph([(v.u, v.v) for v in violations])
    machine = IntervalMachine().judge(graph, INSTANCE, detector)
    machine.replay(trace.records())
    machine.finish(trace.last_time())
    return all(machine.justified(v.u, v.v, v.start) for v in violations)


def judge(built: BuiltRun) -> tuple:
    """``(exclusion, wait_freedom, fairness, detector_verdicts, justified)``
    of a finished run whose interval machine judged it from the start."""
    machine, system = built.engine.intervals, built.system
    exclusion = exclusion_of(machine)
    return (
        exclusion,
        wait_freedom_of(machine, grace=built.spec.grace),
        fairness_of(machine),
        # Under local pair selection only the monitored relation is
        # checked — an unmonitored pair has no suspicion series and proves
        # nothing.  The battery judged is the one the spec's detector
        # *claims* (System.assumptions), so S/◇S substrates aren't graded
        # against ◇P expectations — and flawed_cm, which claims ◇P's
        # battery, visibly fails it.
        detector_verdicts(machine, system.pids, system.assumptions,
                          pairs=system.monitors),
        all(machine.justified(v.u, v.v, v.start)
            for v in exclusion.violations),
    )


def execute(spec: RunSpec, check: Optional[bool] = None) -> RunResult:
    """Build and run ``spec`` to its horizon, judging it as it runs.

    ``check=None`` (default) judges the run exactly when its trace keeps
    rows (``counters`` runs are metrics-only: verdict fields ``None``,
    ``result.checked`` False).  The run's interval machine folds the
    record stream as it is written, so ``check=True`` gives a
    ``counters`` run the verdicts of a ``full`` one.
    """
    from repro.runtime.store import spec_hash

    built = instantiate(spec)
    eng = built.engine
    if check is None:
        check = eng.trace.mode != "counters"
    if check:
        eng.intervals.judge(built.system.graph, INSTANCE,
                            built.system.detector_label)
    else:
        eng.intervals.forgo_verdicts()
    eng.run()
    # One snapshot backs both views: collect_metrics publishes the sim.*
    # gauges, finishes the interval machine, and freezes the registry once.
    metrics = collect_metrics(eng)
    result = RunResult(
        name=spec.name,
        seed=spec.seed,
        end_time=eng.now,
        metrics=metrics,
        obs=metrics.snapshot if spec.obs else None,
        trace=eng.trace,
        spec_key=spec_hash(spec),
        spans=eng.intervals.spans,
    )
    if not check:
        return result
    (result.exclusion, result.wait_freedom, result.fairness, verdicts,
     result.violations_justified) = judge(built)
    result.oracle_accuracy_ok = verdicts.accuracy_ok
    result.oracle_completeness_ok = verdicts.completeness_ok
    return result


def execute_payload(spec: RunSpec) -> dict[str, Any]:
    """The one pool task every campaign maps: execute ``spec`` and return
    its stored form, the ``repro.result.v1`` envelope (module-level, so a
    worker pool pickles it by reference, and the result ships without its
    trace)."""
    return result_payload(execute(spec))
