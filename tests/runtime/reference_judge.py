"""The parent judge, kept verbatim as the reference for the interval machine.

Before the interval machine, the verdicts were computed after the run by
scanning the retained trace: the oracle-property battery over per-pair
suspicion series, the dining checkers over per-diner state series, and
the ◇WX justification by replaying one pair's series per violation
(``eating_intervals`` built a diner's intervals from its state series).  Two
separate trace subscribers, ``RunProbes`` and ``SpanProbe``, each kept
their own copy of the suspicion state machine for the metrics and the
spans.  The bodies below are those versions, unchanged apart from being
collected in one module (``records``, ``check_exclusion`` and
``overtake_samples`` are the still older scanning versions);
``test_judge_equivalence`` holds the machine to them.  ``convergence_time``
is the finite-series "eventually always" operator the battery was built on.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import networkx as nx

from repro.dining.fairness import FairnessReport
from repro.dining.spec import (
    ExclusionReport,
    ExclusionViolation,
    OvertakeSample,
    WaitFreedomReport,
    state_series,
)
from repro.errors import SimulationError
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import _KEYS, _sort_key
from repro.oracles.properties import (
    DetectorAssumptions,
    DetectorVerdicts,
    OracleReport,
    PairVerdict,
)
from repro.oracles.registry import BOX_LABEL
from repro.runtime.builder import INSTANCE
from repro.sim.faults import CrashSchedule
from repro.sim.trace import Trace, TraceRecord, intervals_overlap, state_intervals
from repro.types import DinerState, ProcessId, Time

Interval = tuple[Time, Time]

EATING = DinerState.EATING.value
HUNGRY = DinerState.HUNGRY.value


def records(
    self: Trace,
    kind: str | None = None,
    pid: ProcessId | None = None,
    where: Callable[[TraceRecord], bool] | None = None,
) -> list[TraceRecord]:
    """All retained records matching the given filters, in time order."""
    out = []
    for r in self._sink.retained():
        if kind is not None and r.kind != kind:
            continue
        if pid is not None and r.pid != pid:
            continue
        if where is not None and not where(r):
            continue
        out.append(r)
    return out


def convergence_time(
    series: Sequence[tuple[Time, Any]],
    pred: Callable[[Any], bool],
    initial: Any = None,
) -> Optional[Time]:
    """Earliest time after which ``pred(value)`` holds for the rest of the series.

    A series is a time-ordered list of ``(time, value)`` samples, each value
    persisting until the next sample.  Returns the start of the final
    maximal suffix in which every sample satisfies ``pred``; ``None`` if the
    final value violates ``pred``, or the series is empty and ``initial``
    violates it.  ``0.0`` means the predicate held throughout.
    """
    samples = list(series)
    if initial is not None:
        samples = [(0.0, initial)] + samples
    if not samples:
        return None
    conv: Optional[Time] = None
    for ts, v in samples:
        if pred(v):
            if conv is None:
                conv = ts
        else:
            conv = None
    return conv


def _clip(intervals: Sequence[Interval], cutoff: Optional[Time]) -> list[Interval]:
    """Clip intervals at a crash time (a crashed diner stops conflicting)."""
    if cutoff is None:
        return list(intervals)
    out = []
    for a, b in intervals:
        if a >= cutoff:
            continue
        out.append((a, min(b, cutoff)))
    return out


def eating_intervals(
    trace: Trace,
    instance: str,
    pid: ProcessId,
    end_time: Time,
    schedule: CrashSchedule | None = None,
) -> list[Interval]:
    """Closed eating sessions of one diner; clipped at its crash if any."""
    series = state_series(trace, instance, pid)
    ivs = state_intervals(series, EATING, end_time)
    cutoff = schedule.crash_time(pid) if schedule is not None else None
    return _clip(ivs, cutoff)


def check_exclusion(
    trace: Trace,
    graph: nx.Graph,
    instance: str,
    schedule: CrashSchedule,
    end_time: Time,
) -> ExclusionReport:
    """Find every interval during which two live neighbors ate together."""
    report = ExclusionReport(instance=instance, end_time=end_time)
    ivs = {
        pid: eating_intervals(trace, instance, pid, end_time, schedule)
        for pid in graph.nodes
    }
    for u, v in sorted(tuple(sorted(e)) for e in graph.edges):
        for a in ivs[u]:
            for b in ivs[v]:
                if intervals_overlap(a, b):
                    report.violations.append(
                        ExclusionViolation(
                            u=u, v=v,
                            start=max(a[0], b[0]), end=min(a[1], b[1]),
                        )
                    )
    report.violations.sort(key=lambda x: (x.start, x.end, x.u, x.v))
    return report


def overtake_samples(
    trace: Trace,
    graph: nx.Graph,
    instance: str,
    end_time: Time,
) -> list[OvertakeSample]:
    """For every hungry interval of every diner, count each neighbor's
    eating-session onsets inside it (the k-fairness statistic, Section 8)."""
    onsets: dict[ProcessId, list[Time]] = {}
    hungry: dict[ProcessId, list[Interval]] = {}
    for pid in graph.nodes:
        series = state_series(trace, instance, pid)
        onsets[pid] = [t for t, s in series if s == DinerState.EATING.value]
        hungry[pid] = state_intervals(series, DinerState.HUNGRY.value, end_time)
    samples: list[OvertakeSample] = []
    for pid in sorted(graph.nodes):
        for start, end in hungry[pid]:
            for nbr in sorted(graph.neighbors(pid)):
                n = sum(1 for t in onsets[nbr] if start < t <= end)
                samples.append(OvertakeSample(pid, nbr, start, n))
    return samples


# -- oracles/properties.py ----------------------------------------------------


def suspicion_series(
    trace: Trace,
    owner: ProcessId,
    target: ProcessId,
    detector: str | None = None,
) -> list[tuple[Time, bool]]:
    """Time-ordered ``(time, suspected)`` output of ``owner``'s module about
    ``target`` (optionally restricted to one named detector).

    Read from the owner's bucket of the trace's query index, so judging
    every monitored pair costs no scan of the whole trace per pair."""
    return [
        (r.time, bool(r.data["suspected"]))
        for r in trace.records(kind="suspect", pid=owner)
        if r.data.get("target") == target
        and (detector is None or r.data.get("detector") == detector)
    ]


def suspected_at(
    trace: Trace,
    owner: ProcessId,
    target: ProcessId,
    t: Time,
    detector: str | None = None,
) -> bool:
    """Was ``target`` suspected by ``owner``'s module at time ``t``?

    Replays the suspicion transitions up to and including ``t``; before the
    first transition the module's initial state (not suspected) applies.
    """
    value = False
    for when, suspected in suspicion_series(trace, owner, target, detector):
        if when > t:
            break
        value = suspected
    return value


def _monitoring_pairs(
    owners: Iterable[ProcessId],
    targets: Iterable[ProcessId],
    pairs: Iterable[tuple[ProcessId, ProcessId]] | None,
) -> list[tuple[ProcessId, ProcessId]]:
    """The (owner, target) relations a checker should examine.

    ``pairs=None`` means the full cross product (all-to-all monitoring);
    an explicit iterable restricts checking to the pairs actually
    monitored — required under conflict-graph-local pair selection, where
    an unmonitored pair has an empty suspicion series that would otherwise
    read as a violation.
    """
    if pairs is None:
        return [(o, t) for o in owners for t in targets if o != t]
    return [(o, t) for o, t in pairs if o != t]


def check_strong_completeness(
    trace: Trace,
    owners: Iterable[ProcessId],
    targets: Iterable[ProcessId],
    schedule: CrashSchedule,
    detector: str | None = None,
    pairs: Iterable[tuple[ProcessId, ProcessId]] | None = None,
) -> OracleReport:
    """Every crashed target is eventually permanently suspected by every
    correct owner that monitors it (paper: Strong Completeness; ``pairs``
    restricts the monitoring relation under local pair selection)."""
    report = OracleReport("strong completeness")
    for owner, target in _monitoring_pairs(owners, targets, pairs):
        if not schedule.is_faulty(owner):
            ct = schedule.crash_time(target)
            if ct is None:
                continue  # completeness constrains only crashed targets
            series = suspicion_series(trace, owner, target, detector)
            conv = convergence_time(series, lambda s: s)
            ok = conv is not None
            detail = "" if ok else "not permanently suspected"
            if ok and conv < ct:
                # Converged before the crash: legal (completeness does not
                # restrict false positives) but worth surfacing.
                detail = f"suspected since {conv:.1f}, before crash at {ct:.1f}"
            report.pairs.append(PairVerdict(owner, target, ok, conv, detail))
    return report


def check_eventual_strong_accuracy(
    trace: Trace,
    owners: Iterable[ProcessId],
    targets: Iterable[ProcessId],
    schedule: CrashSchedule,
    detector: str | None = None,
    pairs: Iterable[tuple[ProcessId, ProcessId]] | None = None,
) -> OracleReport:
    """Eventually no correct owner suspects any correct target it monitors
    (paper: Eventual Strong Accuracy; ``pairs`` restricts the monitoring
    relation under local pair selection)."""
    report = OracleReport("eventual strong accuracy")
    for owner, target in _monitoring_pairs(owners, targets, pairs):
        if not schedule.is_faulty(owner):
            if schedule.is_faulty(target):
                continue
            series = suspicion_series(trace, owner, target, detector)
            conv = convergence_time(series, lambda s: not s)
            ok = conv is not None
            mistakes = _wrongful_onsets(series, schedule.crash_time(target))
            report.pairs.append(
                PairVerdict(owner, target, ok, conv, f"{mistakes} mistakes")
            )
    return report


def check_perpetual_strong_accuracy(
    trace: Trace,
    owners: Iterable[ProcessId],
    targets: Iterable[ProcessId],
    schedule: CrashSchedule,
    detector: str | None = None,
    pairs: Iterable[tuple[ProcessId, ProcessId]] | None = None,
) -> OracleReport:
    """No target is ever suspected before it crashes (the P accuracy;
    ``pairs`` restricts the monitoring relation under local selection)."""
    report = OracleReport("perpetual strong accuracy")
    for owner, target in _monitoring_pairs(owners, targets, pairs):
        if schedule.is_faulty(owner):
            continue
        mistakes = false_positive_count(trace, owner, target, schedule, detector)
        ok = mistakes == 0
        report.pairs.append(
            PairVerdict(owner, target, ok, 0.0 if ok else None,
                        "" if ok else f"{mistakes} premature suspicions")
        )
    return report


def check_trusting_accuracy(
    trace: Trace,
    owners: Iterable[ProcessId],
    targets: Iterable[ProcessId],
    schedule: CrashSchedule,
    detector: str | None = None,
    pairs: Iterable[tuple[ProcessId, ProcessId]] | None = None,
) -> OracleReport:
    """The T accuracy (paper Section 9): (a) every correct target eventually
    permanently trusted; (b) any trust revocation implies a real crash."""
    report = OracleReport("trusting accuracy")
    for owner, target in _monitoring_pairs(owners, targets, pairs):
        if not schedule.is_faulty(owner):
            series = suspicion_series(trace, owner, target, detector)
            ok = True
            conv: Optional[Time] = None
            detail = ""
            if not schedule.is_faulty(target):
                conv = convergence_time(series, lambda s: not s)
                if conv is None:
                    ok, detail = False, "correct target not permanently trusted"
            # (b): scan for trusted -> suspected transitions.
            prev = True  # T starts suspecting (never trusted yet)
            for t, s in series:
                if s and not prev:  # trust revoked at time t
                    ct = schedule.crash_time(target)
                    if ct is None or t < ct:
                        ok = False
                        detail = f"trust of live {target} revoked at {t:.1f}"
                        break
                prev = s
            report.pairs.append(PairVerdict(owner, target, ok, conv, detail))
    return report


def _owners_of(
    target: ProcessId,
    owners: Sequence[ProcessId],
    pairs: Iterable[tuple[ProcessId, ProcessId]] | None,
) -> list[ProcessId]:
    """The owners whose module monitors ``target`` under ``pairs``."""
    if pairs is None:
        return [o for o in owners if o != target]
    return [o for o, t in pairs if t == target and o != target]


def check_perpetual_weak_accuracy(
    trace: Trace,
    owners: Sequence[ProcessId],
    targets: Sequence[ProcessId],
    schedule: CrashSchedule,
    detector: str | None = None,
    pairs: Iterable[tuple[ProcessId, ProcessId]] | None = None,
) -> tuple[bool, Optional[ProcessId]]:
    """The S accuracy: some correct target is never suspected by any owner.

    Returns ``(ok, witness_target)``.
    """
    live_owners = [o for o in owners if not schedule.is_faulty(o)]
    for target in targets:
        if schedule.is_faulty(target):
            continue
        if all(
            not any(s for _, s in suspicion_series(trace, o, target, detector))
            for o in _owners_of(target, live_owners, pairs)
        ):
            return True, target
    return False, None


def check_eventual_weak_accuracy(
    trace: Trace,
    owners: Sequence[ProcessId],
    targets: Sequence[ProcessId],
    schedule: CrashSchedule,
    detector: str | None = None,
    pairs: Iterable[tuple[ProcessId, ProcessId]] | None = None,
) -> tuple[bool, Optional[ProcessId]]:
    """The ◇S accuracy: some correct target is *eventually* never suspected
    by any correct owner that monitors it.

    Returns ``(ok, witness_target)``.
    """
    live_owners = [o for o in owners if not schedule.is_faulty(o)]
    for target in targets:
        if schedule.is_faulty(target):
            continue
        if all(
            convergence_time(
                suspicion_series(trace, o, target, detector),
                lambda s: not s) is not None
            for o in _owners_of(target, live_owners, pairs)
        ):
            return True, target
    return False, None


def leader_series(
    trace: Trace,
    owner: ProcessId,
) -> list[tuple[Time, ProcessId]]:
    """Time-ordered leader estimates of ``owner`` (the ``"leader"`` rows
    :class:`~repro.oracles.omega.OmegaElector` records)."""
    return [(r.time, r["leader"]) for r in trace.records(kind="leader",
                                                         pid=owner)]


def check_leader_agreement(
    trace: Trace,
    pids: Sequence[ProcessId],
    schedule: CrashSchedule,
) -> OracleReport:
    """The Ω specification: eventually every correct process permanently
    elects the same correct leader.

    Per correct owner, the verdict pair is ``(owner, final_leader)``; the
    convergence time is the owner's last estimate change.  Fails when an
    owner has no leader records (Ω was not running), its final leader is
    faulty, or two correct owners disagree at the end of the run.
    """
    report = OracleReport("leader agreement")
    finals: dict[ProcessId, ProcessId] = {}
    for owner in pids:
        if schedule.is_faulty(owner):
            continue
        series = leader_series(trace, owner)
        if not series:
            report.pairs.append(PairVerdict(
                owner, owner, False, None, "no leader records"))
            continue
        t, leader = series[-1]
        finals[owner] = leader
        ok = not schedule.is_faulty(leader)
        detail = "" if ok else f"final leader {leader} is faulty"
        report.pairs.append(PairVerdict(owner, leader, ok, t, detail))
    if len(set(finals.values())) > 1:
        disagree = ", ".join(f"{o}->{l}" for o, l in sorted(finals.items()))
        report.pairs.append(PairVerdict(
            "*", "*", False, None, f"correct processes disagree: {disagree}"))
    return report


def _acc_eventual_strong(trace, pids, schedule, label, pairs):
    report = check_eventual_strong_accuracy(trace, pids, pids, schedule,
                                            detector=label, pairs=pairs)
    return report.ok, "" if report.ok else report.failures()[0].detail


def _acc_perpetual_strong(trace, pids, schedule, label, pairs):
    report = check_perpetual_strong_accuracy(trace, pids, pids, schedule,
                                             detector=label, pairs=pairs)
    return report.ok, "" if report.ok else report.failures()[0].detail


def _acc_trusting(trace, pids, schedule, label, pairs):
    report = check_trusting_accuracy(trace, pids, pids, schedule,
                                     detector=label, pairs=pairs)
    return report.ok, "" if report.ok else report.failures()[0].detail


def _acc_perpetual_weak(trace, pids, schedule, label, pairs):
    ok, witness = check_perpetual_weak_accuracy(trace, pids, pids, schedule,
                                                detector=label, pairs=pairs)
    return ok, (f"witness {witness}" if ok
                else "every correct process was suspected at some point")


def _acc_eventual_weak(trace, pids, schedule, label, pairs):
    ok, witness = check_eventual_weak_accuracy(trace, pids, pids, schedule,
                                               detector=label, pairs=pairs)
    return ok, (f"witness {witness}" if ok
                else "no correct process is eventually trusted by all")


def _acc_leader_agreement(trace, pids, schedule, label, pairs):
    report = check_leader_agreement(trace, pids, schedule)
    return report.ok, "" if report.ok else report.failures()[0].detail


#: Accuracy-property dispatch: what a :class:`DetectorAssumptions` may name.
ACCURACY_PROPERTIES = {
    "eventual_strong": _acc_eventual_strong,
    "perpetual_strong": _acc_perpetual_strong,
    "trusting": _acc_trusting,
    "perpetual_weak": _acc_perpetual_weak,
    "eventual_weak": _acc_eventual_weak,
    "leader_agreement": _acc_leader_agreement,
}


def check_detector_properties(
    trace: Trace,
    pids: Sequence[ProcessId],
    schedule: CrashSchedule,
    assumptions: DetectorAssumptions,
    pairs: Iterable[tuple[ProcessId, ProcessId]] | None = None,
) -> DetectorVerdicts:
    """Judge a run's oracle against *its own* class specification.

    The runtime calls this from ``execute`` with the assumptions of the
    spec's registered detector, so the ``oracle_accuracy_ok`` /
    ``oracle_completeness_ok`` verdict fields always mean "satisfied what
    this detector class promises" — ◇P runs keep the historical battery
    bit for bit.
    """
    pairs = None if pairs is None else list(pairs)
    acc_ok, acc_detail = ACCURACY_PROPERTIES[assumptions.accuracy](
        trace, list(pids), schedule, assumptions.label, pairs)
    if assumptions.completeness == "none":
        comp_ok, comp_detail = True, "not required"
    else:
        report = check_strong_completeness(trace, pids, pids, schedule,
                                           detector=assumptions.label,
                                           pairs=pairs)
        comp_ok = report.ok
        comp_detail = "" if comp_ok else report.failures()[0].detail
    return DetectorVerdicts(
        accuracy_ok=bool(acc_ok), completeness_ok=bool(comp_ok),
        accuracy_property=assumptions.accuracy,
        accuracy_detail=acc_detail, completeness_detail=comp_detail)


def false_positive_count(
    trace: Trace,
    owner: ProcessId,
    target: ProcessId,
    schedule: CrashSchedule,
    detector: str | None = None,
) -> int:
    """Number of suspicion onsets while ``target`` was still live.

    Counts transitions to ``suspected=True`` occurring strictly before the
    target's crash (or ever, for a correct target) — the oracle's "mistakes"
    in the paper's sense, which ◇P must keep finite.
    """
    return _wrongful_onsets(suspicion_series(trace, owner, target, detector),
                            schedule.crash_time(target))


def _wrongful_onsets(series: Sequence[tuple[Time, bool]],
                     ct: Optional[Time]) -> int:
    """:func:`false_positive_count` over an already-read series."""
    count = 0
    prev = None
    for t, s in series:
        if s and prev is False and (ct is None or t < ct):
            count += 1
        prev = s
    # An initial 'suspected' sample also counts as a (wrongful) onset when
    # the target had not crashed at time zero.
    if series and series[0][1] and (ct is None or series[0][0] < ct):
        count += 1
    return count


# -- dining/spec.py and dining/fairness.py -----------------------------------


def check_wait_freedom(
    trace: Trace,
    graph: nx.Graph,
    instance: str,
    schedule: CrashSchedule,
    end_time: Time,
    grace: Time = 0.0,
) -> WaitFreedomReport:
    """Every correct diner's hunger is served.

    A correct diner still hungry at the end of the run counts as starving
    unless its pending hunger began within ``grace`` of ``end_time``
    (finite-run allowance: 'eventually' cannot be refuted by a fresh
    request).  ``max_wait`` is the longest completed-or-pending hungry
    interval across correct diners.
    """
    starving: list[ProcessId] = []
    max_wait = 0.0
    sessions: dict[ProcessId, int] = {}
    for pid in sorted(graph.nodes):
        series = state_series(trace, instance, pid)
        sessions[pid] = sum(1 for _, s in series if s == EATING)
        if schedule.is_faulty(pid):
            continue
        for start, end in state_intervals(series, HUNGRY, end_time):
            max_wait = max(max_wait, end - start)
            closed = end < end_time or (
                series and series[-1][1] != HUNGRY)
            if not closed and start < end_time - grace:
                starving.append(pid)
    return WaitFreedomReport(
        instance=instance,
        ok=not starving,
        starving=starving,
        max_wait=max_wait,
        sessions=sessions,
    )


def measure_fairness(
    trace: Trace,
    graph: nx.Graph,
    instance: str,
    end_time: Time,
    schedule: CrashSchedule | None = None,
) -> FairnessReport:
    """Collect overtaking samples for correct waiters.

    Crashed waiters are excluded (fairness protects *correct* hungry
    processes); crashed eaters still count as overtakers while live.
    """
    samples = overtake_samples(trace, graph, instance, end_time)
    if schedule is not None:
        samples = [s for s in samples if not schedule.is_faulty(s.waiter)]
    return FairnessReport(instance=instance, samples=list(samples))


# -- runtime/builder.py -------------------------------------------------------


def _violation_justified(trace, violation, detector: str = BOX_LABEL) -> bool:
    """Did either endpoint's current eating session begin under suspicion
    of the other?  (The ◇WX mechanism: simultaneous eating is only ever
    enabled by an oracle mistake.)
    """
    for eater, peer in ((violation.u, violation.v), (violation.v, violation.u)):
        begins = [t for t, s in state_series(trace, INSTANCE, eater)
                  if s == EATING and t <= violation.start]
        if begins and suspected_at(trace, eater, peer, max(begins),
                                   detector=detector):
            return True
    return False


def justify_violations(trace, violations, detector: str = BOX_LABEL) -> bool:
    """Check every exclusion violation is oracle-justified.

    Fails loudly rather than silently mis-judging on truncated traces: a
    ring/counters sink may have evicted the very state/suspect rows the
    justification hinges on, and an "unjustified violation" verdict built
    on missing evidence would point at the dining layer for a bookkeeping
    artifact.
    """
    if not violations:
        return True
    if trace.truncated:
        raise SimulationError(
            f"cannot judge {len(violations)} exclusion violation(s): trace "
            f"sink {trace.mode!r} evicted {trace.evicted} of "
            f"{trace.total_recorded} records, so session-start/suspicion "
            "evidence may be gone — rerun with trace='full'"
        )
    return all(_violation_justified(trace, v, detector) for v in violations)


# -- obs/probes.py -----------------------------------------------------------

#: State values mirrored from :class:`repro.types.DinerState` (string form,
#: as recorded in ``"state"`` trace rows).
_HUNGRY = "hungry"
_EATING = "eating"


class RunProbes:
    """Per-run convergence probes feeding a :class:`MetricsRegistry`.

    Subscribe :meth:`on_record` to the engine trace; call
    :meth:`finalize` once, after the run, to publish the end-of-run
    gauges (convergence and stabilization times, open-state counts).
    """

    #: The record kinds :meth:`on_record` dispatches on.  Passed as the
    #: subscription filter so the trace can elide records of other kinds
    #: entirely under non-retaining sinks.
    KINDS = frozenset({"suspect", "state", "crash", "ping", "ack"})

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._finalized = False
        # Oracle state.
        self._crashed: dict["ProcessId", "Time"] = {}
        self._suspected: dict[tuple, bool] = {}
        self._wrongful_open: dict[tuple, "Time"] = {}
        self._last_wrongful_onset: float = 0.0
        self._stabilized_at: dict["ProcessId", float] = {}
        self._converged_at: float = 0.0
        self._c_churn = registry.counter("oracle.suspicion_churn")
        self._c_wrongful = registry.counter("oracle.wrongful_suspicions")
        # Per-detector-label breakdowns: a run may host several labeled
        # suspicion streams (Ω's internal ◇P under "omega.sub", the flawed
        # extraction's substrate under "flawed.sub"), and the lattice
        # compares detectors by their *dining-facing* label only.  The
        # unlabeled aggregates above keep their historical meaning (all
        # labels summed).
        self._c_churn_by: dict[str, object] = {}
        self._c_wrongful_by: dict[str, object] = {}
        self._converged_by: dict[str, float] = {}
        # Dining state.
        self._hungry_since: dict[tuple, "Time"] = {}
        self._c_hungry = registry.counter("dining.hungry_onsets")
        self._c_sessions = registry.counter("dining.sessions")
        self._h_latency = registry.histogram("dining.hungry_to_eating")
        # Witness/subject hand-off state.
        self._ping_at: dict[tuple, "Time"] = {}
        self._c_pings = registry.counter("core.pings")
        self._c_acks = registry.counter("core.acks")
        self._h_rtt = registry.histogram("core.ping_rtt")

    # -- the stream hook -----------------------------------------------------

    def on_record(self, rec: "TraceRecord") -> None:
        kind = rec.kind
        if kind == "suspect":
            self._on_suspect(rec)
        elif kind == "state":
            self._on_state(rec)
        elif kind == "crash":
            self._on_crash(rec.pid, rec.time)
        elif kind == "ping":
            self._ping_at[(rec.pid, rec.get("component"))] = rec.time
            self._c_pings.inc()
        elif kind == "ack":
            sent = self._ping_at.pop((rec.pid, rec.get("component")), None)
            self._c_acks.inc()
            if sent is not None:
                self._h_rtt.observe(rec.time - sent)

    # -- oracle --------------------------------------------------------------

    def _label_counter(self, cache: dict, name: str, label) -> "object":
        key = str(label)
        counter = cache.get(key)
        if counter is None:
            counter = cache[key] = self.registry.counter(name, detector=key)
        return counter

    def _on_suspect(self, rec: "TraceRecord") -> None:
        owner = rec.pid
        data = rec.data
        label = data.get("detector")
        key = (owner, data.get("target"), label)
        suspected = bool(data.get("suspected"))
        if not data.get("initial"):
            self._c_churn.inc()
            self._label_counter(self._c_churn_by, "oracle.suspicion_churn",
                                label).inc()
        self._suspected[key] = suspected
        if suspected:
            # An onset is wrongful when the target has not crashed yet —
            # including the initial suspect-everyone state of the paper's
            # extracted modules (matching
            # repro.oracles.properties.false_positive_count).
            if key[1] not in self._crashed:
                self._c_wrongful.inc()
                self._label_counter(self._c_wrongful_by,
                                    "oracle.wrongful_suspicions",
                                    label).inc()
                self._last_wrongful_onset = max(self._last_wrongful_onset,
                                                rec.time)
                self._wrongful_open[key] = rec.time
        else:
            self._close_wrongful(key, rec.time)

    def _close_wrongful(self, key: tuple, t: "Time") -> None:
        if self._wrongful_open.pop(key, None) is None:
            return
        owner = key[0]
        self._stabilized_at[owner] = max(self._stabilized_at.get(owner, 0.0),
                                         float(t))
        self._converged_at = max(self._converged_at, float(t))
        label = str(key[2])
        self._converged_by[label] = max(self._converged_by.get(label, 0.0),
                                        float(t))

    def _on_crash(self, pid: "ProcessId", t: "Time") -> None:
        self._crashed[pid] = t
        # A crash ends every wrongful interval it is part of: suspecting
        # the now-crashed target becomes rightful, and a crashed owner's
        # frozen output stops counting against convergence.
        for key in [k for k in self._wrongful_open
                    if k[0] == pid or k[1] == pid]:
            self._close_wrongful(key, t)

    # -- dining --------------------------------------------------------------

    def _on_state(self, rec: "TraceRecord") -> None:
        data = rec.data
        state = data.get("state")
        key = (rec.pid, data.get("instance"))
        if state == _HUNGRY:
            self._hungry_since[key] = rec.time
            self._c_hungry.inc()
        elif state == _EATING:
            self._c_sessions.inc()
            since = self._hungry_since.pop(key, None)
            if since is not None:
                self._h_latency.observe(rec.time - since)

    # -- end of run ----------------------------------------------------------

    @property
    def converged(self) -> bool:
        """No wrongful suspicion currently open."""
        return not self._wrongful_open

    def convergence_time(self) -> Optional[float]:
        """End of the last wrongful-suspicion interval (0.0 when the
        oracle was never wrong); None while a wrongful suspicion is open."""
        return self._converged_at if self.converged else None

    def finalize(self, end_time: "Time") -> None:
        """Publish the end-of-run gauges.  Idempotent."""
        if self._finalized:
            return
        self._finalized = True
        reg = self.registry
        reg.gauge("oracle.wrongful_open").set(len(self._wrongful_open))
        reg.gauge("oracle.last_wrongful_onset").set(self._last_wrongful_onset)
        if self.converged:
            reg.gauge("oracle.converged_at").set(self._converged_at)
        # Per-label convergence: a label converged iff none of *its*
        # wrongful intervals are still open — the per-detector verdict the
        # lattice matrix reads even when another label in the same run
        # (e.g. a substrate) is still wrong.
        open_by: dict[str, int] = {}
        for key in self._wrongful_open:
            open_by[str(key[2])] = open_by.get(str(key[2]), 0) + 1
        labels = (set(self._c_wrongful_by) | set(self._converged_by)
                  | set(open_by))
        for label in sorted(labels):
            n_open = open_by.get(label, 0)
            reg.gauge("oracle.wrongful_open", detector=label).set(n_open)
            if n_open == 0:
                reg.gauge("oracle.converged_at", detector=label).set(
                    self._converged_by.get(label, 0.0))
        for owner in sorted(self._stabilized_at):
            reg.gauge("oracle.stabilized_at",
                      process=str(owner)).set(self._stabilized_at[owner])
        reg.gauge("dining.hungry_pending").set(len(self._hungry_since))
        reg.gauge("core.pings_outstanding").set(len(self._ping_at))
        reg.gauge("run.end_time").set(float(end_time))


# -- obs/spans.py ------------------------------------------------------------


class SpanProbe:
    """Materialize typed spans from the trace record stream.

    Subscribe :meth:`on_record` to the engine trace (the builder does
    this when ``RunSpec.spans`` is on); call :meth:`finalize` once after
    the run to close still-open spans at the horizon and obtain the
    deterministic span list (plain dicts, sorted by start time).
    """

    #: Record kinds :meth:`on_record` dispatches on — the subscription
    #: filter, so unrelated kinds can still be elided by the lazy trace
    #: fast path under non-retaining sinks.
    KINDS = frozenset({"suspect", "state", "crash"})

    def __init__(self) -> None:
        self._spans: list[tuple] = []  # rows in _KEYS order
        self._crashed: dict["ProcessId", "Time"] = {}
        #: (owner, target, detector) -> (start, wrongful) of the open
        #: suspicion interval.
        self._susp_open: dict[tuple, tuple[float, bool]] = {}
        #: (pid, instance) -> (start, phase) of the open dining phase.
        self._phase_open: dict[tuple, tuple[float, str]] = {}
        self._converged_at: float = 0.0
        self._finalized: Optional[list[dict[str, Any]]] = None

    # -- the stream hook -----------------------------------------------------

    def on_record(self, rec: "TraceRecord") -> None:
        kind = rec.kind
        if kind == "suspect":
            self._on_suspect(rec)
        elif kind == "state":
            self._on_state(rec)
        elif kind == "crash":
            self._on_crash(rec.pid, rec.time)

    def _on_suspect(self, rec: "TraceRecord") -> None:
        data = rec.data
        key = (rec.pid, data.get("target"), data.get("detector"))
        if data.get("suspected"):
            if key not in self._susp_open:
                # Wrongful exactly when the target has not crashed yet at
                # onset (matching RunProbes / false_positive_count).
                self._susp_open[key] = (rec.time, key[1] not in self._crashed)
        else:
            self._close_suspicion(key, rec.time)

    def _close_suspicion(self, key: tuple, t: float,
                         truncated: bool = False) -> None:
        opened = self._susp_open.pop(key, None)
        if opened is None:
            return
        start, wrongful = opened
        if wrongful and not truncated:
            self._converged_at = max(self._converged_at, float(t))
        self._spans.append(("suspicion", start, float(t), key[0],
                            key[1], key[2], wrongful, None, None, truncated))

    def _on_crash(self, pid: "ProcessId", t: "Time") -> None:
        self._crashed[pid] = t
        self._spans.append(("crash", float(t), float(t), pid,
                            None, None, None, None, None, False))
        # A crash ends every suspicion interval it is part of: suspecting
        # the now-crashed target becomes rightful (the wrongful span ends
        # and a justified continuation opens), and a crashed owner's
        # frozen output stops producing intervals.
        for key in [k for k in self._susp_open if k[0] == pid or k[1] == pid]:
            self._close_suspicion(key, t)
            if key[1] == pid and key[0] not in self._crashed:
                self._susp_open[key] = (float(t), False)
        for pkey in [k for k in self._phase_open if k[0] == pid]:
            start, phase = self._phase_open.pop(pkey)
            self._spans.append(("phase", start, float(t), pid,
                                None, None, None, pkey[1], phase, False))

    def _on_state(self, rec: "TraceRecord") -> None:
        data = rec.data
        key = (rec.pid, data.get("instance"))
        opened = self._phase_open.pop(key, None)
        if opened is not None:
            self._spans.append(("phase", opened[0], rec.time, rec.pid,
                                None, None, None, key[1], opened[1], False))
        state = data.get("state")
        if state is not None:
            self._phase_open[key] = (rec.time, str(state))

    # -- end of run ----------------------------------------------------------

    @property
    def converged(self) -> bool:
        """No wrongful suspicion currently open."""
        return not any(w for _, w in self._susp_open.values())

    def convergence_time(self) -> Optional[float]:
        """End of the last wrongful-suspicion interval (0.0 when the
        oracle was never wrong); None while a wrongful suspicion is open."""
        return self._converged_at if self.converged else None

    def finalize(self, end_time: "Time") -> list[dict[str, Any]]:
        """Close still-open spans at the horizon (``truncated=True``) and
        return the run's spans as plain dicts, sorted by start time.
        Idempotent: later calls return the same list."""
        if self._finalized is not None:
            return self._finalized
        converged = self.converged
        for key in list(self._susp_open):
            self._close_suspicion(key, end_time, truncated=True)
        for pkey, (start, phase) in sorted(self._phase_open.items(),
                                           key=lambda kv: str(kv[0])):
            self._spans.append(("phase", start, float(end_time), pkey[0],
                                None, None, None, pkey[1], phase, True))
        self._phase_open.clear()
        if converged:
            self._spans.append(("convergence", self._converged_at,
                                self._converged_at, "*",
                                None, None, None, None, None, False))
        self._spans.sort(key=_sort_key)
        self._finalized = [dict(zip(_KEYS, row)) for row in self._spans]
        return self._finalized
