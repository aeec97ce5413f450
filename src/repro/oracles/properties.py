"""Trace checkers for failure-detector completeness and accuracy.

Each checker consumes a run :class:`~repro.sim.trace.Trace` (the ``"suspect"``
rows emitted by :class:`~repro.oracles.base.OracleModule`) plus the ground
truth :class:`~repro.sim.faults.CrashSchedule`, and produces a structured
report.  Eventual properties are verified as converged-suffix queries that
also return the convergence time, so experiments can show *when* the oracle
stabilized, not just that it did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.sim.faults import CrashSchedule
from repro.sim.temporal import convergence_time
from repro.sim.trace import Trace
from repro.types import ProcessId, Time


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


@dataclass(frozen=True)
class PairVerdict:
    """Verdict for one (owner, target) monitoring relation."""

    owner: ProcessId
    target: ProcessId
    ok: bool
    convergence: Optional[Time]
    detail: str = ""


@dataclass
class OracleReport:
    """Aggregated verdicts for one oracle property over a run."""

    property_name: str
    pairs: list[PairVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.pairs)

    @property
    def convergence(self) -> Optional[Time]:
        """Latest per-pair convergence time (None when any pair failed)."""
        if not self.ok or not self.pairs:
            return None
        times = [p.convergence for p in self.pairs if p.convergence is not None]
        return max(times, default=0.0)

    def failures(self) -> list[PairVerdict]:
        return [p for p in self.pairs if not p.ok]

    def format_table(self) -> str:
        lines = [f"{self.property_name}: {'OK' if self.ok else 'VIOLATED'}"]
        for p in self.pairs:
            conv = f"@{p.convergence:.1f}" if p.convergence is not None else "never"
            status = "ok " if p.ok else "FAIL"
            extra = f"  ({p.detail})" if p.detail else ""
            lines.append(f"  {status} {p.owner} monitors {p.target}: {conv}{extra}")
        return "\n".join(lines)


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


# -- detector-specific battery dispatch ---------------------------------------


@dataclass(frozen=True)
class DetectorAssumptions:
    """Which completeness/accuracy battery a detector class is judged by.

    Historically the runtime judged every run against ◇P's expectations
    (eventual strong accuracy + strong completeness on the ``"boxfd"``
    label).  These assumptions are now *parameters*, sourced from the
    detector registry entry of the run's
    :class:`~repro.oracles.registry.DetectorSpec`, so an S or ◇S run is
    verified against its own specification instead of ◇P's.

    ``accuracy`` is one of :data:`ACCURACY_PROPERTIES`; ``completeness``
    is ``"strong"`` or ``"none"``; ``label`` restricts the checkers to
    ``"suspect"`` rows of that detector.
    """

    accuracy: str = "eventual_strong"
    completeness: str = "strong"
    label: Optional[str] = "boxfd"

    def __post_init__(self) -> None:
        if self.accuracy not in ACCURACY_PROPERTIES:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"unknown accuracy property {self.accuracy!r} (one of: "
                f"{', '.join(sorted(ACCURACY_PROPERTIES))})")
        if self.completeness not in ("strong", "none"):
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"unknown completeness property {self.completeness!r} "
                "(strong | none)")


@dataclass(frozen=True)
class DetectorVerdicts:
    """The two-bit outcome of :func:`check_detector_properties`."""

    accuracy_ok: bool
    completeness_ok: bool
    accuracy_property: str
    accuracy_detail: str = ""
    completeness_detail: str = ""


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
