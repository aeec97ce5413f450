"""Trace checkers for failure-detector completeness and accuracy.

Each verdict is a read of the per-pair suspicion folds an
:class:`~repro.obs.intervals.IntervalMachine` keeps: the output a pair
last showed, when its final run of equal outputs began (its convergence)
and its wrongful onsets (suspicions of a live target).  A run's own
machine judges online (:func:`detector_verdicts`); each trace-taking
checker replays the ``"suspect"`` rows of a
:class:`~repro.sim.trace.Trace` through a fresh machine seeded with the
ground-truth :class:`~repro.sim.faults.CrashSchedule`.  Eventual
properties are converged-suffix queries that also return the convergence
time, so experiments can show *when* the oracle stabilized, not just
that it did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs.intervals import IntervalMachine
from repro.sim.faults import CrashSchedule
from repro.sim.trace import Trace, TraceRecord
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


def replay(trace: Trace, schedule: CrashSchedule | None,
           detector: str | None,
           owner: ProcessId | None = None) -> IntervalMachine:
    """``trace``'s ``"suspect"`` and ``"leader"`` rows
    (``owner``'s only, when given) folded by a fresh machine seeded with
    ``schedule``.

    Suspicion rows of other detectors are skipped; ``detector=None``
    folds every label into one series per pair, keyed under ``None``."""
    machine = IntervalMachine(schedule)
    for rec in trace.records(kind="suspect", pid=owner):
        label = rec.data.get("detector")
        if detector is None:
            if label is not None:
                rec = TraceRecord(rec.time, rec.kind, rec.pid,
                                  {**rec.data, "detector": None})
        elif label != detector:
            continue
        machine.on_record(rec)
    return machine.replay(trace.records(kind="leader", pid=owner))


def _on_trace(judge):
    """The trace-taking form of a machine-level check: ``judge`` over a
    :func:`replay` of the trace's rows, with ``schedule`` the crash
    ground truth and ``pairs`` restricting the monitoring relation under
    local pair selection."""
    def check(trace: Trace, owners: Iterable[ProcessId],
              targets: Iterable[ProcessId], schedule: CrashSchedule,
              detector: str | None = None,
              pairs: Iterable[tuple[ProcessId, ProcessId]] | None = None):
        return judge(replay(trace, schedule, detector), owners, targets,
                     detector, pairs)

    check.__name__ = check.__qualname__ = f"check_{judge.__name__}"
    check.__doc__ = judge.__doc__
    return check


def strong_completeness(machine: IntervalMachine, owners, targets, label,
                        pairs=None) -> OracleReport:
    """Every crashed target is eventually permanently suspected by every
    correct owner that monitors it (paper: Strong Completeness)."""
    report = OracleReport("strong completeness")
    crashed = machine.crashed
    for owner, target in _monitoring_pairs(owners, targets, pairs):
        ct = crashed.get(target)
        if owner in crashed or ct is None:
            continue  # completeness constrains only crashed targets
        conv = machine.settled(owner, target, label, True)
        ok = conv is not None
        detail = "" if ok else "not permanently suspected"
        if ok and conv < ct:
            # Converged before the crash: legal (completeness does not
            # restrict false positives) but worth surfacing.
            detail = f"suspected since {conv:.1f}, before crash at {ct:.1f}"
        report.pairs.append(PairVerdict(owner, target, ok, conv, detail))
    return report


def eventual_strong_accuracy(machine: IntervalMachine, owners, targets,
                             label, pairs=None) -> OracleReport:
    """Eventually no correct owner suspects any correct target it monitors
    (paper: Eventual Strong Accuracy)."""
    report = OracleReport("eventual strong accuracy")
    crashed = machine.crashed
    for owner, target in _monitoring_pairs(owners, targets, pairs):
        if owner in crashed or target in crashed:
            continue
        conv = machine.settled(owner, target, label, False)
        mistakes = machine.mistakes(owner, target, label)
        report.pairs.append(PairVerdict(owner, target, conv is not None,
                                        conv, f"{mistakes} mistakes"))
    return report


def perpetual_strong_accuracy(machine: IntervalMachine, owners, targets,
                              label, pairs=None) -> OracleReport:
    """No target is ever suspected before it crashes (the P accuracy)."""
    report = OracleReport("perpetual strong accuracy")
    for owner, target in _monitoring_pairs(owners, targets, pairs):
        if owner in machine.crashed:
            continue
        mistakes = machine.mistakes(owner, target, label)
        ok = mistakes == 0
        report.pairs.append(
            PairVerdict(owner, target, ok, 0.0 if ok else None,
                        "" if ok else f"{mistakes} premature suspicions")
        )
    return report


def trusting_accuracy(machine: IntervalMachine, owners, targets, label,
                      pairs=None) -> OracleReport:
    """The T accuracy (paper Section 9): (a) every correct target eventually
    permanently trusted; (b) any trust revocation implies a real crash."""
    report = OracleReport("trusting accuracy")
    crashed = machine.crashed
    for owner, target in _monitoring_pairs(owners, targets, pairs):
        if owner in crashed:
            continue
        ok = True
        conv: Optional[Time] = None
        detail = ""
        if target not in crashed:
            conv = machine.settled(owner, target, label, False)
            if conv is None:
                ok, detail = False, "correct target not permanently trusted"
        pair = machine.pairs.get((owner, target, label))
        if pair is not None and pair.revoked is not None:
            ok = False
            detail = f"trust of live {target} revoked at {pair.revoked:.1f}"
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


def _weak_witness(machine, owners, targets, pairs, trusted_by):
    """``(ok, witness)``: the first correct target ``trusted_by`` every
    correct owner that monitors it."""
    live_owners = [o for o in owners if o not in machine.crashed]
    for target in targets:
        if target in machine.crashed:
            continue
        if all(trusted_by(o, target)
               for o in _owners_of(target, live_owners, pairs)):
            return True, target
    return False, None


def perpetual_weak_accuracy(machine: IntervalMachine, owners, targets,
                            label, pairs=None):
    """The S accuracy: some correct target is never suspected by any
    owner.  Returns ``(ok, witness_target)``."""
    return _weak_witness(machine, owners, targets, pairs, lambda o, t:
                         machine.mistakes(o, t, label) == 0)


def eventual_weak_accuracy(machine: IntervalMachine, owners, targets,
                           label, pairs=None):
    """The ◇S accuracy: some correct target is *eventually* never
    suspected by any correct owner that monitors it.  Returns
    ``(ok, witness_target)``."""
    return _weak_witness(machine, owners, targets, pairs, lambda o, t:
                         machine.settled(o, t, label, False) is not None)


check_strong_completeness = _on_trace(strong_completeness)
check_eventual_strong_accuracy = _on_trace(eventual_strong_accuracy)
check_perpetual_strong_accuracy = _on_trace(perpetual_strong_accuracy)
check_trusting_accuracy = _on_trace(trusting_accuracy)
check_perpetual_weak_accuracy = _on_trace(perpetual_weak_accuracy)
check_eventual_weak_accuracy = _on_trace(eventual_weak_accuracy)


def leader_agreement(machine: IntervalMachine,
                     pids: Sequence[ProcessId]) -> OracleReport:
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
        if owner in machine.crashed:
            continue
        last = machine.leaders.get(owner)
        if last is None:
            report.pairs.append(PairVerdict(
                owner, owner, False, None, "no leader records"))
            continue
        t, leader = last
        finals[owner] = leader
        ok = leader not in machine.crashed
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
            raise ConfigurationError(
                f"unknown accuracy property {self.accuracy!r} (one of: "
                f"{', '.join(sorted(ACCURACY_PROPERTIES))})")
        if self.completeness not in ("strong", "none"):
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


def _first_failure(report: OracleReport) -> tuple[bool, str]:
    return report.ok, "" if report.ok else report.failures()[0].detail


def _battery(judge):
    return lambda machine, pids, label, pairs: _first_failure(
        judge(machine, pids, pids, label, pairs))


def _acc_perpetual_weak(machine, pids, label, pairs):
    ok, witness = perpetual_weak_accuracy(machine, pids, pids, label, pairs)
    return ok, (f"witness {witness}" if ok
                else "every correct process was suspected at some point")


def _acc_eventual_weak(machine, pids, label, pairs):
    ok, witness = eventual_weak_accuracy(machine, pids, pids, label, pairs)
    return ok, (f"witness {witness}" if ok
                else "no correct process is eventually trusted by all")


#: Accuracy-property dispatch: what a :class:`DetectorAssumptions` may name.
ACCURACY_PROPERTIES = {
    "eventual_strong": _battery(eventual_strong_accuracy),
    "perpetual_strong": _battery(perpetual_strong_accuracy),
    "trusting": _battery(trusting_accuracy),
    "perpetual_weak": _acc_perpetual_weak,
    "eventual_weak": _acc_eventual_weak,
    "leader_agreement": lambda machine, pids, label, pairs: _first_failure(
        leader_agreement(machine, pids)),
}


def detector_verdicts(
    machine: IntervalMachine,
    pids: Sequence[ProcessId],
    assumptions: DetectorAssumptions,
    pairs: Iterable[tuple[ProcessId, ProcessId]] | None = None,
) -> DetectorVerdicts:
    """Judge a run's oracle against *its own* class specification, from
    ``machine``'s suspicion folds.

    ``execute`` reads this off the run's own machine with the assumptions
    of the spec's registered detector, so the ``oracle_accuracy_ok`` /
    ``oracle_completeness_ok`` verdict fields always mean "satisfied what
    this detector class promises".
    """
    pairs = None if pairs is None else list(pairs)
    acc_ok, acc_detail = ACCURACY_PROPERTIES[assumptions.accuracy](
        machine, list(pids), assumptions.label, pairs)
    if assumptions.completeness == "none":
        comp_ok, comp_detail = True, "not required"
    else:
        comp_ok, comp_detail = _first_failure(strong_completeness(
            machine, pids, pids, assumptions.label, pairs))
    return DetectorVerdicts(
        accuracy_ok=bool(acc_ok), completeness_ok=bool(comp_ok),
        accuracy_property=assumptions.accuracy,
        accuracy_detail=acc_detail, completeness_detail=comp_detail)


def check_detector_properties(
    trace: Trace,
    pids: Sequence[ProcessId],
    schedule: CrashSchedule,
    assumptions: DetectorAssumptions,
    pairs: Iterable[tuple[ProcessId, ProcessId]] | None = None,
) -> DetectorVerdicts:
    """:func:`detector_verdicts` over a replay of ``trace``."""
    return detector_verdicts(replay(trace, schedule, assumptions.label),
                             pids, assumptions, pairs)


def false_positive_count(
    trace: Trace,
    owner: ProcessId,
    target: ProcessId,
    schedule: CrashSchedule,
    detector: str | None = None,
) -> int:
    """Number of suspicion onsets while ``target`` was still live.

    Counts transitions to ``suspected=True`` occurring strictly before the
    target's crash (or ever, for a correct target), an initial suspected
    output included — the oracle's "mistakes" in the paper's sense, which
    ◇P must keep finite.
    """
    return replay(trace, schedule, detector, owner).mistakes(owner, target,
                                                             detector)
