"""Trace checkers for the dining problem specification.

The paper's two requirements (Section 4):

* **Eventual Weak Exclusion (◇WX)** — for every run there is a time after
  which no two *live* neighbors eat simultaneously.  On a finite trace this
  is reported as violation data (count + time of the last violation) rather
  than a boolean, because finitely many violations are legal; experiments
  assert convergence against their own knowledge of the run (e.g. the
  oracle's convergence time).
* **Wait-Freedom** — if correct processes eat for finite time, every
  correct hungry process eventually eats, regardless of crashes.

Perpetual weak exclusion (WX, Section 9) and eventual k-fairness
(Section 8) checkers are also provided.

Each verdict is a read of the diner intervals an
:class:`~repro.obs.intervals.IntervalMachine` folded (the ``*_of``
functions): a run's own machine judges online, whether or not its trace
keeps rows, and each trace-taking ``check_*`` replays the trace's state
rows through a fresh machine (:func:`judged`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

import networkx as nx

from repro.obs.intervals import IntervalMachine
from repro.sim.faults import CrashSchedule
from repro.sim.trace import Trace
from repro.types import DinerState, ProcessId, Time

Interval = tuple[Time, Time]

# The phase string "state" rows carry, read once: ``DinerState.X.value``
# runs the enum descriptor on every access.
HUNGRY = DinerState.HUNGRY.value


def state_series(trace: Trace, instance: str, pid: ProcessId) -> list[tuple[Time, str]]:
    """The diner's ``(time, state)`` series for one instance."""
    return [(r.time, r.data["state"])
            for r in trace.records(kind="state", pid=pid)
            if r.data.get("instance") == instance]


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
    machine = judged(trace, nx.empty_graph([pid]), instance, schedule,
                     end_time, pid)
    return _clip(machine.diners[pid].eating, machine.crashed.get(pid))


def hungry_intervals(
    trace: Trace,
    instance: str,
    pid: ProcessId,
    end_time: Time,
) -> list[Interval]:
    """Closed hungry sessions of one diner (not crash-clipped)."""
    machine = judged(trace, nx.empty_graph([pid]), instance, None,
                     end_time, pid)
    return machine.diners[pid].hungry


@dataclass(frozen=True)
class ExclusionViolation:
    """Two live neighbors eating simultaneously during ``[start, end)``."""

    u: ProcessId
    v: ProcessId
    start: Time
    end: Time


@dataclass
class ExclusionReport:
    """◇WX / WX verdict data for one instance."""

    instance: str
    violations: list[ExclusionViolation] = field(default_factory=list)
    end_time: Time = 0.0

    @property
    def count(self) -> int:
        return len(self.violations)

    @property
    def last_violation_end(self) -> Optional[Time]:
        """End of the final violation — the empirical ◇WX convergence point."""
        return max((v.end for v in self.violations), default=None)

    @property
    def perpetual_ok(self) -> bool:
        """True iff the run satisfies *perpetual* weak exclusion."""
        return not self.violations

    def eventually_exclusive_by(self, t: Time) -> bool:
        """Did all violations end by time ``t``?  (◇WX convergence test.)"""
        last = self.last_violation_end
        return last is None or last <= t

    def format_table(self) -> str:
        head = (
            f"exclusion[{self.instance}]: {self.count} violation(s), "
            f"last ends at "
            f"{'-' if self.last_violation_end is None else f'{self.last_violation_end:.1f}'}"
        )
        rows = [
            f"  {v.u}<->{v.v}: [{v.start:.1f}, {v.end:.1f})"
            for v in self.violations[:20]
        ]
        if self.count > 20:
            rows.append(f"  ... {self.count - 20} more")
        return "\n".join([head] + rows)


def judged(trace: Trace, graph: nx.Graph, instance: str,
           schedule: CrashSchedule | None, end_time: Time,
           pid: Optional[ProcessId] = None) -> IntervalMachine:
    """``trace``'s state rows (``pid``'s only, when given) folded
    by a fresh machine judging ``instance`` on ``graph`` — the offline
    form of what a run's own machine judged online."""
    machine = IntervalMachine(schedule).judge(graph, instance, None)
    machine.replay(trace.records(kind="state", pid=pid))
    machine.finish(end_time)
    return machine


def exclusion_of(machine: IntervalMachine) -> ExclusionReport:
    """Every interval during which two live neighbors ate together, from
    the eating intervals ``machine`` folded, clipped at crashes.

    Each diner's eating intervals are time-ordered and disjoint, so one
    two-pointer sweep per edge finds every genuinely overlapping pair:
    the interval that ends first can overlap nothing later in the other
    list.
    """
    graph = machine.graph
    report = ExclusionReport(instance=machine.instance,
                             end_time=machine.end_time)
    ivs = {pid: _clip(machine.diners[pid].eating, machine.crashed.get(pid))
           for pid in graph.nodes}
    violations = report.violations
    for u, v in sorted(tuple(sorted(e)) for e in graph.edges):
        xs, ys = ivs[u], ivs[v]
        i = j = 0
        while i < len(xs) and j < len(ys):
            a0, a1 = xs[i]
            b0, b1 = ys[j]
            if a0 < b1 and b0 < a1:
                violations.append(ExclusionViolation(
                    u=u, v=v, start=max(a0, b0), end=min(a1, b1)))
            if a1 <= b1:
                i += 1
            else:
                j += 1
    violations.sort(key=lambda x: (x.start, x.end, x.u, x.v))
    return report


def check_exclusion(trace: Trace, graph: nx.Graph, instance: str,
                    schedule: CrashSchedule, end_time: Time) -> ExclusionReport:
    """Find every interval during which two live neighbors ate together
    (:func:`exclusion_of` over a replay of ``trace``)."""
    return exclusion_of(judged(trace, graph, instance, schedule, end_time))


@dataclass
class WaitFreedomReport:
    """Wait-freedom verdict for one instance."""

    instance: str
    ok: bool
    starving: list[ProcessId] = field(default_factory=list)
    max_wait: Time = 0.0
    sessions: dict[ProcessId, int] = field(default_factory=dict)

    def format_table(self) -> str:
        lines = [
            f"wait-freedom[{self.instance}]: {'OK' if self.ok else 'VIOLATED'} "
            f"(max hungry wait {self.max_wait:.1f})"
        ]
        if self.starving:
            lines.append(f"  starving: {', '.join(self.starving)}")
        for pid, n in sorted(self.sessions.items()):
            lines.append(f"  {pid}: {n} eating session(s)")
        return "\n".join(lines)


def wait_freedom_of(machine: IntervalMachine,
                    grace: Time = 0.0) -> WaitFreedomReport:
    """Every correct diner's hunger is served, by the hungry intervals
    ``machine`` folded.

    A correct diner still hungry at the end of the run counts as starving
    unless its pending hunger began within ``grace`` of the end
    (finite-run allowance: 'eventually' cannot be refuted by a fresh
    request).  ``max_wait`` is the longest completed-or-pending hungry
    interval across correct diners.
    """
    end_time = machine.end_time
    starving: list[ProcessId] = []
    max_wait = 0.0
    sessions: dict[ProcessId, int] = {}
    for pid in sorted(machine.graph.nodes):
        diner = machine.diners[pid]
        sessions[pid] = len(diner.onsets)
        if pid in machine.crashed:
            continue
        for start, end in diner.hungry:
            max_wait = max(max_wait, end - start)
            closed = end < end_time or diner.last != HUNGRY
            if not closed and start < end_time - grace:
                starving.append(pid)
    return WaitFreedomReport(
        instance=machine.instance,
        ok=not starving,
        starving=starving,
        max_wait=max_wait,
        sessions=sessions,
    )


def check_wait_freedom(trace: Trace, graph: nx.Graph, instance: str,
                       schedule: CrashSchedule, end_time: Time,
                       grace: Time = 0.0) -> WaitFreedomReport:
    """Every correct diner's hunger is served (:func:`wait_freedom_of`
    over a replay of ``trace``)."""
    return wait_freedom_of(judged(trace, graph, instance, schedule, end_time),
                           grace)


@dataclass(frozen=True)
class OvertakeSample:
    """How often neighbor ``eater`` ate during one hungry interval of ``waiter``."""

    waiter: ProcessId
    eater: ProcessId
    hungry_start: Time
    count: int


def overtakes_of(machine: IntervalMachine) -> list[OvertakeSample]:
    """For every hungry interval of every diner, count each neighbor's
    eating-session onsets inside it (the k-fairness statistic, Section 8).

    Onsets are time-ordered, so the count in ``(start, end]`` is a
    difference of two bisections."""
    graph, diners = machine.graph, machine.diners
    samples: list[OvertakeSample] = []
    for pid in sorted(graph.nodes):
        nbrs = sorted(graph.neighbors(pid))
        for start, end in diners[pid].hungry:
            for nbr in nbrs:
                times = diners[nbr].onsets
                n = bisect_right(times, end) - bisect_right(times, start)
                samples.append(OvertakeSample(pid, nbr, start, n))
    return samples


def eventual_k_fairness(
    samples: Sequence[OvertakeSample],
    k: int,
    after: Time = 0.0,
) -> tuple[bool, int]:
    """Does every sample starting after ``after`` respect the bound ``k``?

    Returns ``(ok, worst_count_in_suffix)``.
    """
    suffix = [s for s in samples if s.hungry_start >= after]
    worst = max((s.count for s in suffix), default=0)
    return worst <= k, worst
