"""The scanning judge, kept verbatim as the reference for the indexed one.

``Trace.records`` used to walk every retained row on every call,
``check_exclusion`` compared every eating interval of one neighbour with
every interval of the other, and ``overtake_samples`` counted onsets by a
scan per hungry interval.  The bodies below are those versions, unchanged
apart from being module functions; ``test_judge_equivalence`` holds the
indexed judge to them.
"""

from __future__ import annotations

from typing import Callable

import networkx as nx

from repro.dining.spec import (
    ExclusionReport,
    ExclusionViolation,
    OvertakeSample,
    eating_intervals,
    state_series,
)
from repro.sim.faults import CrashSchedule
from repro.sim.trace import Trace, TraceRecord, intervals_overlap, state_intervals
from repro.types import DinerState, ProcessId, Time

Interval = tuple[Time, Time]


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
