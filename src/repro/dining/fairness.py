"""Eventual k-fairness measurement (paper Section 8).

*Eventual k-fairness* ([13]): for each run there is a time after which no
process enters its critical section more than ``k`` consecutive times while
any correct neighbor remains hungry.  We measure the equivalent overtaking
statistic from traces: for every maximal hungry interval of a diner, how
many times did each neighbor start eating inside it?

The paper's secondary result: composing any WF-◇WX solution with the
reduction (→ ◇P) and the construction of [13] (→ fair dining) yields
eventual 2-fairness.  Our ◇P-based hygienic algorithm exhibits eventual
bounded overtaking directly, which experiment E6 quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import networkx as nx

from repro.dining.spec import (
    OvertakeSample,
    eventual_k_fairness,
    judged,
    overtakes_of,
)
from repro.obs.intervals import IntervalMachine
from repro.sim.faults import CrashSchedule
from repro.sim.trace import Trace
from repro.types import ProcessId, Time


@dataclass
class FairnessReport:
    """Overtaking statistics for one instance."""

    instance: str
    samples: list[OvertakeSample] = field(default_factory=list)

    def worst_overall(self) -> int:
        return max((s.count for s in self.samples), default=0)

    def worst_after(self, t: Time) -> int:
        return max((s.count for s in self.samples if s.hungry_start >= t), default=0)

    def eventual_k(self, horizon: Time) -> Optional[int]:
        """Smallest k such that all samples after ``horizon`` respect k."""
        return self.worst_after(horizon)

    def convergence_to_k(self, k: int) -> Optional[Time]:
        """Earliest hungry-start time from which every sample has count <= k.

        ``None`` when the final suffix exceeds ``k`` — including the case
        where the last sample itself offends, so no fair suffix was ever
        *witnessed* (an empty suffix is not evidence of convergence).
        """
        offenders = [s.hungry_start for s in self.samples if s.count > k]
        if not offenders:
            return 0.0
        cutoff = max(offenders) + 1e-9
        witnessed = any(s.hungry_start >= cutoff for s in self.samples)
        if not witnessed:
            return None
        ok, _ = eventual_k_fairness(self.samples, k, after=cutoff)
        return cutoff if ok else None

    def per_pair_worst(self) -> dict[tuple[ProcessId, ProcessId], int]:
        out: dict[tuple[ProcessId, ProcessId], int] = {}
        for s in self.samples:
            key = (s.waiter, s.eater)
            out[key] = max(out.get(key, 0), s.count)
        return out

    def format_table(self) -> str:
        lines = [
            f"fairness[{self.instance}]: worst overtaking {self.worst_overall()}"
        ]
        for (w, e), n in sorted(self.per_pair_worst().items()):
            lines.append(f"  {e} overtook hungry {w} up to {n}x")
        return "\n".join(lines)


def fairness_of(machine: IntervalMachine) -> FairnessReport:
    """Overtaking samples of correct waiters, from the diner intervals
    ``machine`` folded.

    Crashed waiters are excluded (fairness protects *correct* hungry
    processes); crashed eaters still count as overtakers while live.
    """
    return FairnessReport(instance=machine.instance, samples=[
        s for s in overtakes_of(machine)
        if s.waiter not in machine.crashed])


def measure_fairness(trace: Trace, graph: nx.Graph, instance: str,
                     end_time: Time, schedule: CrashSchedule | None = None
                     ) -> FairnessReport:
    """Collect overtaking samples for correct waiters
    (:func:`fairness_of` over a replay of ``trace``)."""
    return fairness_of(judged(trace, graph, instance, schedule, end_time))
