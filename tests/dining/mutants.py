"""Deliberately broken dining implementations (negative controls).

A verification suite is only trustworthy if it *fails* the guilty: these
mutants violate exactly one clause of the dining specification each, and
``test_mutants`` asserts every checker convicts its mutant
(and acquits it of the clauses it does not violate).

* :class:`RecklessDining` — schedules every hungry diner immediately:
  perfectly wait-free, never exclusive (◇WX violated: conflicts recur
  forever under recurring hunger).
* :class:`SnobbishDining` — a correct algorithm that permanently refuses
  one victim diner: exclusion holds, wait-freedom violated.
* :class:`LateDining` — stops scheduling anyone after an internal cutoff:
  trivially exclusive eventually, wait-freedom violated for everyone
  hungry after the cutoff.

These are **not** legal black boxes for the reduction; they exist to test
the test equipment.  (Contrast with
:class:`~repro.dining.deferred.DeferredExclusionDining`, which is legal.)
"""

from __future__ import annotations

import networkx as nx

from repro.dining.base import DinerComponent, DiningInstance
from repro.dining.hygienic import never_suspect
from repro.dining.wf_ewx import EWXDiner
from repro.sim.component import action
from repro.types import DinerState, ProcessId, Time


class _GreedyDiner(DinerComponent):
    """Eats the moment it is hungry; no coordination whatsoever."""

    @action(guard=lambda self: self.state is DinerState.HUNGRY)
    def grab(self) -> None:
        self._set_state(DinerState.EATING)

    @action(guard=lambda self: self.state is DinerState.EXITING)
    def finish(self) -> None:
        self._set_state(DinerState.THINKING)


class RecklessDining(DiningInstance):
    """Wait-free, never exclusive."""

    def build_diner(self, pid: ProcessId,
                    neighbors: tuple[ProcessId, ...]) -> DinerComponent:
        return _GreedyDiner(self.component_name(), self.instance_id,
                            neighbors)


class _SnubbedDiner(EWXDiner):
    """A hygienic diner whose eat rule is disabled forever."""

    @action(guard=lambda self: False)
    def enter_critical_section(self) -> None:  # pragma: no cover - never runs
        raise AssertionError("victim must never eat")


class SnobbishDining(DiningInstance):
    """Correct hygienic dining, except ``victim`` is never scheduled."""

    def __init__(self, instance_id: str, graph: nx.Graph,
                 victim: ProcessId) -> None:
        super().__init__(instance_id, graph)
        self.victim = victim

    def build_diner(self, pid: ProcessId,
                    neighbors: tuple[ProcessId, ...]) -> DinerComponent:
        cls = _SnubbedDiner if pid == self.victim else EWXDiner
        return cls(self.component_name(), self.instance_id, neighbors,
                   suspect=never_suspect(pid))


class _QuittingDiner(_GreedyDiner):
    """Greedy until the cutoff, then never schedules again."""

    def __init__(self, name: str, instance_id: str,
                 neighbors: tuple[ProcessId, ...], cutoff: Time) -> None:
        super().__init__(name, instance_id, neighbors)
        self.cutoff = float(cutoff)

    @action(guard=lambda self: self.state is DinerState.HUNGRY)
    def grab(self) -> None:
        if self.process.env_now() < self.cutoff:
            self._set_state(DinerState.EATING)


class LateDining(DiningInstance):
    """Schedules greedily until ``cutoff``, then starves everyone."""

    def __init__(self, instance_id: str, graph: nx.Graph,
                 cutoff: Time = 200.0) -> None:
        super().__init__(instance_id, graph)
        self.cutoff = cutoff

    def build_diner(self, pid: ProcessId,
                    neighbors: tuple[ProcessId, ...]) -> DinerComponent:
        return _QuittingDiner(self.component_name(), self.instance_id,
                              neighbors, cutoff=self.cutoff)
