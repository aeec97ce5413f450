"""The diner client interface and the dining-instance factory contract.

Every dining algorithm exposes the same client surface, so callers — the
paper's witness/subject threads, the contention manager, the WSN duty
scheduler, plain client drivers — can treat any implementation as a black
box:

* ``diner.state`` — current :class:`~repro.types.DinerState`;
* ``diner.become_hungry()`` — legal only while thinking;
* ``diner.exit_eating()``  — legal only while eating; the algorithm must
  complete exiting → thinking in finite time.

The *algorithm* owns the hungry → eating transition.  State changes are
recorded as ``"state"`` trace rows (``instance``, ``state``), the raw
material for every checker in :mod:`repro.dining.spec`.
"""

from __future__ import annotations

import abc
import operator
from typing import TYPE_CHECKING, Callable, Mapping

import networkx as nx

from repro.errors import ConfigurationError, SpecificationViolation
from repro.graphs import neighbors_map, validate_conflict_graph
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.types import DinerState, ProcessId

if TYPE_CHECKING:  # pragma: no cover
    pass

#: ``suspicion_provider(owner_pid)`` returns the local suspicion query
#: ``suspect(q) -> bool`` that the algorithm at ``owner_pid`` may consult.
SuspicionProvider = Callable[[ProcessId], Callable[[ProcessId], bool]]

_LEGAL_CLIENT_TRANSITIONS = {
    (DinerState.THINKING, DinerState.HUNGRY),
    (DinerState.EATING, DinerState.EXITING),
}


class DinerComponent(Component):
    """Base class for one diner of one dining instance.

    ``name`` is ``f"{instance_id}:{role_tag}"`` and doubles as the message
    tag for intra-instance protocol traffic.
    """

    def __init__(self, name: str, instance_id: str,
                 neighbors: tuple[ProcessId, ...]) -> None:
        super().__init__(name)
        self.instance_id = instance_id
        self.neighbors = tuple(neighbors)
        self._state = DinerState.THINKING
        self.sessions_eaten = 0

    # -- client surface ------------------------------------------------------

    #: The current :class:`~repro.types.DinerState`.  A C-level getter:
    #: guards read it on every scheduler probe.
    state = property(operator.attrgetter("_state"))

    def become_hungry(self) -> None:
        """Client transition thinking → hungry."""
        self._client_transition(DinerState.HUNGRY)
        self.on_hungry()

    def exit_eating(self) -> None:
        """Client transition eating → exiting; the algorithm finishes it."""
        self._client_transition(DinerState.EXITING)
        self.on_exit()

    # -- algorithm hooks --------------------------------------------------------

    def on_hungry(self) -> None:
        """Called right after the client becomes hungry."""

    def on_exit(self) -> None:
        """Called right after the client starts exiting."""

    # -- state plumbing -----------------------------------------------------------

    def _set_state(self, new: DinerState) -> None:
        if new is self._state:
            return
        if new is DinerState.EATING:
            self.sessions_eaten += 1
        self._state = new
        # ``_value_`` is ``.value`` without the enum descriptor's frames.
        self.record("state", instance=self.instance_id, state=new._value_)

    def _client_transition(self, new: DinerState) -> None:
        if (self._state, new) not in _LEGAL_CLIENT_TRANSITIONS:
            raise SpecificationViolation(
                f"diner {self.name}@{self.pid}: illegal client transition "
                f"{self._state} -> {new}"
            )
        self._set_state(new)

    def attached(self) -> None:
        # Record the initial thinking state so interval extraction always
        # sees a defined start.
        self.record("state", instance=self.instance_id,
                    state=self._state.value, initial=True)


class DiningInstance(abc.ABC):
    """Factory installing one algorithm instance over a conflict graph.

    Subclasses build their concrete :class:`DinerComponent` per vertex.
    ``attach`` wires every diner onto its (pre-existing) engine process and
    returns the handle map clients use.
    """

    def __init__(self, instance_id: str, graph: nx.Graph) -> None:
        if not instance_id:
            raise ConfigurationError("instance_id must be non-empty")
        # Connectivity is a run-spec-level policy (see RunSpec.allow_
        # disconnected); an instance itself works per component.
        validate_conflict_graph(graph, allow_disconnected=True)
        self.instance_id = instance_id
        self.graph = graph
        self.adjacency = neighbors_map(graph)
        self.diners: dict[ProcessId, DinerComponent] = {}

    @abc.abstractmethod
    def build_diner(self, pid: ProcessId,
                    neighbors: tuple[ProcessId, ...]) -> DinerComponent:
        """Construct the diner component for vertex ``pid``."""

    def component_name(self) -> str:
        """The (per-process-unique) component/message tag of this instance."""
        return f"{self.instance_id}:diner"

    def attach(self, engine: Engine) -> Mapping[ProcessId, DinerComponent]:
        """Install one diner per vertex onto the engine's processes, and
        count the instance in the run's ``dining.instances``."""
        if self.diners:
            raise ConfigurationError(
                f"instance {self.instance_id} already attached"
            )
        for pid in sorted(self.graph.nodes):
            diner = self.build_diner(pid, tuple(self.adjacency[pid]))
            engine.process(pid).add_component(diner)
            self.diners[pid] = diner
        engine.registry.counter("dining.instances").inc()
        return self.diners

    def diner(self, pid: ProcessId) -> DinerComponent:
        try:
            return self.diners[pid]
        except KeyError:
            raise ConfigurationError(
                f"instance {self.instance_id}: no diner at {pid!r} "
                "(not attached, or pid not in the conflict graph)"
            ) from None


#: Black-box dining constructor: ``factory(instance_id, graph) -> instance``.
DiningBoxFactory = Callable[[str, nx.Graph], DiningInstance]
