"""Eventually k-fair dining as an asynchronous wrapper (paper Section 8).

The paper's secondary result: WF-◇WX dining encapsulates enough synchronism
to schedule *eventually k-fairly* — there is an asynchronous transformation
turning any WF-◇WX solution (plus ◇P, which the reduction supplies) into a
WF-◇WX solution where eventually no diner enters its critical section more
than ``k`` times while a correct neighbor stays hungry (cf. [13]).

:class:`FairDining` is such a transformation, as a wrapper layer:

* on becoming hungry, a diner announces a **want** carrying a Lamport
  timestamp to its neighbors and withdraws it on exit (**served**);
* a hungry diner enters the *inner* black-box instance only while
  *entitled*: for every neighbor with a standing want it either
  (a) suspects the neighbor (◇P completeness keeps crashed neighbors from
  blocking anyone — wait-freedom), or
  (b) has eaten fewer than ``k`` times since that want arrived (the
  overtake budget), or
  (c) holds a strictly older want itself (Lamport ``(ts, id)`` order).

Rule (c) makes the deferral relation a partial order, so no deadlock cycle
can form: among any set of mutually-waiting hungry diners the one with the
oldest want defers to nobody.  Rule (b) bounds overtaking once ◇P stops
suspecting correct processes and wants propagate: a neighbor's standing
want can be overtaken at most ``k`` times on budget plus once more by a
still-older want, giving eventual (k+1)-bounded overtaking in the worst
case and typically ≤ k (experiment E13 quantifies this).

The wrapper presents the standard diner client API and records its states
under its own instance id, so every spec checker applies unchanged.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx

from repro.dining.base import DinerComponent, DiningInstance, SuspicionProvider
from repro.errors import ConfigurationError
from repro.sim.component import action, receive
from repro.sim.engine import Engine
from repro.types import DinerState, Message, ProcessId


class FairDiner(DinerComponent):
    """One wrapped diner: client API outside, entitlement gate inside."""

    def __init__(self, name: str, instance_id: str,
                 neighbors: tuple[ProcessId, ...],
                 inner: DinerComponent, suspect, k: int) -> None:
        super().__init__(name, instance_id, neighbors)
        if k < 1:
            raise ConfigurationError("fairness bound k must be >= 1")
        self.inner = inner
        self.suspect = suspect
        self.k = int(k)
        self.rounds_completed = 0
        self._lamport = 0
        self._want_seq = 0
        self._my_want: Optional[tuple[int, str]] = None   # (ts, pid)
        #: neighbor -> (their want seq, their (ts, pid), my rounds at arrival)
        self._wants: dict[ProcessId, tuple[int, tuple[int, str], int]] = {}
        self.deferrals = 0   # diagnostic: times entitlement gate held us back

    # -- lamport clock -------------------------------------------------------

    def _tick(self, seen: int = 0) -> int:
        self._lamport = max(self._lamport, seen) + 1
        return self._lamport

    # -- client surface -------------------------------------------------------

    def on_hungry(self) -> None:
        self._want_seq += 1
        ts = self._tick()
        self._my_want = (ts, self.pid)
        self.send_all(self.neighbors, self.name, "want",
                      seq=self._want_seq, ts=ts)

    def on_exit(self) -> None:
        self.rounds_completed += 1
        self._my_want = None
        self.inner.exit_eating()
        self.send_all(self.neighbors, self.name, "served", seq=self._want_seq)

    # -- the entitlement gate ---------------------------------------------------

    def entitled(self) -> bool:
        """May we enter the inner instance right now?"""
        assert self._my_want is not None
        for q, (_seq, their_want, rounds_then) in self._wants.items():
            if self.suspect(q):
                continue                       # crashed (or presumed so)
            if self.rounds_completed - rounds_then < self.k:
                continue                       # overtake budget not spent
            if self._my_want < their_want:
                continue                       # our hunger is strictly older
            return False
        return True

    @action(guard=lambda self: self.state is DinerState.HUNGRY
            and self.inner.state is DinerState.THINKING)
    def enter_inner_when_entitled(self) -> None:
        if self.entitled():
            self.inner.become_hungry()
        else:
            self.deferrals += 1

    @action(guard=lambda self: self.state is DinerState.HUNGRY
            and self.inner.state is DinerState.EATING)
    def begin_eating(self) -> None:
        self._set_state(DinerState.EATING)

    @action(guard=lambda self: self.state is DinerState.EXITING
            and self.inner.state is not DinerState.EATING
            and self.inner.state is not DinerState.EXITING)
    def finish_exiting(self) -> None:
        self._set_state(DinerState.THINKING)

    # -- want bookkeeping ----------------------------------------------------------

    @receive("want")
    def on_want(self, msg: Message) -> None:
        self._tick(msg.payload["ts"])
        q = msg.sender
        current = self._wants.get(q)
        if current is not None and current[0] >= msg.payload["seq"]:
            return   # non-FIFO channels: stale want
        self._wants[q] = (
            msg.payload["seq"],
            (msg.payload["ts"], q),
            self.rounds_completed,
        )

    @receive("served")
    def on_served(self, msg: Message) -> None:
        self._tick()
        q = msg.sender
        current = self._wants.get(q)
        if current is not None and current[0] <= msg.payload["seq"]:
            del self._wants[q]


class FairDining(DiningInstance):
    """Wrap any dining factory into an eventually k-fair instance.

    ``inner_factory(instance_id, graph)`` builds the underlying black box;
    the wrapper adds one :class:`FairDiner` per vertex in front of it.
    """

    def __init__(self, instance_id: str, graph: nx.Graph,
                 inner_factory, suspicion_provider: SuspicionProvider,
                 k: int = 2) -> None:
        super().__init__(instance_id, graph)
        self.inner = inner_factory(f"{instance_id}.inner", graph)
        self.suspicion_provider = suspicion_provider
        self.k = k
        self._inner_diners = None

    def attach(self, engine: Engine):
        self._inner_diners = self.inner.attach(engine)
        return super().attach(engine)

    def build_diner(self, pid: ProcessId,
                    neighbors: tuple[ProcessId, ...]) -> FairDiner:
        assert self._inner_diners is not None
        return FairDiner(
            self.component_name(), self.instance_id, neighbors,
            inner=self._inner_diners[pid],
            suspect=self.suspicion_provider(pid),
            k=self.k,
        )
