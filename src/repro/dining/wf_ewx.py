"""Wait-free dining under eventual weak exclusion, from ◇P.

This is the sufficiency-side algorithm (the paper's reference [12], Pike &
Song): classic hygienic dining (Chandy–Misra fork/request-token protocol)
with a *suspicion override* — a hungry diner may begin eating once, for
every neighbor, it either holds the shared fork or currently suspects the
neighbor per its local ◇P module.

Why the two properties hold:

* **Wait-freedom** — a crashed neighbor is eventually permanently suspected
  (◇P strong completeness), so its unrecoverable fork stops blocking anyone;
  among correct processes the hygienic clean/dirty priority gives classic
  starvation-freedom.
* **◇WX** — while ◇P makes mistakes a diner may eat without a live
  neighbor's fork, so both may eat together; once ◇P converges no correct
  neighbor is suspected, eating again requires real forks, and fork tokens
  are never duplicated — so live neighbors stop eating simultaneously.

Per-edge token discipline (the hygienic invariants, enforced and tested):

* exactly one **fork** and one **request token** per edge, on opposite
  sides or in transit;
* forks start dirty at the lower-id endpoint (an acyclic priority
  orientation);
* a holder yields a *dirty* fork on request unless eating (cleaning it in
  transit); a *clean* fork is kept until after the holder eats;
* a transferred fork lands **clean only at a hungry receiver whose last
  meal is older than the sender's** (meal-recency rule, below); otherwise
  it lands dirty.

The meal-recency rule replaces the classic "clean on arrival at the
requester" convention, which is sound only when every meal consumes all
of the eater's forks.  The suspicion override breaks that premise: a
diner may eat while a fork sits at its neighbor, so the neighbor-side
orientation silently survives the meal, and a later request can land the
fork clean at the *more recent* eater.  Three such inverted edges close a
cycle of clean forks among hungry diners — permanent deadlock (first
reproduced by the chaos runner under heavy retransmission delay, where a
request token crossed the wire ~270 time units late).  Landing forks
clean only along the true meal-recency order keeps the blocking relation
a sub-order of a total order, hence acyclic: deadlock-freedom, and the
globally oldest hungry diner always wins every shared edge, hence
starvation-freedom.  Fork transfers carry the sender's last-meal stamp;
the simulation's event clock serves as the timestamp (a Lamport clock
would do the same job in a real deployment).
"""

from __future__ import annotations

from typing import Callable

import networkx as nx

from repro.dining.base import DinerComponent, DiningInstance, SuspicionProvider
from repro.sim.component import action, receive
from repro.types import DinerState, Message, ProcessId

Suspect = Callable[[ProcessId], bool]


class EWXDiner(DinerComponent):
    """One diner of a :class:`WaitFreeEWXDining` instance."""

    def __init__(self, name: str, instance_id: str,
                 neighbors: tuple[ProcessId, ...], suspect: Suspect) -> None:
        super().__init__(name, instance_id, neighbors)
        self.suspect = suspect
        # Initial orientation: the lower id holds the fork, dirty; the
        # higher id holds the request token.  Installed on attach (needs pid).
        self.fork: dict[ProcessId, bool] = {}
        self.dirty: dict[ProcessId, bool] = {}
        self.token: dict[ProcessId, bool] = {}
        #: Edges with an outstanding fork request (duplicate suppression).
        self._requested: set[ProcessId] = set()
        #: Last-meal stamp ``(has_eaten, begin_time)``; never-eaten ranks
        #: oldest, ties break by pid (higher pid older, matching the
        #: initial dirty-at-lower-id orientation).  Travels on every fork
        #: transfer so :meth:`on_fork` can order the endpoints by recency.
        self._last_meal: tuple[int, float] = (0, 0.0)

    def attached(self) -> None:
        super().attached()
        for q in self.neighbors:
            holds_fork = self.pid < q
            self.fork[q] = holds_fork
            self.dirty[q] = holds_fork  # all initial forks are dirty
            self.token[q] = not holds_fork

    # -- protocol actions ------------------------------------------------------

    # The three guards below are probed on every scheduler pass over this
    # diner, mostly to answer False: plain loops over local references
    # that return at the first deciding neighbour.

    def _can_request(self) -> bool:
        if self._state is not DinerState.HUNGRY:
            return False
        fork, token, requested = self.fork, self.token, self._requested
        for q in self.neighbors:
            if not fork[q] and token[q] and q not in requested:
                return True
        return False

    def _owes_dirty_fork(self) -> bool:
        if self._state is DinerState.EATING:
            return False
        fork, token, dirty = self.fork, self.token, self.dirty
        for q in self.neighbors:
            if token[q] and fork[q] and dirty[q]:
                return True
        return False

    def _may_eat(self) -> bool:
        if self._state is not DinerState.HUNGRY:
            return False
        fork, suspect = self.fork, self.suspect
        for q in self.neighbors:
            if not (fork[q] or suspect(q)):
                return False
        return True

    @action(guard=_can_request)
    def request_missing_forks(self) -> None:
        """Hungry and missing forks: spend request tokens."""
        for q in self.neighbors:
            if not self.fork[q] and self.token[q] and q not in self._requested:
                self.token[q] = False
                self._requested.add(q)
                self.send(q, self.name, "req")

    @action(guard=_owes_dirty_fork)
    def yield_dirty_forks(self) -> None:
        """Honour requests: a dirty fork goes to the requester, stamped
        with our meal recency so the receiver can orient it."""
        for q in self.neighbors:
            if self.token[q] and self.fork[q] and self.dirty[q]:
                self.fork[q] = False
                self.dirty[q] = False
                self.send(q, self.name, "fork", last_meal=self._last_meal)

    @receive("req")
    def on_request(self, msg: Message) -> None:
        """The edge's request token arrives (we now owe a fork, eventually)."""
        self.token[msg.sender] = True

    @receive("fork")
    def on_fork(self, msg: Message) -> None:
        """The edge's fork arrives — clean only if we genuinely outrank
        the sender.

        A clean fork encodes priority, and it is kept until its holder
        eats — so a clean landing at the wrong endpoint can block an edge
        forever.  The sender stamps the transfer with its last-meal
        recency; the fork lands clean only at a receiver that is hungry
        *and* ate less recently than the sender (see the module docstring
        for why weaker, session-local staleness rules admit clean-fork
        deadlock cycles under the suspicion override).  A non-hungry or
        more-recently-fed receiver gets it dirty: still usable for its
        next meal, but yieldable on request.
        """
        q = msg.sender
        theirs = tuple(msg.payload.get("last_meal", (0, 0.0)))
        fresh = (self.state is DinerState.HUNGRY
                 and self._outranks(q, theirs))
        self.fork[q] = True
        self.dirty[q] = not fresh
        self._requested.discard(q)

    def _outranks(self, q: ProcessId, their_meal: tuple[int, float]) -> bool:
        """Is our last meal older than ``q``'s (higher dining priority)?

        Never-eaten outranks has-eaten; among equals, earlier meal wins;
        exact ties break toward the higher pid, matching the initial
        orientation (lower id starts with the dirty fork, i.e. junior).
        """
        mine = self._last_meal
        if mine[0] != their_meal[0]:
            return mine[0] < their_meal[0]
        if mine[1] != their_meal[1]:
            return mine[1] < their_meal[1]
        return self.pid > q

    @action(guard=_may_eat)
    def enter_critical_section(self) -> None:
        """The ◇WX scheduling rule: fork OR suspicion, for every neighbor."""
        self._begin_eating()

    @action(guard=lambda self: self.state is DinerState.EXITING)
    def finish_exiting(self) -> None:
        """Exiting completes in one step; deferred requests are honoured by
        :meth:`yield_dirty_forks` as soon as the scheduler reaches it."""
        self._set_state(DinerState.THINKING)

    # -- shared helpers (also used by the adversarial subclass) -----------------

    def _begin_eating(self) -> None:
        for q in self.neighbors:
            if self.fork[q]:
                self.dirty[q] = True  # eating dirties every held fork
        # Becoming the most recent eater demotes us below every neighbor;
        # for forks we do not hold (suspicion-override edges) the stamp
        # comparison in on_fork applies the demotion when they next arrive.
        self._last_meal = (1, float(self.process.env_now()))
        self._set_state(DinerState.EATING)

    # -- diagnostics -------------------------------------------------------------

    def holds_fork(self, q: ProcessId) -> bool:
        return self.fork[q]


class WaitFreeEWXDining(DiningInstance):
    """Factory for one WF-◇WX instance over an arbitrary conflict graph.

    ``suspicion_provider(pid)`` supplies each diner's local suspicion query;
    pass modules of :class:`~repro.oracles.EventuallyPerfectDetector` for the
    honest construction, or any other oracle to explore the hierarchy.
    """

    def __init__(self, instance_id: str, graph: nx.Graph,
                 suspicion_provider: SuspicionProvider) -> None:
        super().__init__(instance_id, graph)
        self.suspicion_provider = suspicion_provider

    def build_diner(self, pid: ProcessId,
                    neighbors: tuple[ProcessId, ...]) -> EWXDiner:
        return EWXDiner(
            self.component_name(), self.instance_id, neighbors,
            suspect=self.suspicion_provider(pid),
        )
