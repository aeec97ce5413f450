"""Reliable broadcast on top of reliable point-to-point channels.

Uniform relay scheme: the first time a process receives (or originates) a
broadcast message it relays a copy to every peer before delivering it
locally.  With reliable channels this guarantees: if any *correct* process
delivers m, every correct process eventually delivers m — even when the
originator crashed mid-broadcast.  (Messages from a crashed originator that
reached no correct process are simply lost, which the definition allows.)

Used by Chandra–Toueg consensus for the decision announcement, where plain
best-effort broadcast would violate agreement if the coordinator crashed
between sends.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Optional

from repro.sim.component import Component, receive
from repro.types import Message, ProcessId

_bcast_ids = itertools.count()


class ReliableBroadcast(Component):
    """Per-process reliable-broadcast endpoint.

    ``deliver`` is invoked exactly once per broadcast message (duplicates
    are filtered by broadcast id).
    """

    def __init__(self, name: str, peers: Iterable[ProcessId],
                 deliver: Optional[Callable[[ProcessId, Any], None]] = None) -> None:
        super().__init__(name)
        self.peers = tuple(peers)
        self.deliver = deliver
        self._seen: set[tuple[ProcessId, int]] = set()
        self.delivered_count = 0

    def broadcast(self, payload: Any) -> None:
        """Originate a broadcast (also delivered locally)."""
        bid = (self.pid, next(_bcast_ids))
        self._handle(bid, self.pid, payload)

    @receive("rb")
    def on_relay(self, msg: Message) -> None:
        bid = tuple(msg.payload["bid"])
        self._handle(bid, msg.payload["origin"], msg.payload["body"])

    def _handle(self, bid: tuple[ProcessId, int], origin: ProcessId,
                body: Any) -> None:
        if bid in self._seen:
            return
        self._seen.add(bid)
        # Relay first, deliver second: if we crash mid-relay some peers got
        # it; if we completed delivery, every peer was sent a copy.
        self.send_all(self.peers, self.name, "rb", bid=list(bid),
                      origin=origin, body=body)
        self.delivered_count += 1
        if self.deliver is not None:
            self.deliver(origin, body)
