"""◇P implemented honestly from partial synchrony.

The classic Chandra–Toueg construction: every process periodically
broadcasts heartbeats; each module times out on missing heartbeats using a
per-peer adaptive timeout that grows whenever a suspicion turns out to be a
mistake (a heartbeat from a suspected peer arrives).

Because the paper's processes have no local clocks, timeouts are measured
in the module's *own step count* — a standard local-clock substitute.  In a
:class:`~repro.sim.network.PartialSynchronyDelays` network, after GST both
message delays and relative step rates are bounded, so each timeout
eventually exceeds the worst-case heartbeat gap and mistakes stop:

* **Strong completeness** — a crashed peer stops sending heartbeats, so its
  timeout eventually fires and is never cancelled.
* **Eventual strong accuracy** — every mistake doubles the peer's timeout,
  so only finitely many mistakes are possible post-GST.

In a fully asynchronous network this module still satisfies completeness
but may suspect correct peers forever — exactly the impossibility the
paper's reduction circumvents by *extracting* ◇P from dining instead.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.errors import ConfigurationError
from repro.oracles.base import OracleModule
from repro.sim.component import action, receive
from repro.types import Message, ProcessId


class EventuallyPerfectDetector(OracleModule):
    """Heartbeat/adaptive-timeout ◇P module.

    Parameters
    ----------
    heartbeat_period:
        Broadcast a heartbeat every this many own steps.
    initial_timeout:
        Initial per-peer timeout, in own steps since the last heartbeat.
    backoff:
        Multiplicative timeout increase applied on each mistake.
    """

    def __init__(
        self,
        name: str,
        monitored: Iterable[ProcessId],
        heartbeat_period: int = 4,
        initial_timeout: int = 24,
        backoff: float = 2.0,
    ) -> None:
        super().__init__(name, monitored, initially_suspect=False)
        if heartbeat_period < 1 or initial_timeout < 1:
            raise ConfigurationError("periods must be >= 1")
        if backoff <= 1.0:
            raise ConfigurationError("backoff must exceed 1.0")
        self.heartbeat_period = int(heartbeat_period)
        self.backoff = float(backoff)
        self.ticks = 0
        self._timeout: dict[ProcessId, float] = {
            q: float(initial_timeout) for q in self.monitored
        }
        self._last_hb: dict[ProcessId, int] = {q: 0 for q in self.monitored}
        #: Gate on the timeout scan: no trusted peer can time out at a tick
        #: before this one.  Heartbeats only push a trusted peer's due tick
        #: later, so the gate may be early (a scan that finds nothing and
        #: re-derives it) but is never late.
        self._next_due: float = 0
        self.mistakes = 0

    def _due_tick(self, q: ProcessId) -> int:
        """First tick at which ``ticks - last_hb > timeout`` holds for ``q``.

        Integer arithmetic on purpose: for an integer gap ``k`` and any
        float ``x``, ``k > x`` iff ``k > floor(x)``, so the result is exact
        whatever ``backoff`` made of the timeout.
        """
        return self._last_hb[q] + math.floor(self._timeout[q]) + 1

    # Always enabled: fires once per round-robin rotation, acting as the
    # module's local clock tick.
    @action(guard=lambda self: True)
    def tick(self) -> None:
        self.ticks += 1
        if self.ticks % self.heartbeat_period == 0:
            self.send_all(self.monitored, self.name, "hb")
        if self.ticks < self._next_due:
            return
        next_due = math.inf
        for q in self.monitored:
            if not self.suspected(q):
                if self.ticks - self._last_hb[q] > self._timeout[q]:
                    self.set_suspected(q, True)
                else:
                    next_due = min(next_due, self._due_tick(q))
        self._next_due = next_due

    @receive("hb")
    def on_heartbeat(self, msg: Message) -> None:
        q = msg.sender
        if q not in self._last_hb:
            return  # heartbeat from an unmonitored process: ignore
        self._last_hb[q] = self.ticks
        if self.suspected(q):
            # Mistake detected: trust again and back off the timeout.
            self.mistakes += 1
            self._timeout[q] *= self.backoff
            self.set_suspected(q, False)
            self._next_due = min(self._next_due, self._due_tick(q))

    def timeout_for(self, q: ProcessId) -> float:
        """Current adaptive timeout for peer ``q`` (test/diagnostic aid)."""
        return self._timeout[q]
