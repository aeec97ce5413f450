"""The trusting detector T — a simulated substrate.

T (Delporte-Gallet et al. 2005; paper Section 9) satisfies:

1. **Strong completeness** — every crashed process is eventually and
   permanently suspected by all correct processes;
2. **Trusting accuracy** —
   (a) every correct process is eventually and permanently trusted, and
   (b) at all times, if T stops trusting a process ``q``, then ``q`` has
   crashed.

Property 2(b) requires certainty no amount of ◇P-level partial synchrony
provides, so this module is a fault-schedule substrate: it begins by
suspecting everyone, grants trust to ``q`` after a per-peer registration
delay *only if q is still live*, and revokes trust only on an actual crash
(after the detection latency).  A process that crashes before being trusted
is simply never trusted — permitted by the specification.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import ConfigurationError
from repro.oracles.base import OracleModule
from repro.sim.component import action
from repro.sim.faults import CrashSchedule
from repro.types import ProcessId, Time


class TrustingDetector(OracleModule):
    """Fault-schedule-informed T.

    ``registration_delay`` may be a single float or a per-peer mapping;
    trust in a live ``q`` is granted once the clock passes it.
    """

    def __init__(
        self,
        name: str,
        monitored: Iterable[ProcessId],
        schedule: CrashSchedule,
        registration_delay: float | Mapping[ProcessId, float] = 10.0,
        latency: Time = 5.0,
    ) -> None:
        super().__init__(name, monitored, initially_suspect=True)
        if latency < 0:
            raise ConfigurationError("latency must be non-negative")
        self.schedule = schedule
        self._crash_at = {q: schedule.crash_time(q) for q in self.monitored}
        self.latency = float(latency)
        if isinstance(registration_delay, Mapping):
            self._reg = {q: float(registration_delay.get(q, 10.0))
                         for q in self.monitored}
        else:
            self._reg = {q: float(registration_delay) for q in self.monitored}
        self._ever_trusted: set[ProcessId] = set()

    @action(guard=lambda self: True)
    def refresh(self) -> None:
        now = self.process.env_now()  # substrate privilege
        current = self._suspected
        for q in self.monitored:
            ct = self._crash_at[q]
            if q in self._ever_trusted:
                # Trust already granted: revoke only on a real crash.
                if (ct is not None and now >= ct + self.latency
                        and not current[q]):
                    self.set_suspected(q, True)
            else:
                # Not yet trusted: grant only while q is verifiably live.
                if (ct is None or now < ct) and now >= self._reg[q]:
                    self._ever_trusted.add(q)
                    if current[q]:
                        self.set_suspected(q, False)

    def has_trusted(self, q: ProcessId) -> bool:
        """Has this module ever trusted ``q``? (diagnostic aid)."""
        return q in self._ever_trusted
