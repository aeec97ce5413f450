"""The perfect detector P — a simulated substrate.

P satisfies strong completeness and *strong accuracy* (no process is
suspected before it crashes).  P is not implementable in partially
synchronous systems; we provide it as a fault-schedule-informed substrate
(per the substitution rule in DESIGN.md) for use as an idealized baseline
and as a building block of the T/S substrates.

The module reads the engine's crash schedule and clock — privileged
information algorithm code never sees — and suspects ``q`` exactly from
``crash_time(q) + latency`` on.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ConfigurationError
from repro.oracles.base import OracleModule
from repro.sim.component import action
from repro.sim.faults import CrashSchedule
from repro.types import ProcessId, Time


class PerfectDetector(OracleModule):
    """Fault-schedule-informed P with a fixed detection latency."""

    def __init__(
        self,
        name: str,
        monitored: Iterable[ProcessId],
        schedule: CrashSchedule,
        latency: Time = 5.0,
    ) -> None:
        super().__init__(name, monitored, initially_suspect=False)
        if latency < 0:
            raise ConfigurationError("latency must be non-negative")
        self.schedule = schedule
        self._crash_at = {q: schedule.crash_time(q) for q in self.monitored}
        self.latency = float(latency)

    @action(guard=lambda self: True)
    def refresh(self) -> None:
        now = self.process.env_now()  # substrate privilege: reads the clock
        current = self._suspected
        for q in self.monitored:
            ct = self._crash_at[q]
            flag = ct is not None and now >= ct + self.latency
            if current[q] != flag:
                self.set_suspected(q, flag)
