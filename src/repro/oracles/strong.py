"""The strong detector S — a simulated substrate.

S (Chandra–Toueg) satisfies strong completeness and **perpetual weak
accuracy**: *some* correct process is never suspected by any live process.
Together with T it suffices for Fault-Tolerant Mutual Exclusion (paper
Section 9).

The substrate designates one correct process (the lexicographically first
by default) as the never-suspected anchor.  All other peers are suspected
exactly when crashed (plus latency) and, optionally, wrongly suspected for
a finite noisy prefix — making the module observably weaker than P while
still satisfying the S specification.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.oracles.base import OracleModule
from repro.sim.component import action
from repro.sim.faults import CrashSchedule
from repro.types import ProcessId, Time


def default_anchor(pids: Iterable[ProcessId], schedule: CrashSchedule) -> ProcessId:
    """The canonical anchor: first correct process in sorted order."""
    correct = sorted(schedule.correct(pids))
    if not correct:
        raise ConfigurationError("S needs at least one correct process")
    return correct[0]


class StrongDetector(OracleModule):
    """Fault-schedule-informed S with optional finite false-suspicion noise.

    ``noise_until`` bounds the window during which non-anchor live peers may
    be wrongly suspected (probability ``noise_prob`` per refresh); after it
    the module behaves like P restricted to non-anchor peers.
    """

    def __init__(
        self,
        name: str,
        monitored: Iterable[ProcessId],
        schedule: CrashSchedule,
        anchor: ProcessId,
        latency: Time = 5.0,
        noise_until: Time = 0.0,
        noise_prob: float = 0.05,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(name, monitored, initially_suspect=False)
        self.schedule = schedule
        self._crash_at = {q: schedule.crash_time(q) for q in self.monitored}
        self.anchor = anchor
        self.latency = float(latency)
        self.noise_until = float(noise_until)
        self.noise_prob = float(noise_prob)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        if self.anchor in self.monitored and schedule.is_faulty(self.anchor):
            raise ConfigurationError(
                f"anchor {anchor!r} must be a correct process"
            )

    @action(guard=lambda self: True)
    def refresh(self) -> None:
        now = self.process.env_now()  # substrate privilege
        current = self._suspected
        for q in self.monitored:
            if q == self.anchor:
                # Perpetual weak accuracy: the anchor is never suspected.
                flag = False
            else:
                ct = self._crash_at[q]
                # A noise draw is taken only where it always was: a live
                # (or not yet detected) peer inside the noise window.
                flag = ((ct is not None and now >= ct + self.latency)
                        or (now < self.noise_until
                            and self._rng.random() < self.noise_prob))
            if current[q] != flag:
                self.set_suspected(q, flag)
