"""◇S — the eventually strong detector, and why it matters here.

◇S (Chandra–Toueg) satisfies strong completeness and **eventual weak
accuracy**: *some* correct process is eventually never suspected by any
correct process.  ◇S is the weakest detector for consensus with a correct
majority; ◇P ⪰ ◇S, which is why the paper's extracted oracle can drive
Chandra–Toueg consensus (experiment E8).

This substrate module makes the gap between ◇P and ◇S observable: it
eventually and permanently trusts one designated correct *anchor*, while
every other peer keeps being suspected intermittently **forever** —
behaviour a ◇P module is not allowed to exhibit, yet consensus still
terminates on it (see ``tests/oracles/test_eventually_strong.py``).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.oracles.base import OracleModule
from repro.sim.component import action
from repro.sim.faults import CrashSchedule
from repro.types import ProcessId, Time


class EventuallyStrongDetector(OracleModule):
    """Fault-schedule ◇S: one anchor converges; everyone else flaps forever.

    ``anchor_trust_time`` is when suspicion of the (correct) anchor stops;
    non-anchor live peers are wrongly suspected with probability
    ``flap_prob`` on every refresh, with no convergence — the minimum ◇S
    permits.  Crashed peers are permanently suspected after ``latency``.
    """

    def __init__(
        self,
        name: str,
        monitored: Iterable[ProcessId],
        schedule: CrashSchedule,
        anchor: ProcessId,
        anchor_trust_time: Time = 100.0,
        flap_prob: float = 0.2,
        latency: Time = 5.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(name, monitored, initially_suspect=True)
        if schedule.is_faulty(anchor):
            raise ConfigurationError(f"anchor {anchor!r} must be correct")
        self.schedule = schedule
        self._crash_at = {q: schedule.crash_time(q) for q in self.monitored}
        self.anchor = anchor
        self.anchor_trust_time = float(anchor_trust_time)
        self.flap_prob = float(flap_prob)
        self.latency = float(latency)
        self._rng = rng if rng is not None else np.random.default_rng(0)

    @action(guard=lambda self: True)
    def refresh(self) -> None:
        now = self.process.env_now()  # substrate privilege
        current = self._suspected
        for q in self.monitored:
            ct = self._crash_at[q]
            if ct is not None and now >= ct + self.latency:
                flag = True
            elif q == self.anchor:
                flag = now < self.anchor_trust_time
            else:
                # Permanent flapping: the accuracy ◇S does NOT promise.
                flag = self._rng.random() < self.flap_prob
            if current[q] != flag:
                self.set_suspected(q, flag)
