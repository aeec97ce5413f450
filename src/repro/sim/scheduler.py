"""Pluggable process-step scheduling policies.

The engine schedules each process's next atomic step after a delay drawn
from a policy.  Without one it draws uniformly from a bounded speed band;
:class:`BurstySteps` models harsher asynchrony: runs of quick steps
separated by long random pauses (a process that 'goes quiet' without
crashing).

Every policy keeps delays finite, so correct processes still take
infinitely many steps — the paper's liveness assumption.  Policies are
per-run objects; per-process state lives in the policy keyed by pid.
"""

from __future__ import annotations

import abc

from repro.errors import ConfigurationError
from repro.sim.rng import BatchedDoubles
from repro.types import ProcessId, Time


class StepPolicy(abc.ABC):
    """Draws the delay before a process's next step from the process's
    ``step:{pid}`` stream."""

    @abc.abstractmethod
    def next_delay(self, pid: ProcessId, now: Time,
                   rng: BatchedDoubles) -> Time:
        """Strictly positive delay until ``pid``'s next step."""


class BurstySteps(StepPolicy):
    """Fast bursts separated by occasional long pauses.

    Each step: with probability ``pause_prob`` the process stalls for a
    uniform ``[pause_lo, pause_hi]`` span; otherwise it steps quickly
    (uniform ``[lo, hi]``).
    """

    def __init__(self, lo: Time = 0.2, hi: Time = 0.6,
                 pause_prob: float = 0.02,
                 pause_lo: Time = 10.0, pause_hi: Time = 60.0) -> None:
        if not 0 <= pause_prob < 1:
            raise ConfigurationError("pause_prob must be in [0, 1)")
        if not (0 < lo <= hi and 0 < pause_lo <= pause_hi):
            raise ConfigurationError("bad delay ranges")
        self.lo, self.hi = float(lo), float(hi)
        self.pause_prob = float(pause_prob)
        self.pause_lo, self.pause_hi = float(pause_lo), float(pause_hi)

    def next_delay(self, pid: ProcessId, now: Time,
                   rng: BatchedDoubles) -> Time:
        if rng.random() < self.pause_prob:
            return float(rng.uniform(self.pause_lo, self.pause_hi))
        return float(rng.uniform(self.lo, self.hi))
