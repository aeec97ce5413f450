"""Pluggable process-step scheduling policies.

The engine schedules each process's next atomic step after a delay drawn
from a policy.  The default (:class:`UniformSteps`) keeps every process
within a bounded speed band; the others model harsher asynchrony:

* :class:`BurstySteps` — runs of quick steps separated by long random
  pauses (a process that 'goes quiet' without crashing);
* :class:`GSTSteps` — chaotic pauses before a stabilization time, bounded
  speed afterwards: the process-side analogue of
  :class:`~repro.sim.network.PartialSynchronyDelays`.

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


class UniformSteps(StepPolicy):
    """Delays uniform in ``[lo, hi]`` (the engine's classic behaviour)."""

    def __init__(self, lo: Time = 0.4, hi: Time = 1.2) -> None:
        if not 0 < lo <= hi:
            raise ConfigurationError("need 0 < lo <= hi")
        self.lo, self.hi = float(lo), float(hi)

    def next_delay(self, pid: ProcessId, now: Time,
                   rng: BatchedDoubles) -> Time:
        return float(rng.uniform(self.lo, self.hi))


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


class GSTSteps(StepPolicy):
    """Chaotic before ``gst`` (pauses up to ``pre_gst_max``), uniform after."""

    def __init__(self, gst: Time, lo: Time = 0.4, hi: Time = 1.2,
                 pre_gst_max: Time = 40.0, pause_prob: float = 0.1) -> None:
        if pre_gst_max <= 0:
            raise ConfigurationError("pre_gst_max must be positive")
        self.gst = float(gst)
        self.uniform = UniformSteps(lo, hi)
        self.pre_gst_max = float(pre_gst_max)
        self.pause_prob = float(pause_prob)

    def next_delay(self, pid: ProcessId, now: Time,
                   rng: BatchedDoubles) -> Time:
        if now < self.gst and rng.random() < self.pause_prob:
            # A pre-GST stall, but never past gst by more than one band so
            # the post-GST speed bound holds from gst on.
            stall = float(rng.uniform(0.0, self.pre_gst_max))
            return min(stall, max(self.gst - now, 0.0) + self.uniform.hi)
        return self.uniform.next_delay(pid, now, rng)
