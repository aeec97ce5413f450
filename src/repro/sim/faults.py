"""Crash-fault schedules.

Per the paper's fault model, processes fail only by *crashing*: they cease
execution without warning and never recover.  A :class:`CrashSchedule`
declares, ahead of a run, which processes crash and when; the engine injects
the crashes at the scheduled virtual times.

The schedule object is also the ground truth that *trace checkers* and the
simulated stronger oracles (P, T, S — see :mod:`repro.oracles`) consult.
Algorithm code never sees it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.types import ProcessId, Time


def live_at(crashes: Mapping[ProcessId, Time], pid: ProcessId,
            t: Time) -> bool:
    """Live = not yet crashed at ``t`` (correct processes are always live):
    also the test of whether a suspicion onset is a mistake."""
    ct = crashes.get(pid)
    return ct is None or t < ct


class CrashSchedule:
    """An immutable map ``pid -> crash time`` for the faulty processes."""

    def __init__(self, crashes: Mapping[ProcessId, Time] | None = None) -> None:
        self._crashes: dict[ProcessId, Time] = dict(crashes or {})
        for pid, t in self._crashes.items():
            if t < 0:
                raise ConfigurationError(f"negative crash time for {pid}: {t}")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def none(cls) -> "CrashSchedule":
        """A failure-free schedule."""
        return cls({})

    @classmethod
    def single(cls, pid: ProcessId, at: Time) -> "CrashSchedule":
        return cls({pid: at})

    @classmethod
    def random(
        cls,
        pids: Iterable[ProcessId],
        max_faulty: int,
        horizon: Time,
        rng: np.random.Generator,
    ) -> "CrashSchedule":
        """Crash a uniformly-chosen subset of at most ``max_faulty`` processes
        at uniform times in ``(0, horizon)``."""
        pool = list(pids)
        k = int(rng.integers(0, max_faulty + 1))
        k = min(k, len(pool))
        chosen = rng.choice(len(pool), size=k, replace=False) if k else []
        # For horizon >= 0 this is the double rng.uniform(0.0, horizon) draws.
        return cls({pool[int(i)]: horizon * rng.random() for i in chosen})

    # -- queries -----------------------------------------------------------------

    @property
    def faulty(self) -> frozenset[ProcessId]:
        """Processes that crash at some point in the run."""
        return frozenset(self._crashes)

    def crash_time(self, pid: ProcessId) -> Optional[Time]:
        """Crash time of ``pid``, or None if correct."""
        return self._crashes.get(pid)

    def is_faulty(self, pid: ProcessId) -> bool:
        return pid in self._crashes

    def is_live_at(self, pid: ProcessId, t: Time) -> bool:
        return live_at(self._crashes, pid, t)

    def correct(self, pids: Iterable[ProcessId]) -> frozenset[ProcessId]:
        """The correct subset of ``pids``."""
        return frozenset(p for p in pids if p not in self._crashes)

    def items(self):
        return self._crashes.items()

    def last_crash_time(self) -> Time:
        """Time of the final crash (0.0 for a failure-free schedule)."""
        return max(self._crashes.values(), default=0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{p}@{t:.2f}" for p, t in sorted(self._crashes.items()))
        return f"CrashSchedule({{{body}}})"
