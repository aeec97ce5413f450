"""Link-fault injection: lossy, duplicating, and partitionable channels.

The paper's Section 4 assumes *reliable* channels, and
:class:`~repro.sim.network.Network` honours that by default.  The wider
failure-detector literature, however, standardly works over **fair-lossy**
links — channels may drop or duplicate individual messages, but if a
correct process sends infinitely many messages to a correct process,
infinitely many are delivered — with reliability recovered by
retransmission (see :mod:`repro.sim.transport`).

A :class:`LinkFaultModel` composes with any
:class:`~repro.sim.network.DelayModel`: the delay model decides *when* a
surviving copy arrives, the fault model decides *how many* copies survive
(0 = dropped, 1 = normal, 2 = duplicated).  Supported faults:

* per-message **drop** probability;
* **duplication** probability (the duplicate gets an independent delay,
  so duplicates also arrive out of order);
* scheduled **partitions** — time-windowed bipartitions of the process
  set that drop *all* crossing traffic for their duration.

Fairness guarantee: random losses on a link never exceed
:data:`MAX_CONSECUTIVE_DROPS` in a row, so infinitely many sends imply
infinitely many deliveries (fair-lossy).  Partition windows are finite by
construction and therefore cannot violate eventual fairness either.
All randomness is drawn from the engine's seeded ``"link-faults"``
stream, so faulty runs replay bit-for-bit from their seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.rng import BatchedDoubles
from repro.types import Message, ProcessId, Time

#: A directed link, ``(sender, receiver)``.
Link = tuple[ProcessId, ProcessId]

#: The fair-lossy floor: after this many consecutive *random* losses on
#: one directed link, the next message is forcibly delivered.
MAX_CONSECUTIVE_DROPS = 25


@dataclass(frozen=True)
class Partition:
    """A time-windowed bipartition ``side`` vs. everyone else.

    While ``start <= now < end``, every message crossing the cut (sender
    and receiver on different sides) is dropped.  Traffic within either
    side is unaffected.
    """

    start: Time
    end: Time
    side: frozenset[ProcessId]

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigurationError(
                f"partition window must be non-empty: [{self.start}, {self.end})"
            )
        if not self.side:
            raise ConfigurationError("partition side must be non-empty")

    @classmethod
    def of(cls, side: Iterable[ProcessId], start: Time, end: Time) -> "Partition":
        """Convenience constructor accepting any iterable of pids."""
        return cls(start=float(start), end=float(end), side=frozenset(side))


@dataclass(frozen=True, slots=True)
class Fate:
    """The fault model's verdict for one sent message.

    ``copies`` is the number of independent deliveries to schedule
    (0 = dropped, 1 = normal, 2 = duplicated); ``reason`` explains a drop
    (``"partition"`` or ``"loss"``) and is None otherwise.
    """

    copies: int
    reason: Optional[str] = None


# Fate is a value type with only four observable states, so the verdict
# path reuses interned instances instead of allocating one per message.
_FATE_ONE = Fate(copies=1)
_FATE_TWO = Fate(copies=2)
_FATE_LOSS = Fate(copies=0, reason="loss")
_FATE_PARTITION = Fate(copies=0, reason="partition")


def _check_prob(name: str, p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"{name} must be a probability, got {p}")
    return p


class LinkFaultModel:
    """Per-message drop/duplicate/partition faults with a fairness floor.

    Parameters
    ----------
    drop:
        Probability that any message is lost.  Random losses on one
        directed link never exceed :data:`MAX_CONSECUTIVE_DROPS` in a row.
    duplicate:
        Probability that a surviving message is delivered twice (the extra
        copy gets its own independent channel delay).
    partitions:
        Scheduled :class:`Partition` windows.  Crossing traffic is dropped
        deterministically while a window is active.
    """

    def __init__(
        self,
        drop: float = 0.0,
        duplicate: float = 0.0,
        partitions: Sequence[Partition] = (),
    ) -> None:
        self.drop = _check_prob("drop", drop)
        self.duplicate = _check_prob("duplicate", duplicate)
        self.partitions = list(partitions)
        self._drop_streak: dict[Link, int] = {}

    def fate(self, msg: Message, now: Time, rng: BatchedDoubles) -> Fate:
        """Decide how many copies of ``msg`` (sent at ``now``) to deliver.

        Partition drops are deterministic and do not count toward the
        fair-lossy streak (a forced delivery would breach the partition);
        random drops do, and the streak cap forces delivery once reached.
        """
        # The partition test is spelled out here, not a Partition method:
        # this runs once per wire transmission.
        sender = msg.sender
        receiver = msg.receiver
        for part in self.partitions:
            if (part.start <= now < part.end
                    and (sender in part.side) != (receiver in part.side)):
                return _FATE_PARTITION
        p = self.drop
        if p > 0.0:
            link = (sender, receiver)
            streak = self._drop_streak.get(link, 0)
            if streak < MAX_CONSECUTIVE_DROPS and rng.random() < p:
                self._drop_streak[link] = streak + 1
                return _FATE_LOSS
            self._drop_streak[link] = 0
        if self.duplicate > 0.0 and rng.random() < self.duplicate:
            return _FATE_TWO
        return _FATE_ONE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LinkFaultModel(drop={self.drop}, duplicate={self.duplicate}, "
            f"partitions={len(self.partitions)})"
        )
