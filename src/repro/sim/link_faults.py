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

* per-message **drop** probability, globally, per message kind, and per
  directed link;
* **duplication** probability (the duplicate gets an independent delay,
  so duplicates also arrive out of order);
* scheduled **partitions** — time-windowed bipartitions of the process
  set that drop *all* crossing traffic for their duration.

Fairness guarantee: random losses on a link never exceed
``max_consecutive_drops`` in a row, so infinitely many sends imply
infinitely many deliveries (fair-lossy).  Partition windows are finite by
construction and therefore cannot violate eventual fairness either.
All randomness is drawn from the engine's seeded ``"link-faults"``
stream, so faulty runs replay bit-for-bit from their seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.rng import BatchedDoubles
from repro.types import Message, ProcessId, Time

#: A directed link, ``(sender, receiver)``.
Link = tuple[ProcessId, ProcessId]


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

    def active_at(self, now: Time) -> bool:
        return self.start <= now < self.end

    def severs(self, msg: Message, now: Time) -> bool:
        """Does this partition drop ``msg`` sent at ``now``?"""
        if not self.active_at(now):
            return False
        return (msg.sender in self.side) != (msg.receiver in self.side)


@dataclass(frozen=True, slots=True)
class Fate:
    """The fault model's verdict for one sent message.

    ``copies`` is the number of independent deliveries to schedule
    (0 = dropped, 1 = normal, 2 = duplicated); ``reason`` explains a drop
    (``"partition"`` or ``"loss"``) and is None otherwise.
    """

    copies: int
    reason: Optional[str] = None

    @property
    def dropped(self) -> bool:
        return self.copies == 0

    @property
    def duplicated(self) -> bool:
        return self.copies > 1


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
        Base probability that any message is lost.
    duplicate:
        Probability that a surviving message is delivered twice (the extra
        copy gets its own independent channel delay).
    drop_by_kind:
        Extra per-``Message.kind`` drop probabilities; the effective loss
        rate for a message is ``max(drop, drop_by_kind[kind])``.
    drop_by_link:
        Extra per-directed-link drop probabilities keyed by
        ``(sender, receiver)``; combined with the above via ``max``.
    partitions:
        Scheduled :class:`Partition` windows.  Crossing traffic is dropped
        deterministically while a window is active.
    max_consecutive_drops:
        Fair-lossy enforcement: after this many consecutive *random*
        losses on one directed link, the next message is forcibly
        delivered.  ``None`` disables the floor (the link may then be
        unfair if a drop probability is 1.0 — useful only for modelling
        permanently dead links; prefer partitions for that).
    """

    def __init__(
        self,
        drop: float = 0.0,
        duplicate: float = 0.0,
        drop_by_kind: Mapping[str, float] | None = None,
        drop_by_link: Mapping[Link, float] | None = None,
        partitions: Sequence[Partition] = (),
        max_consecutive_drops: int | None = 25,
    ) -> None:
        self.drop = _check_prob("drop", drop)
        self.duplicate = _check_prob("duplicate", duplicate)
        self.drop_by_kind = {
            k: _check_prob(f"drop_by_kind[{k!r}]", p)
            for k, p in (drop_by_kind or {}).items()
        }
        self.drop_by_link = {
            link: _check_prob(f"drop_by_link[{link!r}]", p)
            for link, p in (drop_by_link or {}).items()
        }
        self.partitions = list(partitions)
        if max_consecutive_drops is not None and max_consecutive_drops < 1:
            raise ConfigurationError("max_consecutive_drops must be >= 1 or None")
        self.max_consecutive_drops = max_consecutive_drops
        self._drop_streak: dict[Link, int] = {}

    # -- queries ---------------------------------------------------------------

    def drop_probability(self, msg: Message) -> float:
        """The effective random-loss probability for ``msg``."""
        p = self.drop
        if self.drop_by_kind:
            p = max(p, self.drop_by_kind.get(msg.kind, 0.0))
        if self.drop_by_link:
            p = max(p, self.drop_by_link.get((msg.sender, msg.receiver), 0.0))
        return p

    # -- the verdict -----------------------------------------------------------

    def fate(self, msg: Message, now: Time, rng: BatchedDoubles) -> Fate:
        """Decide how many copies of ``msg`` (sent at ``now``) to deliver.

        Partition drops are deterministic and do not count toward the
        fair-lossy streak (a forced delivery would breach the partition);
        random drops do, and the streak cap forces delivery once reached.
        """
        # Partition.severs and drop_probability() inlined: this runs once
        # per wire transmission.
        sender = msg.sender
        receiver = msg.receiver
        for part in self.partitions:
            if (part.start <= now < part.end
                    and (sender in part.side) != (receiver in part.side)):
                return _FATE_PARTITION
        p = self.drop
        if self.drop_by_kind:
            p = max(p, self.drop_by_kind.get(msg.kind, 0.0))
        if self.drop_by_link:
            p = max(p, self.drop_by_link.get((sender, receiver), 0.0))
        if p > 0.0:
            link = (sender, receiver)
            streak = self._drop_streak.get(link, 0)
            forced = (self.max_consecutive_drops is not None
                      and streak >= self.max_consecutive_drops)
            if not forced and rng.random() < p:
                self._drop_streak[link] = streak + 1
                return _FATE_LOSS
            self._drop_streak[link] = 0
        if self.duplicate > 0.0 and rng.random() < self.duplicate:
            return _FATE_TWO
        return _FATE_ONE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LinkFaultModel(drop={self.drop}, duplicate={self.duplicate}, "
            f"kinds={sorted(self.drop_by_kind)}, "
            f"links={sorted(self.drop_by_link)}, "
            f"partitions={len(self.partitions)})"
        )
