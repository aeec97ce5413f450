"""Common value types shared across the library.

The paper (Section 4, "Technical Framework") posits a finite set of
processes ``Π``, a discrete global clock ``T`` inaccessible to processes,
and diners that cycle through four phases.  This module pins down the
concrete Python representations used everywhere else:

* :data:`ProcessId` — opaque process names (strings such as ``"p"``, ``"n3"``).
* :data:`Time` — virtual time measured by the simulator's global clock.
* :class:`DinerState` — the four dining phases of Section 4.
* :class:`Message` — the envelope carried by :mod:`repro.sim.network`.
"""

from __future__ import annotations

import enum
import functools
import itertools
from collections import namedtuple
from typing import Any, Mapping

#: Name of a process in the system Π.  Kept as ``str`` so traces read well.
ProcessId = str

#: Virtual time of the simulator's discrete global clock.  The clock is a
#: conceptual device per the paper: algorithm code never reads it; only the
#: engine, delay models, and trace checkers do.
Time = float


class DinerState(enum.Enum):
    """The four phases of a diner (paper Section 4, "Dining")."""

    THINKING = "thinking"
    HUNGRY = "hungry"
    EATING = "eating"
    EXITING = "exiting"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Diner phases in their canonical cycle order.
DINER_CYCLE = (
    DinerState.THINKING,
    DinerState.HUNGRY,
    DinerState.EATING,
    DinerState.EXITING,
)

_msg_counter = itertools.count()


class Message(
        namedtuple("_MessageFields", "sender receiver tag kind payload uid")):
    """An immutable message envelope.

    ``tag`` routes the message to a component within the receiving process
    (e.g. ``("DX0:p->q", "fork")``); ``payload`` carries algorithm data.
    ``uid`` makes every message distinct so non-FIFO delivery and duplicate
    detection are testable.

    Tuple-backed: an envelope is built once and read a handful of times,
    so one ``tuple.__new__`` beats a frozen dataclass's per-field
    ``object.__setattr__`` by more than the slower field getters cost.
    """

    __slots__ = ()

    def __new__(cls, sender: ProcessId, receiver: ProcessId, tag: str,
                kind: str, payload: Mapping[str, Any] | None = None,
                uid: int | None = None) -> "Message":
        return tuple.__new__(cls, (
            sender, receiver, tag, kind,
            {} if payload is None else payload,
            next(_msg_counter) if uid is None else uid,
        ))

    # Equal only to another envelope with equal fields: a bare tuple of
    # the same items is not a message.
    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def matches(self, tag: str, kind: str | None = None) -> bool:
        """Return True when this message is addressed to ``tag`` (and ``kind``)."""
        if self.tag != tag:
            return False
        return kind is None or self.kind == kind

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Message({self.sender}->{self.receiver} {self.tag}/{self.kind}"
            f" #{self.uid})"
        )


#: The hot-path envelope constructor, frame-free (one C-level call):
#: ``make_message((sender, receiver, tag, kind, payload, uid))`` with every
#: field given — ``payload`` a mapping, ``uid`` drawn by the caller as
#: ``next(repro.types._msg_counter)``, the module attribute looked up at
#: call time (tests swap the counter, so never bind its ``__next__``).
make_message = functools.partial(tuple.__new__, Message)
