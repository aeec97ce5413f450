"""Reliable non-FIFO channel emulation over fair-lossy links.

The paper's algorithms assume reliable channels (Section 4): every message
sent to a correct process is delivered exactly once.  When a
:class:`~repro.sim.link_faults.LinkFaultModel` makes the wire fair-lossy,
:class:`ReliableTransport` restores exactly that contract — transparently,
so witness/subject threads, dining boxes, and detectors run *unchanged*:

* every application message is wrapped in a sequence-numbered ``rtp.data``
  envelope on a per-directed-link sequence space;
* the receiver acknowledges every data envelope (``rtp.ack``), including
  re-received duplicates, so lost acks are also recovered;
* unacked envelopes are retransmitted with exponential backoff plus
  seeded jitter (capped at ``rto_max``, so retry traffic stays bounded);
* the receiver deduplicates by ``(link, seq)`` before handing the inner
  message to the process inbox — faults may duplicate wire envelopes, but
  the application sees each message exactly once.

Fair-lossy links guarantee that a message retransmitted forever between
correct processes is eventually delivered, and likewise its ack — so the
emulated channel is *reliable*; delivery order stays arbitrary (non-FIFO),
matching the paper's channel model.  Retransmission to a crashed receiver
is cut short using engine ground truth: the paper's model does not promise
delivery to crashed processes, and an eternal retry chain would only burn
event budget.

The transport is infrastructure, not algorithm code: it lives on the
engine's wire path (no process steps are consumed) and draws all timing
jitter from the seeded ``"transport"`` stream, keeping runs reproducible.

A retransmission timer is an ordinary engine heap entry (see
:mod:`repro.sim.engine`): ``(t, seq, transport._on_timer, pending)``,
where ``pending`` is the :class:`_Pending` record of the unacked message
and carries its own ``(link, seq)`` key.  An ack removes the record from
the pending table and leaves the timer in the heap; when it fires it
finds the record gone and returns without a draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING

from repro import types as _types
from repro.errors import ConfigurationError, SimulationError
from repro.obs.registry import MetricsRegistry
from repro.types import Message, Time, make_message

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

from repro.sim.link_faults import Link

#: Tag reserved for transport wire envelopes; never a component name.
TRANSPORT_TAG = "__rtp__"
DATA_KIND = "rtp.data"
ACK_KIND = "rtp.ack"


@dataclass(frozen=True)
class RetransmitPolicy:
    """Retransmission timing: exponential backoff with seeded jitter.

    The first retry fires ``rto_initial`` (±``jitter`` fraction) after the
    original send; each subsequent retry multiplies the timeout by
    ``backoff`` up to ``rto_max``.
    """

    rto_initial: Time = 8.0
    rto_max: Time = 120.0
    backoff: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.rto_initial <= 0 or self.rto_max < self.rto_initial:
            raise ConfigurationError("need 0 < rto_initial <= rto_max")
        if self.backoff < 1.0:
            raise ConfigurationError("backoff must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")


@dataclass(slots=True)
class _Pending:
    """One unacknowledged application message, keyed by ``(link, seq)``."""

    key: "tuple[Link, int]"
    inner: Message
    rto: Time
    attempts: int = 0


@dataclass
class TransportStats:
    """Counter snapshot (see :meth:`ReliableTransport.stats`)."""

    data_sent: int = 0
    retransmissions: int = 0
    acks_sent: int = 0
    duplicates_suppressed: int = 0
    delivered_unique: int = 0
    abandoned: int = 0


class ReliableTransport:
    """Sequence/ack/retransmit layer between ``Network.send`` and inboxes.

    Install with :meth:`install`; from then on every application message
    routed through the network is carried by the transport.  The wire
    envelopes themselves traverse the raw (possibly faulty) channel via
    ``Network.transmit``.
    """

    def __init__(self, policy: RetransmitPolicy | None = None) -> None:
        self.policy = policy or RetransmitPolicy()
        self._engine: "Engine | None" = None
        self._rng = None  # batched "transport" stream, set at install()
        self._next_seq: dict[Link, int] = {}
        self._pending: dict[tuple[Link, int], _Pending] = {}
        # Per-link dedup state: the highest contiguous seq delivered, and
        # the out-of-order seqs delivered above it (made on first need).
        self._watermark: dict[Link, int] = {}
        self._sparse: dict[Link, set[int]] = {}
        # The timer handler, bound once so every timer entry shares it.
        self._timer = self._on_timer
        self._bind_registry(MetricsRegistry())

    def _bind_registry(self, registry: MetricsRegistry) -> None:
        """Report counters into ``registry`` (the engine's, once installed)."""
        self._c_data_sent = registry.counter("transport.data_sent")
        self._c_retransmissions = registry.counter("transport.retransmissions")
        self._c_acks_sent = registry.counter("transport.acks_sent")
        self._c_dup_suppressed = registry.counter(
            "transport.duplicates_suppressed")
        self._c_delivered_unique = registry.counter(
            "transport.delivered_unique")
        self._c_abandoned = registry.counter("transport.abandoned")

    # -- wiring ---------------------------------------------------------------

    def install(self, engine: "Engine") -> "ReliableTransport":
        """Attach to ``engine``: all application traffic now flows through
        this transport.  Returns self for chaining."""
        if self._engine is not None:
            raise ConfigurationError("transport already installed")
        if engine.network.transport is not None:
            raise ConfigurationError("engine already has a transport")
        self._engine = engine
        engine.network.transport = self
        self._bind_registry(engine.registry)
        # Retransmission jitter only ever draws single uniform doubles, so
        # the seeded "transport" stream is served batched (bit-identical).
        self._rng = engine.rng.stream("transport")
        return self

    # -- counters (registry-backed views) --------------------------------------

    @property
    def data_sent(self) -> int:
        return int(self._c_data_sent.value)

    @property
    def retransmissions(self) -> int:
        return int(self._c_retransmissions.value)

    @property
    def acks_sent(self) -> int:
        return int(self._c_acks_sent.value)

    @property
    def duplicates_suppressed(self) -> int:
        return int(self._c_dup_suppressed.value)

    @property
    def delivered_unique(self) -> int:
        return int(self._c_delivered_unique.value)

    @property
    def abandoned(self) -> int:
        return int(self._c_abandoned.value)

    # -- send path (called by Network.send) ------------------------------------

    # Both send paths below transmit the data envelope and arm its timer
    # inline.  The timer's delay is ``rto`` plus numpy's scalar
    # ``uniform(-spread, spread)`` spelled out, drawn after the transmit.

    def wrap_and_send(self, msg: Message) -> None:
        """Carry application message ``msg`` reliably to its receiver."""
        engine = self._engine
        if engine is None:
            engine = self._require_engine()
        sender, receiver = msg.sender, msg.receiver
        link: Link = (sender, receiver)
        seq = self._next_seq.get(link, 0) + 1
        self._next_seq[link] = seq
        key = (link, seq)
        policy = self.policy
        rto = policy.rto_initial
        entry = _Pending(key, msg, rto)
        self._pending[key] = entry
        self._c_data_sent.value += 1.0
        engine.network.transmit(make_message((
            sender, receiver, TRANSPORT_TAG, DATA_KIND,
            {"seq": seq, "inner": msg}, next(_types._msg_counter))))
        spread = policy.jitter * rto
        delay = rto + (-spread + 2.0 * spread * self._rng.random()
                       if spread else 0.0)
        heappush(engine._heap, (engine.clock._now + max(delay, 1e-9),
                                next(engine._seq), self._timer, entry))

    # -- receive path (called by Engine._do_deliver) -----------------------------

    def on_wire_deliver(self, envelope: Message) -> None:
        """Handle a wire envelope reaching a live process."""
        sender, receiver, _, kind, payload, _ = envelope
        seq = payload["seq"]
        if kind == DATA_KIND:
            engine = self._engine  # delivery implies installed
            # Ack unconditionally — re-received duplicates mean the previous
            # ack was (or may have been) lost.
            self._c_acks_sent.value += 1.0
            engine.network.transmit(make_message((
                receiver, sender, TRANSPORT_TAG, ACK_KIND, {"seq": seq},
                next(_types._msg_counter))))
            # Dedup: per link, a contiguous watermark plus a sparse set of
            # out-of-order seqs above it, so memory stays proportional to
            # the reordering window rather than the run length.
            link = (sender, receiver)
            watermark = self._watermark.get(link, 0)
            sparse = self._sparse.get(link)
            if seq <= watermark or (sparse is not None and seq in sparse):
                self._c_dup_suppressed.value += 1.0
                return
            if seq == watermark + 1:
                # In order: advance over any seqs buffered above it.
                if sparse:
                    while seq + 1 in sparse:
                        seq += 1
                        sparse.discard(seq)
                self._watermark[link] = seq
            elif sparse is None:
                self._sparse[link] = {seq}
            else:
                sparse.add(seq)
            self._c_delivered_unique.value += 1.0
            engine.deliver_payload(payload["inner"])
        elif kind == ACK_KIND:
            self._pending.pop(((receiver, sender), seq), None)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown transport envelope {envelope!r}")

    # -- internals --------------------------------------------------------------

    def _on_timer(self, entry: _Pending) -> None:
        key = entry.key
        if key not in self._pending:
            return  # acked in the meantime
        engine = self._engine
        link, seq = key
        sender, receiver = link
        processes = engine.processes
        sender_proc = processes.get(sender)
        receiver_proc = processes.get(receiver)
        if (sender_proc is None or sender_proc.crashed
                or receiver_proc is None or receiver_proc.crashed):
            # A crashed sender stops (crash-stop); a crashed receiver will
            # never ack and is owed no delivery — drop the retry chain.
            del self._pending[key]
            self._c_abandoned.value += 1.0
            return
        policy = self.policy
        entry.attempts += 1
        entry.rto = rto = min(entry.rto * policy.backoff, policy.rto_max)
        self._c_retransmissions.value += 1.0
        engine.network.transmit(make_message((
            sender, receiver, TRANSPORT_TAG, DATA_KIND,
            {"seq": seq, "inner": entry.inner}, next(_types._msg_counter))))
        spread = policy.jitter * rto
        delay = rto + (-spread + 2.0 * spread * self._rng.random()
                       if spread else 0.0)
        heappush(engine._heap, (engine.clock._now + max(delay, 1e-9),
                                next(engine._seq), self._timer, entry))

    def in_flight(self) -> int:
        """Number of not-yet-acknowledged application messages."""
        return len(self._pending)

    def stats(self) -> TransportStats:
        """Immutable-ish snapshot of the transport counters."""
        return TransportStats(
            data_sent=self.data_sent,
            retransmissions=self.retransmissions,
            acks_sent=self.acks_sent,
            duplicates_suppressed=self.duplicates_suppressed,
            delivered_unique=self.delivered_unique,
            abandoned=self.abandoned,
        )

    def _require_engine(self) -> "Engine":
        if self._engine is None:
            raise SimulationError("transport not installed on an engine")
        return self._engine

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ReliableTransport(pending={len(self._pending)}, "
                f"sent={self.data_sent}, rexmit={self.retransmissions})")
