"""Message channels with pluggable delay and link-fault models.

By default, channel semantics follow the paper's Section 4 exactly:

* **Reliable** — every message sent to a correct process is eventually
  delivered; messages are neither lost, duplicated, nor corrupted.
* **Non-FIFO** — each message gets an independent random delay, so later
  messages can overtake earlier ones.

Two optional layers relax and then restore that contract:

* a :class:`~repro.sim.link_faults.LinkFaultModel` makes the wire
  fair-lossy (drops, duplicates, scheduled partitions), composing with
  any delay model — the fault model picks how many copies survive, the
  delay model picks when each copy arrives;
* a :class:`~repro.sim.transport.ReliableTransport`, once installed,
  carries all application traffic in retransmitted, deduplicated wire
  envelopes, re-establishing reliable exactly-once delivery over the
  faulty wire with zero changes to algorithm code.

Delay models encode the synchrony assumptions:

* :class:`AsynchronousDelays` — unbounded (heavy-tailed) delays; the pure
  asynchronous model in which the reduction algorithm must work.
* :class:`PartialSynchronyDelays` — arbitrary delays before an (unknown)
  global stabilization time ``gst``, bounded by ``delta`` afterwards; the
  model in which a *native* eventually-perfect detector is implementable
  (used only by :mod:`repro.oracles.eventually_perfect`).
* :class:`FixedDelays` — constant delay; useful in unit tests.
"""

from __future__ import annotations

import abc
import math
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

from repro import types as _types
from repro.obs.registry import Counter, MetricsRegistry
from repro.sim.rng import BatchedDoubles
from repro.sim.transport import TRANSPORT_TAG
from repro.types import Message, ProcessId, Time, make_message

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.sim.link_faults import LinkFaultModel
    from repro.sim.transport import ReliableTransport


class DelayModel(abc.ABC):
    """Maps each sent message to a strictly positive delivery delay,
    drawn from the run's ``"network"`` stream."""

    @abc.abstractmethod
    def delay(self, msg: Message, now: Time, rng: BatchedDoubles) -> Time:
        """Return the channel delay for ``msg`` sent at time ``now``."""


class FixedDelays(DelayModel):
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: Time = 1.0) -> None:
        if delay <= 0:
            raise ValueError("delay must be positive")
        self._delay = float(delay)

    def delay(self, msg: Message, now: Time, rng: BatchedDoubles) -> Time:
        return self._delay


class AsynchronousDelays(DelayModel):
    """Unbounded delays: lognormal body with occasional heavy stragglers.

    ``median`` is the *median* of the lognormal body (``exp(mu)``); the
    distribution's mean is larger, ``median * exp(sigma**2 / 2)``, plus the
    straggler contribution.  ``straggler_prob`` of messages take an extra
    uniform(0, straggler_max) delay, modelling arbitrarily slow channels.
    All delays are finite (reliability), but no bound is promised to the
    algorithms.  The body is drawn by inverse CDF from one uniform.
    """

    def __init__(
        self,
        median: Time = 1.0,
        sigma: float = 0.5,
        straggler_prob: float = 0.05,
        straggler_max: Time = 25.0,
    ) -> None:
        self.median = float(median)
        self.sigma = float(sigma)
        self.straggler_prob = float(straggler_prob)
        self.straggler_max = float(straggler_max)
        # Imported here: statistics pulls in decimal and fractions, which
        # raise every process's RSS, and only a lognormal channel needs it.
        from statistics import NormalDist

        self._quantile = NormalDist().inv_cdf

    def delay(self, msg: Message, now: Time, rng: BatchedDoubles) -> Time:
        # random() can return 0.0, where the quantile is -inf; 2**-53 is
        # the least positive double it returns.
        z = self._quantile(rng.random() or 2.0 ** -53)
        d = self.median * math.exp(self.sigma * z)
        if rng.random() < self.straggler_prob:
            d += float(rng.uniform(0.0, self.straggler_max))
        return max(d, 1e-9)


class PartialSynchronyDelays(DelayModel):
    """GST-style partial synchrony (Dwork-Lynch-Stockmeyer / Chandra-Toueg).

    Before the (algorithm-unknown) global stabilization time ``gst``,
    delays are chaotic: uniform in ``(0, pre_gst_max]``.  From ``gst`` on,
    every delay is at most ``delta``.
    """

    def __init__(self, gst: Time, delta: Time = 1.0, pre_gst_max: Time = 30.0) -> None:
        if delta <= 0 or pre_gst_max <= 0:
            raise ValueError("delta and pre_gst_max must be positive")
        self.gst = float(gst)
        self.delta = float(delta)
        self.pre_gst_max = float(pre_gst_max)

    def delay(self, msg: Message, now: Time, rng: BatchedDoubles) -> Time:
        # Each ``lo + (hi - lo) * rng.random()`` is numpy's scalar
        # ``uniform(lo, hi)`` spelled out, so a raw generator and a batched
        # view give the same Python float.
        delta = self.delta
        lo = 0.1 * delta
        if now >= self.gst:
            return lo + (delta - lo) * rng.random()
        # Chaotic period: the draw may be long, but every message sent
        # before GST is delivered by gst + delta, so that post-GST the
        # channel bound delta holds for all in-flight traffic (standard
        # GST semantics, needed for heartbeat timeouts to converge).
        deliver_at = now + (1e-9 + (self.pre_gst_max - 1e-9) * rng.random())
        cap = self.gst + (lo + (delta - lo) * rng.random())
        d = (cap if cap < deliver_at else deliver_at) - now
        return d if d > 1e-9 else 1e-9


class Network:
    """Routes messages between processes through the engine's event queue.

    ``send`` is the application-level entry point (counted in ``sent``)
    and ``send_many`` its broadcast form;
    ``transmit`` is the raw wire below any installed transport, where the
    optional link-fault model drops, duplicates, or partitions traffic.
    """

    def __init__(self, delay_model: DelayModel,
                 fault_model: "LinkFaultModel | None" = None) -> None:
        self.delay_model = delay_model
        self.fault_model = fault_model
        #: Installed by :meth:`repro.sim.transport.ReliableTransport.install`.
        self.transport: "ReliableTransport | None" = None
        self._engine: "Engine | None" = None
        # Wire RNG views; populated at bind() (send/transmit require it).
        self._rng_faults = None
        self._rng_wire = None
        self._bind_registry(MetricsRegistry())
        #: Optional hook (msg -> None) observed on every send; used by
        #: tests and metrics, never by algorithms.
        self.on_send: Optional[Callable[[Message], None]] = None

    def _bind_registry(self, registry: MetricsRegistry) -> None:
        """Report into ``registry`` (the engine's, once bound).

        All traffic counters live in the metrics registry; the classic
        ``sent`` / ``dropped`` / ... attributes below are read-only views
        over it, so one source of truth feeds both the in-process API and
        every exporter.
        """
        self._registry = registry
        self._c_sent = registry.counter("net.messages_sent")
        self._c_delivered = registry.counter("net.messages_delivered")
        self._c_dropped = registry.counter("net.messages_dropped")
        self._c_duplicated = registry.counter("net.messages_duplicated")
        self._kinds_sent: set[str] = set()
        self._kinds_dropped: set[str] = set()
        # Per-kind counter caches: labelled registry lookups format a label
        # suffix on every call, far too slow for the per-message path.
        self._c_sent_kind: dict[str, object] = {}
        self._c_dropped_kind: dict[str, object] = {}

    def bind(self, engine: "Engine") -> None:
        self._engine = engine
        self._bind_registry(engine.registry)
        # Wire-path streams, fixed at bind time: they do not depend on
        # which delay or fault model is installed.
        self._rng_faults = engine.rng.stream("link-faults")
        self._rng_wire = engine.rng.stream("network")

    # -- traffic counters (registry-backed views) ----------------------------

    @property
    def sent(self) -> int:
        return int(self._c_sent.value)

    @property
    def delivered(self) -> int:
        return int(self._c_delivered.value)

    @property
    def dropped(self) -> int:
        return int(self._c_dropped.value)

    @property
    def duplicated(self) -> int:
        return int(self._c_duplicated.value)

    @property
    def sent_by_kind(self) -> dict[str, int]:
        return {
            k: int(self._registry.counter("net.messages_sent", kind=k).value)
            for k in sorted(self._kinds_sent)
        }

    @property
    def dropped_by_kind(self) -> dict[str, int]:
        return {
            k: int(self._registry.counter("net.messages_dropped", kind=k).value)
            for k in sorted(self._kinds_dropped)
        }

    def send(self, msg: Message) -> None:
        """Accept an application message for delayed, non-FIFO delivery.

        With no fault model the channel is reliable (Section 4).  With a
        fault model but no transport, the wire's faults reach the
        application — deliberately, for chaos experiments.  With a
        transport installed, the message is carried reliably over the
        faulty wire instead.
        """
        engine = self._engine
        assert engine is not None, "network not bound to an engine"
        self._c_sent.value += 1.0
        kind = msg.kind
        c_kind = self._c_sent_kind.get(kind) or self._sent_kind_counter(kind)
        c_kind.value += 1.0
        if self.on_send is not None:
            self.on_send(msg)
        if engine.config.record_messages:
            engine.trace.record(
                "send", pid=msg.sender, to=msg.receiver, tag=msg.tag,
                msg_kind=msg.kind, uid=msg.uid,
            )
        transport = self.transport
        if transport is not None and msg.tag != TRANSPORT_TAG:
            transport.wrap_and_send(msg)
        else:
            self.transmit(msg)

    def _sent_kind_counter(self, kind: str) -> Counter:
        """Register (on first use) the per-kind ``sent`` counter."""
        c_kind = self._registry.counter("net.messages_sent", kind=kind)
        self._c_sent_kind[kind] = c_kind
        self._kinds_sent.add(kind)
        return c_kind

    def send_many(self, sender: ProcessId, receivers: Sequence[ProcessId],
                  tag: str, kind: str, payload: Mapping[str, Any]) -> None:
        """Send one ``(tag, kind, payload)`` message to each receiver.

        Observably a loop of :meth:`send` over fresh envelopes: uids,
        ``network``-stream draws and heap sequence numbers are taken per
        receiver in list order.  On the plain wire (no transport, fault
        model, ``on_send`` hook or message recording) the per-message
        bookkeeping is hoisted out of the loop and deliveries go straight
        onto the engine's heap.
        """
        engine = self._engine
        assert engine is not None, "network not bound to an engine"
        if (self.transport is not None or self.fault_model is not None
                or self.on_send is not None or engine.config.record_messages):
            for to in receivers:
                self.send(make_message((sender, to, tag, kind, payload,
                                        next(_types._msg_counter))))
            return
        n = len(receivers)
        if n == 0:
            return
        self._c_sent.inc(n)
        (self._c_sent_kind.get(kind) or self._sent_kind_counter(kind)).inc(n)
        delay = self.delay_model.delay
        rng = self._rng_wire
        now = engine.clock._now
        heap = engine._heap
        seq = engine._seq
        on_deliver = engine._on_deliver
        for to in receivers:
            msg = make_message((sender, to, tag, kind, payload,
                                next(_types._msg_counter)))
            heappush(heap, (now + delay(msg, now, rng), next(seq),
                            on_deliver, msg))

    def transmit(self, msg: Message) -> None:
        """Put ``msg`` on the raw wire: fault verdict, then delay per copy."""
        engine = self._engine
        assert engine is not None, "network not bound to an engine"
        now = engine.clock._now
        copies = 1
        if self.fault_model is not None:
            fate = self.fault_model.fate(msg, now, self._rng_faults)
            if fate.copies == 0:
                self._c_dropped.value += 1.0
                kind = msg.kind
                c_kind = self._c_dropped_kind.get(kind)
                if c_kind is None:
                    c_kind = self._registry.counter(
                        "net.messages_dropped", kind=kind)
                    self._c_dropped_kind[kind] = c_kind
                    self._kinds_dropped.add(kind)
                c_kind.value += 1.0
                if engine.config.record_messages:
                    engine.trace.record(
                        "drop", pid=msg.sender, to=msg.receiver, tag=msg.tag,
                        msg_kind=msg.kind, uid=msg.uid, reason=fate.reason,
                    )
                return
            if fate.copies > 1:
                self._c_duplicated.value += 1.0
            copies = fate.copies
        delay_model = self.delay_model
        rng = self._rng_wire
        heap = engine._heap
        on_deliver = engine._on_deliver
        if copies == 1:
            heappush(heap, (now + delay_model.delay(msg, now, rng),
                            next(engine._seq), on_deliver, msg))
        else:
            for _ in range(copies):
                heappush(heap, (now + delay_model.delay(msg, now, rng),
                                next(engine._seq), on_deliver, msg))

