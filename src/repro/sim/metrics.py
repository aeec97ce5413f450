"""Run metrics: message, step, and event accounting.

A :class:`RunMetrics` summarizes the cost of a run; experiment E12
(reduction overhead) is built on these numbers.

Since the observability layer landed, every traffic counter already
lives in the engine's :class:`~repro.obs.registry.MetricsRegistry`
(``net.*``, ``transport.*``).  :class:`RunMetrics` is therefore no
longer a second accounting system: it is a **read-only view** over a
:class:`~repro.obs.registry.MetricsSnapshot`, with the historical field
names (``messages_sent``, ``steps_by_process``, ...) preserved as
properties.  :func:`collect_metrics` publishes the engine-side facts the
registry did not already hold (virtual time, processed events, per-
process step counts — as ``sim.*`` gauges) and freezes one snapshot that
backs both ``RunResult.metrics`` and ``RunResult.obs``.
:meth:`RunMetrics.from_values` builds a view over a synthetic snapshot
for tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from repro.obs.registry import MetricsRegistry, MetricsSnapshot

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

#: Registry names backing the view fields.
_G_VIRTUAL_TIME = "sim.virtual_time"
_G_EVENTS = "sim.events_processed"
_G_STEPS_PREFIX = 'sim.steps{process="'
_C_SENT = "net.messages_sent"
_C_SENT_KIND_PREFIX = 'net.messages_sent{kind="'
_C_DELIVERED = "net.messages_delivered"
_C_DROPPED = "net.messages_dropped"
_C_DUPLICATED = "net.messages_duplicated"
_C_RETRANSMISSIONS = "transport.retransmissions"


def _labelled(mapping: Mapping[str, float], prefix: str) -> dict[str, int]:
    """Decode single-label series ``name{label="value"}`` -> value map."""
    out: dict[str, int] = {}
    for full, v in mapping.items():
        if full.startswith(prefix) and full.endswith('"}'):
            out[full[len(prefix):-2]] = int(v)
    return out


class RunMetrics:
    """Read-only cost summary of a run, viewing its metrics snapshot.

    All fields are derived properties over :attr:`snapshot`; nothing is
    stored twice, so this view and every registry exporter necessarily
    agree.  Instances pickle (the snapshot is plain data) and compare by
    snapshot value.
    """

    __slots__ = ("snapshot",)

    def __init__(self, snapshot: MetricsSnapshot) -> None:
        self.snapshot = snapshot

    @classmethod
    def from_values(
        cls,
        virtual_time: float = 0.0,
        events_processed: int = 0,
        messages_sent: int = 0,
        messages_delivered: int = 0,
        messages_by_kind: Optional[Mapping[str, int]] = None,
        steps_by_process: Optional[Mapping[str, int]] = None,
        messages_dropped: int = 0,
        messages_duplicated: int = 0,
        retransmissions: int = 0,
    ) -> "RunMetrics":
        """Build a view over a synthetic snapshot (tests)."""
        reg = MetricsRegistry()
        reg.gauge(_G_VIRTUAL_TIME).set(float(virtual_time))
        reg.gauge(_G_EVENTS).set(float(events_processed))
        reg.counter(_C_SENT).inc(messages_sent)
        reg.counter(_C_DELIVERED).inc(messages_delivered)
        reg.counter(_C_DROPPED).inc(messages_dropped)
        reg.counter(_C_DUPLICATED).inc(messages_duplicated)
        reg.counter(_C_RETRANSMISSIONS).inc(retransmissions)
        for kind, n in (messages_by_kind or {}).items():
            reg.counter(_C_SENT, kind=kind).inc(n)
        for pid, n in (steps_by_process or {}).items():
            reg.gauge("sim.steps", process=str(pid)).set(float(n))
        return cls(reg.snapshot())

    # -- the historical fields, now registry-backed --------------------------

    @property
    def virtual_time(self) -> float:
        return float(self.snapshot.gauge_value(_G_VIRTUAL_TIME, 0.0))

    @property
    def events_processed(self) -> int:
        return int(self.snapshot.gauge_value(_G_EVENTS, 0.0))

    @property
    def messages_sent(self) -> int:
        return int(self.snapshot.counter_value(_C_SENT))

    @property
    def messages_delivered(self) -> int:
        return int(self.snapshot.counter_value(_C_DELIVERED))

    @property
    def messages_by_kind(self) -> dict[str, int]:
        return _labelled(self.snapshot.counters, _C_SENT_KIND_PREFIX)

    @property
    def steps_by_process(self) -> dict[str, int]:
        return _labelled(self.snapshot.gauges, _G_STEPS_PREFIX)

    @property
    def messages_dropped(self) -> int:
        """Wire messages lost to link faults (0 on reliable channels)."""
        return int(self.snapshot.counter_value(_C_DROPPED))

    @property
    def messages_duplicated(self) -> int:
        """Wire messages duplicated by link faults."""
        return int(self.snapshot.counter_value(_C_DUPLICATED))

    @property
    def retransmissions(self) -> int:
        """Transport retransmissions (0 when no transport is installed)."""
        return int(self.snapshot.counter_value(_C_RETRANSMISSIONS))

    @property
    def total_steps(self) -> int:
        return sum(self.steps_by_process.values())

    # -- derived views --------------------------------------------------------

    def messages_per_time(self) -> float:
        """Average message rate over virtual time (0 for an empty run)."""
        if self.virtual_time <= 0:
            return 0.0
        return self.messages_sent / self.virtual_time

    def format_table(self) -> str:
        """Human-readable one-block summary."""
        lines = [
            f"virtual time        : {self.virtual_time:.1f}",
            f"events processed    : {self.events_processed}",
            f"messages sent       : {self.messages_sent}",
            f"messages delivered  : {self.messages_delivered}",
            f"messages dropped    : {self.messages_dropped}",
            f"messages duplicated : {self.messages_duplicated}",
            f"retransmissions     : {self.retransmissions}",
            f"total process steps : {self.total_steps}",
            "messages by kind    :",
        ]
        for kind, n in sorted(self.messages_by_kind.items()):
            lines.append(f"  {kind:<18}: {n}")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunMetrics):
            return NotImplemented
        return self.snapshot == other.snapshot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RunMetrics(sent={self.messages_sent}, "
                f"delivered={self.messages_delivered}, "
                f"events={self.events_processed}, "
                f"t={self.virtual_time:.1f})")


def collect_metrics(engine: "Engine") -> RunMetrics:
    """Freeze ``engine``'s cost counters into a registry-backed view.

    Publishes the engine-side facts the registry does not hold on its own
    (virtual time, processed events, per-process step counts) as ``sim.*``
    gauges, finalizes the convergence probes, and snapshots once — the
    returned view and :meth:`Engine.metrics_snapshot` therefore report
    from the same numbers.
    """
    reg = engine.registry
    reg.gauge(_G_VIRTUAL_TIME).set(float(engine.clock.now))
    reg.gauge(_G_EVENTS).set(float(engine.events_processed))
    for pid, proc in engine.processes.items():
        reg.gauge("sim.steps", process=str(pid)).set(float(proc.steps_taken))
    return RunMetrics(engine.metrics_snapshot())
