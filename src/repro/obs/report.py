"""Campaign-level telemetry: aggregate per-run metrics across seeds.

A campaign (chaos run, seed sweep) produces one metric snapshot per run.
:class:`CampaignTelemetry` folds them into detector-quality statistics in
the style of solvability-based oracle comparison:

* **convergence time** — p50 / p95 / max of per-run ◇P convergence
  (end of the last wrongful-suspicion interval), plus how many runs
  never converged;
* **wrongful suspicions / churn** — totals and per-run maxima;
* **service latency** — hungry→eating histograms *merged bucket-wise*
  across seeds, percentiles estimated from the merged distribution
  (likewise the witness/subject ping→ack round-trip);
* **message costs** — summed send/drop/duplicate/retransmit counters.

Inputs are either live :class:`~repro.runtime.result.RunResult`s (the
chaos runner aggregates in-process) or JSONL records read back from a
``--metrics-out`` file (``repro report``); both produce identical
numbers, since records embed the same snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

from repro.obs.exporters import record_snapshot, run_record
from repro.obs.registry import (
    HistogramSnapshot,
    MetricsSnapshot,
    percentile,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.result import RunResult

#: Counter totals surfaced in the campaign message-cost block.
_COST_COUNTERS = (
    ("sent", "net.messages_sent"),
    ("delivered", "net.messages_delivered"),
    ("dropped", "net.messages_dropped"),
    ("duplicated", "net.messages_duplicated"),
    ("retransmissions", "transport.retransmissions"),
)

#: Histograms merged bucket-wise across runs.
_MERGED_HISTOGRAMS = ("dining.hungry_to_eating", "core.ping_rtt")

#: Monitoring-cost counters (published at build time): how many ordered
#: (witness, subject) pairs the detectors monitor, and how many dining
#: instances run (the box's and any its detector attaches) — the numbers
#: that make sparse (``pairs=neighbors``) vs full-square campaign cost
#: visible.
_MONITOR_COUNTERS = (
    ("pairs_monitored", "monitor.pairs_monitored"),
    ("dining_instances", "dining.instances"),
)


@dataclass
class CampaignTelemetry:
    """Aggregated detector-quality statistics for one campaign."""

    runs: int = 0
    with_metrics: int = 0
    ok_runs: int = 0
    #: Records skipped because they carry no usable metric snapshot
    #: (``metrics: null`` from obs-disabled runs, or a malformed block):
    #: they still count in ``runs``/``ok_runs``, but contribute nothing
    #: to the statistics — ``repro report`` warns with this count.
    skipped_no_metrics: int = 0
    #: Per-run ◇P convergence times; None = that run never converged.
    convergence_times: list[Optional[float]] = field(default_factory=list)
    wrongful: list[int] = field(default_factory=list)
    churn: list[int] = field(default_factory=list)
    merged: dict[str, HistogramSnapshot] = field(default_factory=dict)
    totals: dict[str, float] = field(default_factory=dict)
    monitor_totals: dict[str, float] = field(default_factory=dict)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_results(cls, results: Sequence["RunResult"]) -> "CampaignTelemetry":
        return cls.from_records([run_record(r) for r in results])

    @classmethod
    def from_records(cls,
                     records: Sequence[Mapping[str, Any]]) -> "CampaignTelemetry":
        tele = cls()
        for record in records:
            tele._add(record)
        return tele

    def _add(self, record: Mapping[str, Any]) -> None:
        self.runs += 1
        summary = record.get("summary") or {}
        if summary.get("ok") or record.get("ok"):
            self.ok_runs += 1
        # A record without a snapshot (obs-disabled run: metrics is null)
        # or with an unreadable one must not fail the whole campaign
        # aggregation — skip it, count it, keep going.
        try:
            snap = record_snapshot(record)
        except (KeyError, TypeError, ValueError, AttributeError):
            snap = None
        if snap is None:
            self.skipped_no_metrics += 1
            return
        self.with_metrics += 1
        self.convergence_times.append(snap.gauge_value("oracle.converged_at"))
        self.wrongful.append(
            int(snap.counter_value("oracle.wrongful_suspicions")))
        self.churn.append(int(snap.counter_value("oracle.suspicion_churn")))
        for name in _MERGED_HISTOGRAMS:
            h = snap.histogram(name)
            if h is None:
                continue
            have = self.merged.get(name)
            self.merged[name] = h if have is None else have.merge(h)
        for label, counter in _COST_COUNTERS:
            self.totals[label] = (self.totals.get(label, 0.0)
                                  + snap.counter_value(counter))
        for label, counter in _MONITOR_COUNTERS:
            self.monitor_totals[label] = (self.monitor_totals.get(label, 0.0)
                                          + snap.counter_value(counter))

    # -- statistics ----------------------------------------------------------

    @property
    def converged_times(self) -> list[float]:
        return [t for t in self.convergence_times if t is not None]

    @property
    def unconverged(self) -> int:
        return sum(1 for t in self.convergence_times if t is None)

    def convergence_stats(self) -> dict[str, Any]:
        times = self.converged_times
        return {
            "p50": percentile(times, 50.0),
            "p95": percentile(times, 95.0),
            "max": max(times) if times else None,
            "unconverged": self.unconverged,
        }

    def histogram_stats(self, name: str) -> Optional[dict[str, Any]]:
        h = self.merged.get(name)
        if h is None or h.count == 0:
            return None
        return {
            "count": h.count,
            "p50": h.percentile(50.0),
            "p95": h.percentile(95.0),
            "max": h.max,
        }

    def summary(self) -> dict[str, Any]:
        """Flat JSON-safe campaign digest (the ``repro report --json`` body)."""
        return {
            "runs": self.runs,
            "ok": self.ok_runs,
            "with_metrics": self.with_metrics,
            "skipped_no_metrics": self.skipped_no_metrics,
            "convergence_time": self.convergence_stats(),
            "wrongful_suspicions": {
                "total": sum(self.wrongful),
                "max": max(self.wrongful, default=0),
            },
            "suspicion_churn": {
                "total": sum(self.churn),
                "max": max(self.churn, default=0),
            },
            "hungry_to_eating": self.histogram_stats("dining.hungry_to_eating"),
            "ping_rtt": self.histogram_stats("core.ping_rtt"),
            "messages": {k: int(v) for k, v in sorted(self.totals.items())},
            "monitoring": {k: int(v)
                           for k, v in sorted(self.monitor_totals.items())},
        }

    def merged_snapshot(self) -> MetricsSnapshot:
        """Campaign-wide snapshot: summed counters + merged histograms,
        with convergence statistics as synthetic gauges (Prometheus export)."""
        snap = MetricsSnapshot(
            counters={
                "net.messages_" + k if k in
                ("sent", "delivered", "dropped", "duplicated")
                else "transport." + k: v
                for k, v in self.totals.items()
            },
            histograms=dict(self.merged),
        )
        for label, counter in _MONITOR_COUNTERS:
            if label in self.monitor_totals:
                snap.counters[counter] = self.monitor_totals[label]
        stats = self.convergence_stats()
        for key in ("p50", "p95", "max"):
            if stats[key] is not None:
                snap.gauges[f"campaign.convergence_time_{key}"] = stats[key]
        snap.gauges["campaign.unconverged_runs"] = float(stats["unconverged"])
        snap.gauges["campaign.runs"] = float(self.runs)
        return snap

    # -- rendering -----------------------------------------------------------

    def render(self, title: str = "campaign telemetry") -> str:
        # Imported here: repro.analysis pulls in the core/dining stack,
        # which imports the engine, which imports repro.obs — a cycle if
        # resolved at module import time.
        from repro.analysis.report import Table

        def fmt(v: Optional[float]) -> Any:
            return None if v is None else round(float(v), 2)

        conv = self.convergence_stats()
        t = Table(["metric", "value"], title=title)
        t.add_row(["runs (ok / with metrics)",
                   f"{self.runs} ({self.ok_runs} / {self.with_metrics})"])
        t.add_row(["convergence time p50", fmt(conv["p50"])])
        t.add_row(["convergence time p95", fmt(conv["p95"])])
        t.add_row(["convergence time max", fmt(conv["max"])])
        t.add_row(["runs never converged", conv["unconverged"]])
        t.add_row(["wrongful suspicions (total / worst run)",
                   f"{sum(self.wrongful)} / {max(self.wrongful, default=0)}"])
        t.add_row(["suspicion churn (total)", sum(self.churn)])
        for label, name in (("hungry→eating", "dining.hungry_to_eating"),
                            ("ping→ack rtt", "core.ping_rtt")):
            st = self.histogram_stats(name)
            if st is None:
                t.add_row([f"{label} latency", None])
            else:
                t.add_row(
                    [f"{label} latency p50/p95/max (n)",
                     f"{fmt(st['p50'])}/{fmt(st['p95'])}/{fmt(st['max'])} "
                     f"({st['count']})"])
        for k, v in sorted(self.totals.items()):
            t.add_row([f"messages {k}", int(v)])
        for k, v in sorted(self.monitor_totals.items()):
            t.add_row([k.replace("_", " "), int(v)])
        return t.render()
