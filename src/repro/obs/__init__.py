"""Detector-quality telemetry: metrics registry, probes, exporters, reports.

See ``docs/observability.md`` for the full tour.  The public surface:

* :class:`MetricsRegistry` / :class:`MetricsSnapshot` — collect and
  freeze per-run metrics (``repro.obs.registry``);
* :class:`IntervalMachine` — the one fold of the trace record stream
  (suspicion and phase intervals) that the probes' metrics, the spans
  and the verdict battery all read (``repro.obs.intervals``);
* :func:`run_record` / :func:`write_jsonl` / :func:`prometheus_text` —
  stable on-disk forms (``repro.obs.exporters``);
* :class:`CampaignTelemetry` — cross-seed aggregation behind
  ``repro report`` (``repro.obs.report``);
* :func:`span_records` — typed span tracing
  (suspicion intervals, dining phases, crash points, convergence
  markers) with the ``repro.span.v1`` export behind ``--spans-out``
  and ``repro timeline`` (``repro.obs.spans`` / ``repro.obs.timeline``).
"""

from repro.obs.exporters import (
    EXPERIMENT_SCHEMA,
    RUN_SCHEMA,
    dumps_record,
    experiment_record,
    parse_prometheus_labels,
    prometheus_text,
    read_jsonl,
    record_snapshot,
    run_record,
    write_jsonl,
    write_prometheus,
)
from repro.obs.intervals import IntervalMachine
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    escape_label_value,
    percentile,
)
from repro.obs.report import CampaignTelemetry
from repro.obs.spans import SPAN_SCHEMA, span_records

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_BUCKETS",
    "percentile",
    "IntervalMachine",
    "CampaignTelemetry",
    "RUN_SCHEMA",
    "EXPERIMENT_SCHEMA",
    "SPAN_SCHEMA",
    "span_records",
    "run_record",
    "experiment_record",
    "dumps_record",
    "write_jsonl",
    "read_jsonl",
    "record_snapshot",
    "escape_label_value",
    "parse_prometheus_labels",
    "prometheus_text",
    "write_prometheus",
]
