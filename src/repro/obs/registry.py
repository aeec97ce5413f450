"""A lightweight, zero-dependency metrics registry.

Three metric types cover everything the telemetry layer needs:

* :class:`Counter`   — a monotonically non-decreasing total;
* :class:`Gauge`     — a point-in-time value (set, not accumulated);
* :class:`Histogram` — fixed-bucket value distribution with interpolated
  percentile estimation, mergeable across runs.

A :class:`MetricsRegistry` is a named, optionally-labelled collection of
these.  The simulation engine owns one per run; the network, transport,
and convergence probes all report into it, and
:meth:`MetricsRegistry.snapshot` freezes it into a plain-data
:class:`MetricsSnapshot` that pickles across worker processes, serializes
to JSON, and merges across campaign seeds (counters sum, histogram
buckets add; gauges are per-run facts and are dropped by ``merge`` —
campaign percentiles over gauges are computed by
:mod:`repro.obs.report` from the individual runs instead).

Everything here is deterministic pure arithmetic: no clocks, no
randomness, no I/O — so metric values are bit-identical between serial
and parallel campaign execution.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Iterator, Mapping, Optional, Sequence

from repro.errors import ConfigurationError

#: Default histogram bucket upper bounds (virtual-time latencies).  The
#: overflow bucket (+Inf) is implicit.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)


def escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, double quote, newline.

    Label values come from user-facing strings — graph specs like
    ``rgg:200:0.12:7``, file paths, arbitrary run names — so the rendered
    ``{k="v"}`` form must stay unambiguous whatever the value contains.
    Inverse: :func:`repro.obs.exporters.parse_prometheus_labels`.
    """
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


_LABEL_KEY_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _label_suffix(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    for k in labels:
        if not _LABEL_KEY_RE.match(str(k)):
            raise ConfigurationError(
                f"invalid metric label name {k!r} (must match "
                "[a-zA-Z_][a-zA-Z0-9_]*)")
    inner = ",".join(f'{k}="{escape_label_value(labels[k])}"'
                     for k in sorted(labels))
    return "{" + inner + "}"


@lru_cache(maxsize=256)
def _full_name(key: tuple) -> str:
    """``name{k="v",...}`` for ``key = (name, (k, str(v)), ...)``.

    Remembered process-wide, so a hot labelled counter (the service's
    per-route and per-status ones) formats its suffix once, not per call;
    a name whose labels fail validation raises and is never remembered.
    Bounded, because a large run's per-process series would otherwise
    pin one entry each for the life of the process.
    """
    return key[0] + _label_suffix(dict(key[1:]))


class Counter:
    """A monotonically non-decreasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket distribution: counts per bucket plus sum/count/min/max.

    ``buckets`` are strictly increasing upper bounds; an overflow bucket
    (+Inf) is always implied.  Percentiles are estimated by linear
    interpolation inside the containing bucket (Prometheus-style), clamped
    to the exact observed ``[min, max]`` range.
    """

    __slots__ = ("name", "buckets", "counts", "sum", "count", "min", "max")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be strictly increasing, "
                f"got {bounds}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = overflow
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        v = float(value)
        self.sum += v
        self.count += 1
        self.min = min(self.min, v)
        self.max = max(self.max, v)
        for i, bound in enumerate(self.buckets):
            if v <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def snapshot(self) -> "HistogramSnapshot":
        return HistogramSnapshot(
            buckets=self.buckets,
            counts=tuple(self.counts),
            sum=self.sum,
            count=self.count,
            min=self.min if self.count else None,
            max=self.max if self.count else None,
        )


@dataclass(frozen=True)
class HistogramSnapshot:
    """Frozen histogram state: picklable, JSON-able, mergeable."""

    buckets: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int
    min: Optional[float]
    max: Optional[float]

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-th percentile (``q`` in [0, 100]).

        Linear interpolation inside the containing bucket; the overflow
        bucket interpolates toward the exact observed maximum.  Returns
        None for an empty histogram.
        """
        if self.count == 0:
            return None
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile q must be in [0, 100], got {q}")
        rank = (q / 100.0) * self.count
        cum = 0
        lower = 0.0
        for i, n in enumerate(self.counts):
            upper = (self.buckets[i] if i < len(self.buckets)
                     else (self.max if self.max is not None else lower))
            if n and cum + n >= rank:
                frac = (rank - cum) / n
                value = lower + frac * (upper - lower)
                return self._clamp(value)
            cum += n
            lower = upper
        return self._clamp(lower)

    def _clamp(self, value: float) -> float:
        lo = self.min if self.min is not None else value
        hi = self.max if self.max is not None else value
        return float(min(max(value, lo), hi))

    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Bucket-wise sum of two snapshots (identical bucket layout)."""
        if self.buckets != other.buckets:
            raise ConfigurationError(
                "cannot merge histograms with different buckets: "
                f"{self.buckets} vs {other.buckets}")
        mins = [m for m in (self.min, other.min) if m is not None]
        maxs = [m for m in (self.max, other.max) if m is not None]
        return HistogramSnapshot(
            buckets=self.buckets,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            sum=self.sum + other.sum,
            count=self.count + other.count,
            min=min(mins) if mins else None,
            max=max(maxs) if maxs else None,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HistogramSnapshot":
        return cls(
            buckets=tuple(float(b) for b in data["buckets"]),
            counts=tuple(int(c) for c in data["counts"]),
            sum=float(data["sum"]),
            count=int(data["count"]),
            min=None if data.get("min") is None else float(data["min"]),
            max=None if data.get("max") is None else float(data["max"]),
        )


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create; requesting an
    existing name with a different metric type is a configuration error.
    Labels become part of the full metric name
    (``name{key="value",...}``, keys sorted), so one logical metric can
    carry per-kind / per-process series.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}

    def _get(self, cls: type, name: str, labels: Mapping[str, str],
             **kwargs: Any) -> Any:
        full = (_full_name((name, *((k, str(v)) for k, v in labels.items())))
                if labels else name)
        metric = self._metrics.get(full)
        if metric is None:
            metric = self._metrics[full] = cls(full, **kwargs)
        elif not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {full!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}")
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[tuple[str, Any]]:
        return iter(sorted(self._metrics.items()))

    def snapshot(self) -> "MetricsSnapshot":
        """Freeze every registered metric into plain data (sorted names)."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, HistogramSnapshot] = {}
        for name, metric in self:
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.snapshot()
        return MetricsSnapshot(counters=counters, gauges=gauges,
                               histograms=histograms)


@dataclass
class MetricsSnapshot:
    """Frozen registry state: the metric payload a :class:`RunResult` carries.

    Plain dicts of plain values — pickles across the multiprocessing
    pool, compares by value, serializes to JSON via :meth:`to_dict`.
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)

    # -- lookups -------------------------------------------------------------

    def counter_value(self, name: str, default: float = 0.0) -> float:
        return self.counters.get(name, default)

    def gauge_value(self, name: str,
                    default: Optional[float] = None) -> Optional[float]:
        return self.gauges.get(name, default)

    def histogram(self, name: str) -> Optional[HistogramSnapshot]:
        return self.histograms.get(name)

    def gauges_by_prefix(self, prefix: str) -> dict[str, float]:
        """All gauges whose full name starts with ``prefix``."""
        return {k: v for k, v in self.gauges.items() if k.startswith(prefix)}

    # -- aggregation ---------------------------------------------------------

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Cross-run aggregate: counters sum, histograms merge buckets.

        Gauges are per-run point facts (e.g. convergence time) with no
        meaningful sum; campaign statistics over them are computed from
        the individual run snapshots (:mod:`repro.obs.report`), so
        ``merge`` drops them.
        """
        counters = dict(self.counters)
        for k, v in other.counters.items():
            counters[k] = counters.get(k, 0.0) + v
        histograms = dict(self.histograms)
        for k, h in other.histograms.items():
            histograms[k] = histograms[k].merge(h) if k in histograms else h
        return MetricsSnapshot(counters=counters, gauges={},
                               histograms=histograms)

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: h.to_dict() for k, h in self.histograms.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsSnapshot":
        return cls(
            counters={k: float(v) for k, v in data.get("counters", {}).items()},
            gauges={k: float(v) for k, v in data.get("gauges", {}).items()},
            histograms={
                k: HistogramSnapshot.from_dict(h)
                for k, h in data.get("histograms", {}).items()
            },
        )


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Exact ``q``-th percentile of a scalar sample (linear interpolation).

    Used for campaign-level statistics over per-run gauges (one
    convergence time per seed), where all samples are available exactly —
    unlike histogram percentiles, no bucket estimation is involved.
    """
    if not values:
        return None
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile q must be in [0, 100], got {q}")
    vs = sorted(float(v) for v in values)
    if len(vs) == 1:
        return vs[0]
    rank = (q / 100.0) * (len(vs) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(vs) - 1)
    frac = rank - lo
    return vs[lo] + frac * (vs[hi] - vs[lo])
