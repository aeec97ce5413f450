"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import json
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    percentile,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("c")
        assert c.value == 0.0
        c.inc()
        c.inc(3)
        assert c.value == 4.0

    def test_rejects_negative_increment(self):
        with pytest.raises(ConfigurationError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("g")
        g.set(5.0)
        g.set(2.5)
        assert g.value == 2.5


class TestHistogram:
    def test_buckets_must_increase(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=())

    def test_observation_accounting(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.counts == [1, 1, 1, 1]  # last = overflow
        assert h.sum == pytest.approx(105.0)
        assert h.min == 0.5 and h.max == 100.0

    def test_empty_snapshot(self):
        snap = Histogram("h").snapshot()
        assert snap.count == 0
        assert snap.min is None and snap.max is None
        assert snap.percentile(50.0) is None
        assert snap.mean() is None

    def test_percentile_clamped_to_observed_range(self):
        h = Histogram("h", buckets=(10.0, 20.0))
        h.observe(12.0)
        h.observe(13.0)
        snap = h.snapshot()
        p0, p100 = snap.percentile(0.0), snap.percentile(100.0)
        assert 12.0 <= p0 <= 13.0
        assert 12.0 <= p100 <= 13.0
        with pytest.raises(ConfigurationError):
            snap.percentile(101.0)

    def test_overflow_interpolates_toward_observed_max(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(50.0)
        assert h.snapshot().percentile(99.0) <= 50.0

    def test_merge_adds_bucketwise(self):
        a, b = Histogram("h"), Histogram("h")
        a.observe(1.0)
        b.observe(100.0)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.count == 2
        assert merged.min == 1.0 and merged.max == 100.0
        assert merged.sum == pytest.approx(101.0)

    def test_merge_rejects_mismatched_buckets(self):
        a = Histogram("h", buckets=(1.0,)).snapshot()
        b = Histogram("h", buckets=(2.0,)).snapshot()
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_dict_round_trip(self):
        h = Histogram("h")
        h.observe(3.0)
        snap = h.snapshot()
        again = HistogramSnapshot.from_dict(
            json.loads(json.dumps(snap.to_dict())))
        assert again == snap


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("net.sent", kind="ping").inc()
        reg.counter("net.sent", kind="ack").inc(2)
        snap = reg.snapshot()
        assert snap.counter_value('net.sent{kind="ping"}') == 1
        assert snap.counter_value('net.sent{kind="ack"}') == 2

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        assert reg.counter("m", b="2", a="1") is reg.counter("m", a="1", b="2")

    def test_label_values_name_by_their_string(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a=1) is reg.counter("x", a="1")
        assert reg.counter("x", a=1, b=2) is reg.counter("x", b="2", a="1")
        assert len(reg) == 2

    def test_more_labelled_series_than_remembered_names(self):
        reg = MetricsRegistry()
        first = [reg.counter("sim.steps", process=f"p{i}") for i in range(600)]
        again = [reg.counter("sim.steps", process=f"p{i}") for i in range(600)]
        assert all(a is b for a, b in zip(first, again))
        assert len(reg) == 600

    def test_invalid_label_name_raises_on_every_call(self):
        reg = MetricsRegistry()
        for _ in range(3):  # a name that failed is never remembered
            with pytest.raises(ConfigurationError, match="label name"):
                reg.counter("x", **{"bad-key": "v"})
        assert len(reg) == 0

    def test_repeated_lookups_leave_snapshot_names_unchanged(self):
        reg = MetricsRegistry()
        for _ in range(3):
            reg.counter("service.requests", route="/v1/runs").inc()
            reg.counter("service.responses", code=200).inc()
            reg.gauge("g", path='a"b\\c\n').set(1.0)
            reg.counter("plain").inc()
        snap = reg.snapshot()
        assert snap.counters == {
            "plain": 3.0,
            'service.requests{route="/v1/runs"}': 3.0,
            'service.responses{code="200"}': 3.0,
        }
        assert list(snap.gauges) == ['g{path="a\\"b\\\\c\\n"}']

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")

    def test_snapshot_plain_data(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(7.0)
        reg.histogram("h").observe(2.0)
        snap = reg.snapshot()
        assert snap.counter_value("c") == 1.0
        assert snap.gauge_value("g") == 7.0
        assert snap.histogram("h").count == 1
        assert snap.gauge_value("missing") is None
        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_snapshot_dict_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g", process="p0").set(1.5)
        reg.histogram("h").observe(0.25)
        snap = reg.snapshot()
        again = MetricsSnapshot.from_dict(
            json.loads(json.dumps(snap.to_dict())))
        assert again == snap

    def test_gauges_by_prefix(self):
        reg = MetricsRegistry()
        reg.gauge("oracle.stabilized_at", process="p0").set(10.0)
        reg.gauge("oracle.stabilized_at", process="p1").set(20.0)
        reg.gauge("other").set(1.0)
        found = reg.snapshot().gauges_by_prefix("oracle.stabilized_at")
        assert sorted(found.values()) == [10.0, 20.0]

    def test_merge_sums_counters_merges_histograms_drops_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.gauge("g").set(5.0)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(2.0)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.counter_value("c") == 3.0
        assert merged.gauges == {}
        assert merged.histogram("h").count == 2


class TestPercentile:
    def test_empty_and_single(self):
        assert percentile([], 50.0) is None
        assert percentile([4.0], 95.0) == 4.0

    def test_exact_interpolation(self):
        vs = [1.0, 2.0, 3.0, 4.0]
        assert percentile(vs, 0.0) == 1.0
        assert percentile(vs, 100.0) == 4.0
        assert percentile(vs, 50.0) == pytest.approx(2.5)

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], -1.0)

    def test_default_buckets_strictly_increase(self):
        assert all(a < b for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]))
