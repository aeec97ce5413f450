"""Tests for trace recording, queries, and interval extraction."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.trace import (
    Trace,
    TraceRecord,
    intervals_overlap,
    state_intervals,
)


def make_trace(rows):
    """rows: (time, kind, pid, data) tuples."""
    t = Trace()
    clock = {"now": 0.0}
    t.bind_clock(lambda: clock["now"])
    for time, kind, pid, data in rows:
        clock["now"] = time
        t.record(kind, pid=pid, **data)
    return t


class TestTraceRecord:
    REC = TraceRecord(2.5, "suspect", "p", {"target": "q", "suspected": True})

    def test_fields_and_data_access(self):
        rec = self.REC
        assert (rec.time, rec.kind, rec.pid) == (2.5, "suspect", "p")
        assert rec["target"] == "q" and rec.get("suspected") is True
        assert rec.get("missing") is None and rec.get("missing", 3) == 3
        with pytest.raises(KeyError):
            rec["missing"]

    def test_keyword_construction_and_default_data(self):
        a = TraceRecord(time=1.0, kind="crash", pid="p")
        b = TraceRecord(time=1.0, kind="crash", pid="p")
        assert a.data == {} and a == b
        a.data["leak"] = 1
        assert b.data == {}

    def test_frozen(self):
        for attr in ("time", "kind", "pid", "data"):
            with pytest.raises(AttributeError):
                setattr(self.REC, attr, "x")
            with pytest.raises(AttributeError):
                delattr(self.REC, attr)

    def test_equality_is_field_wise_between_records(self):
        rec = self.REC
        assert rec == TraceRecord(2.5, "suspect", "p", dict(rec.data))
        assert rec != TraceRecord(2.5, "suspect", "p", {"target": "r"})
        assert rec != TraceRecord(2.6, "suspect", "p", dict(rec.data))
        assert rec != (2.5, "suspect", "p", dict(rec.data))

    def test_repr_shows_every_field(self):
        assert repr(TraceRecord(1.0, "crash", "p")) \
            == "TraceRecord(time=1.0, kind='crash', pid='p', data={})"

    def test_pickle_round_trip(self):
        clone = pickle.loads(pickle.dumps(self.REC))
        assert type(clone) is TraceRecord and clone == self.REC


def test_empty_trace():
    t = Trace()
    assert len(t) == 0 and t.last_time() == 0.0


def test_record_stamps_clock_time():
    t = make_trace([(5.0, "x", "p", {})])
    assert t.records()[0].time == 5.0


def test_records_filter_by_kind_and_pid():
    t = make_trace([
        (1.0, "a", "p", {}),
        (2.0, "b", "p", {}),
        (3.0, "a", "q", {}),
    ])
    assert len(t.records(kind="a")) == 2
    assert len(t.records(pid="p")) == 2
    assert len(t.records(kind="a", pid="q")) == 1


@pytest.mark.parametrize("sink", ["full", "counters"])
def test_indexed_queries_follow_appends_and_eviction(sink):
    t = Trace(sink)
    clock = {"now": 0.0}
    t.bind_clock(lambda: clock["now"])

    def scan(kind, pid=None):
        return [r for r in t if r.kind == kind and pid in (None, r.pid)]

    for i, (kind, pid) in enumerate([("a", "p"), ("b", "p"), ("a", "q"),
                                     ("a", "p"), ("b", "q")]):
        clock["now"] = float(i)
        t.record(kind, pid)
        for k, p in [("a", None), ("a", "p"), ("b", "q"), ("c", "p")]:
            assert t.records(kind=k, pid=p) == scan(k, p)
    # The caller owns the list; the index behind it is not pickled.
    t.records(kind="a").clear()
    assert t.records(kind="a") == scan("a")
    assert pickle.loads(pickle.dumps(t))._index is None


def test_records_filter_by_predicate():
    t = make_trace([(1.0, "a", "p", {"v": 1}), (2.0, "a", "p", {"v": 2})])
    assert len(t.records(where=lambda r: r["v"] > 1)) == 1


def test_series_extraction():
    t = make_trace([(1.0, "s", "p", {"x": "A"}), (4.0, "s", "p", {"x": "B"})])
    assert t.series("s", "x") == [(1.0, "A"), (4.0, "B")]


def test_kinds_histogram():
    t = make_trace([(1.0, "a", "p", {}), (2.0, "a", "p", {}),
                    (3.0, "b", "p", {})])
    assert t.kinds() == {"a": 2, "b": 1}


def test_crash_times():
    t = make_trace([(7.0, "crash", "p", {}), (9.0, "crash", "q", {})])
    assert t.crash_times() == {"p": 7.0, "q": 9.0}


def test_record_getitem_and_get():
    t = make_trace([(1.0, "a", "p", {"v": 3})])
    r = t.records()[0]
    assert r["v"] == 3 and r.get("missing", 0) == 0


class TestStateIntervals:
    def test_basic_closed_interval(self):
        events = [(0.0, "thinking"), (2.0, "eating"), (5.0, "thinking")]
        assert state_intervals(events, "eating", 10.0) == [(2.0, 5.0)]

    def test_open_interval_closed_at_end(self):
        events = [(0.0, "thinking"), (3.0, "eating")]
        assert state_intervals(events, "eating", 10.0) == [(3.0, 10.0)]

    def test_multiple_intervals(self):
        events = [(0.0, "e"), (1.0, "x"), (2.0, "e"), (3.0, "x")]
        assert state_intervals(events, "e", 5.0) == [(0.0, 1.0), (2.0, 3.0)]

    def test_never_in_state(self):
        assert state_intervals([(0.0, "a")], "b", 5.0) == []

    def test_consecutive_same_state_merged(self):
        events = [(0.0, "e"), (1.0, "e"), (2.0, "x")]
        assert state_intervals(events, "e", 5.0) == [(0.0, 2.0)]


class TestOverlap:
    def test_overlapping(self):
        assert intervals_overlap((0.0, 2.0), (1.0, 3.0))

    def test_touching_does_not_overlap(self):
        assert not intervals_overlap((0.0, 2.0), (2.0, 3.0))

    def test_disjoint(self):
        assert not intervals_overlap((0.0, 1.0), (2.0, 3.0))

    def test_containment_overlaps(self):
        assert intervals_overlap((0.0, 10.0), (3.0, 4.0))

    @given(
        a0=st.floats(0, 100), alen=st.floats(0.01, 50),
        b0=st.floats(0, 100), blen=st.floats(0.01, 50),
    )
    def test_overlap_is_symmetric(self, a0, alen, b0, blen):
        a, b = (a0, a0 + alen), (b0, b0 + blen)
        assert intervals_overlap(a, b) == intervals_overlap(b, a)

    @given(a0=st.floats(0, 100), alen=st.floats(0.01, 50))
    def test_interval_overlaps_itself(self, a0, alen):
        a = (a0, a0 + alen)
        assert intervals_overlap(a, a)


@given(st.lists(
    st.tuples(st.floats(0, 100), st.sampled_from(["a", "b", "c"])),
    max_size=30,
))
def test_state_intervals_are_disjoint_and_ordered(events):
    events = sorted(events, key=lambda e: e[0])
    ivs = state_intervals(events, "a", 200.0)
    for (s1, e1), (s2, e2) in zip(ivs, ivs[1:]):
        assert e1 <= s2
    assert all(s <= e for s, e in ivs)
