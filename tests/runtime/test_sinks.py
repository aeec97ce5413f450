"""Tests for pluggable trace sinks and truncated-trace safety."""

import pickle

import pytest

from repro.dining.spec import ExclusionViolation
from repro.errors import ConfigurationError, SimulationError
from repro.runtime import justify_violations
from repro.sim.sinks import (
    CounterTraceSink,
    FullTraceSink,
    RingTraceSink,
    make_sink,
)
from repro.sim.trace import Trace


def fill(trace, n, kind="state", pid="p"):
    clock = {"now": 0.0}
    trace.bind_clock(lambda: clock["now"])
    for i in range(n):
        clock["now"] = float(i)
        trace.record(kind, pid=pid, i=i)
    return trace


class TestMakeSink:
    def test_specs(self):
        assert isinstance(make_sink(None), FullTraceSink)
        assert isinstance(make_sink("full"), FullTraceSink)
        assert isinstance(make_sink("counters"), CounterTraceSink)
        ring = make_sink("ring:64")
        assert isinstance(ring, RingTraceSink) and ring.capacity == 64

    def test_passthrough(self):
        sink = RingTraceSink(8)
        assert make_sink(sink) is sink

    def test_mode_round_trips(self):
        for spec in ("full", "ring:16", "counters"):
            assert make_sink(make_sink(spec).mode).mode == spec

    @pytest.mark.parametrize("bad", ["ring:banana", "ring:0", "ring:-3",
                                     "firehose"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            make_sink(bad)


class TestRingSink:
    def test_no_eviction_under_capacity(self):
        t = fill(Trace(sink="ring:10"), 5)
        assert len(t) == 5 and t.evicted == 0 and not t.truncated

    def test_eviction_keeps_most_recent(self):
        t = fill(Trace(sink="ring:3"), 10)
        assert len(t) == 3
        assert t.evicted == 7 and t.truncated
        assert [r["i"] for r in t.records()] == [7, 8, 9]

    def test_total_recorded_counts_everything(self):
        t = fill(Trace(sink="ring:3"), 10)
        assert t.total_recorded == 10

    def test_mode_string(self):
        assert Trace(sink="ring:3").mode == "ring:3"


class TestCounterSink:
    def test_retains_nothing(self):
        t = fill(Trace(sink="counters"), 8)
        assert len(t) == 0 and t.records() == []
        assert t.evicted == 8 and t.truncated


class TestAggregatesSurviveTruncation:
    """Kind histogram, crash times, and last-record time are maintained
    out-of-band, so they stay exact in every sink mode."""

    @pytest.mark.parametrize("sink", ["full", "ring:2", "counters"])
    def test_kinds_exact(self, sink):
        t = Trace(sink=sink)
        clock = {"now": 0.0}
        t.bind_clock(lambda: clock["now"])
        for i in range(6):
            clock["now"] = float(i)
            t.record("a" if i % 2 else "b", pid="p")
        assert t.kinds() == {"a": 3, "b": 3}
        assert t.last_time() == 5.0

    @pytest.mark.parametrize("sink", ["ring:2", "counters"])
    def test_crash_times_survive_eviction(self, sink):
        t = Trace(sink=sink)
        clock = {"now": 0.0}
        t.bind_clock(lambda: clock["now"])
        clock["now"] = 3.0
        t.record("crash", pid="q")
        for i in range(10):
            clock["now"] = 10.0 + i
            t.record("state", pid="p", s="x")
        assert t.crash_times() == {"q": 3.0}


class TestTracePickling:
    def test_round_trip_drops_clock_binding(self):
        t = fill(Trace(sink="ring:4"), 6)
        t2 = pickle.loads(pickle.dumps(t))
        assert [r["i"] for r in t2.records()] == [r["i"] for r in t.records()]
        assert t2.evicted == t.evicted and t2.mode == t.mode
        assert t2.kinds() == t.kinds()


class TestJustifyViolationsOnTruncatedTraces:
    """The trace-taking justification check replays the rows a sink kept:
    on a truncated trace it judges the retained window (a run's own
    verdict is judged online and never truncated — see
    test_sink_verdicts)."""

    VIOLATION = ExclusionViolation(u="p", v="q", start=50.0, end=60.0)

    def test_truncated_window_is_judged(self):
        t = fill(Trace(sink="ring:2"), 10)
        assert justify_violations(t, [self.VIOLATION]) is False

    def test_counters_window_is_empty(self):
        t = fill(Trace(sink="counters"), 3)
        assert justify_violations(t, [self.VIOLATION]) is False

    def test_no_violations_is_fine_even_truncated(self):
        t = fill(Trace(sink="ring:2"), 10)
        assert justify_violations(t, []) is True

    def test_untruncated_ring_still_judges(self):
        """A ring sink that never evicted anything has the full history;
        the check runs normally (and an unjustified violation reads as
        such, because no evidence can be missing)."""
        t = fill(Trace(sink="ring:1000"), 5)
        assert justify_violations(t, [self.VIOLATION]) is False


class TestEngineReportsSinkMode:
    def test_event_budget_error_names_sink_and_eviction(self):
        from repro.sim import Engine, FixedDelays, SimConfig

        eng = Engine(SimConfig(seed=0, max_time=1e9, max_events=100,
                               trace_sink="ring:5"),
                     delay_model=FixedDelays(1.0))
        eng.add_process("p")
        eng.add_process("q")
        with pytest.raises(SimulationError, match="ring:5"):
            eng.run()

    def test_engine_honors_sink_config(self):
        from repro.sim import Engine, SimConfig

        eng = Engine(SimConfig(seed=0, trace_sink="counters"))
        assert eng.trace.mode == "counters"
