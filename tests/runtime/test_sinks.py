"""Tests for the two trace retention modes and counters-trace safety."""

import pickle

import pytest

from repro.dining.spec import ExclusionViolation
from repro.errors import ConfigurationError, SimulationError
from repro.runtime import RunSpec, justify_violations
from repro.sim.trace import Trace


def fill(trace, n, kind="state", pid="p"):
    clock = {"now": 0.0}
    trace.bind_clock(lambda: clock["now"])
    for i in range(n):
        clock["now"] = float(i)
        trace.record(kind, pid=pid, i=i)
    return trace


class TestRetentionModes:
    def test_full_keeps_every_row(self):
        t = fill(Trace(), 5)
        assert t.mode == "full" and len(t) == 5
        assert t.evicted == 0 and not t.truncated

    @pytest.mark.parametrize("bad", ["ring:banana", "ring:0", "ring:-3",
                                     "firehose", "ring:64"])
    def test_bad_modes_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="unknown trace sink"):
            Trace(bad)

    def test_ring_sink_is_gone_from_spec_and_engine(self):
        from repro.sim import Engine, SimConfig

        with pytest.raises(ConfigurationError, match="unknown trace sink"):
            RunSpec(trace="ring:64")
        with pytest.raises(ConfigurationError, match="unknown trace sink"):
            Engine(SimConfig(trace_sink="ring:5"))


class TestCounterSink:
    def test_retains_nothing(self):
        t = fill(Trace("counters"), 8)
        assert len(t) == 0 and t.records() == []
        assert t.evicted == 8 and t.truncated

    def test_lazy_path_builds_only_subscribed_kinds(self):
        seen = []
        for mode in ("counters", "full"):
            t = Trace(mode)
            t.subscribe(seen.append, kinds=["a"])
            elided = t.record("b", pid="p") is None
            assert elided == (mode == "counters")
            assert t.record("a", pid="p") is not None
            assert t.kinds() == {"a": 1, "b": 1} and t.total_recorded == 2
        assert [r.kind for r in seen] == ["a", "a"]


class TestAggregatesSurviveTruncation:
    """Kind histogram, crash times, and last-record time are maintained
    out-of-band, so they stay exact in both modes."""

    @pytest.mark.parametrize("sink", ["full", "counters"])
    def test_kinds_exact(self, sink):
        t = Trace(sink)
        clock = {"now": 0.0}
        t.bind_clock(lambda: clock["now"])
        for i in range(6):
            clock["now"] = float(i)
            t.record("a" if i % 2 else "b", pid="p")
        assert t.kinds() == {"a": 3, "b": 3}
        assert t.last_time() == 5.0

    @pytest.mark.parametrize("sink", ["counters"])
    def test_crash_times_survive_eviction(self, sink):
        t = Trace(sink)
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
        t = fill(Trace(), 6)
        t2 = pickle.loads(pickle.dumps(t))
        assert [r["i"] for r in t2.records()] == [r["i"] for r in t.records()]
        assert t2.evicted == t.evicted and t2.mode == t.mode
        assert t2.kinds() == t.kinds()


class TestJustifyViolationsOnTruncatedTraces:
    """The trace-taking justification check replays the rows a trace
    kept: a ``counters`` trace kept none (a run's own verdict is judged
    online and never truncated — see test_sink_verdicts)."""

    VIOLATION = ExclusionViolation(u="p", v="q", start=50.0, end=60.0)

    def test_counters_window_is_empty(self):
        t = fill(Trace("counters"), 3)
        assert justify_violations(t, [self.VIOLATION]) is False

    def test_no_violations_is_fine_even_truncated(self):
        t = fill(Trace("counters"), 10)
        assert justify_violations(t, []) is True


class TestEngineReportsSinkMode:
    def test_event_budget_error_counts_records(self):
        from repro.sim import Engine, FixedDelays, SimConfig

        eng = Engine(SimConfig(seed=0, max_time=1e9, max_events=100,
                               trace_sink="counters"),
                     delay_model=FixedDelays(1.0))
        eng.add_process("p")
        eng.add_process("q")
        with pytest.raises(SimulationError,
                           match=r"event cap exceeded \(100\) after"):
            eng.run()

    def test_engine_honors_sink_config(self):
        from repro.sim import Engine, SimConfig

        eng = Engine(SimConfig(seed=0, trace_sink="counters"))
        assert eng.trace.mode == "counters"
