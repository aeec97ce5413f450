"""Tests for the event loop: runs, crashes, determinism, callbacks."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim import Engine, FixedDelays, SimConfig
from repro.sim.component import Component, action
from repro.sim.faults import CrashSchedule
from tests.conftest import make_engine


class Stepper(Component):
    def __init__(self):
        super().__init__("s")
        self.count = 0

    @action(guard=lambda self: True)
    def go(self):
        self.count += 1


def test_duplicate_process_rejected(engine):
    engine.add_process("p")
    with pytest.raises(ConfigurationError):
        engine.add_process("p")


def test_unknown_process_lookup_raises(engine):
    with pytest.raises(ConfigurationError):
        engine.process("ghost")


def test_run_advances_clock_to_horizon(engine):
    engine.add_process("p")
    engine.run(until=100.0)
    assert engine.now == 100.0


def test_processes_step_repeatedly():
    eng = make_engine(max_time=100.0)
    s = eng.add_process("p").add_component(Stepper())
    eng.run()
    # step delays are uniform(0.4, 1.2) => roughly 125 steps in 100 time units
    assert 60 < s.count < 300


def test_scheduled_crash_stops_process():
    eng = make_engine(crash=CrashSchedule.single("p", 20.0), max_time=100.0)
    s = eng.add_process("p").add_component(Stepper())
    eng.run()
    count_at_crash = s.count
    assert eng.process("p").crashed
    eng2 = make_engine(crash=CrashSchedule.single("p", 20.0), max_time=100.0)
    s2 = eng2.add_process("p").add_component(Stepper())
    eng2.run(until=20.0)
    assert s2.count == count_at_crash  # no steps after the crash


def test_crash_recorded_in_trace():
    eng = make_engine(crash=CrashSchedule.single("p", 10.0), max_time=50.0)
    eng.add_process("p")
    eng.run()
    assert eng.trace.crash_times() == {"p": 10.0}


def test_inject_crash_dynamic():
    eng = make_engine(max_time=100.0)
    s = eng.add_process("p").add_component(Stepper())
    eng.schedule_call(30.0, lambda: eng.inject_crash("p"))
    eng.run()
    assert eng.process("p").crashed
    assert abs(eng.trace.crash_times()["p"] - 30.0) < 1e-9


def test_schedule_call_runs_at_time():
    eng = make_engine(max_time=100.0)
    eng.add_process("p")
    seen = []
    eng.schedule_call(42.0, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [42.0]


def test_inject_crash_of_unknown_process_fails_at_the_call():
    eng = make_engine(max_time=100.0)
    eng.add_process("p")
    with pytest.raises(ConfigurationError, match="'nope'"):
        eng.inject_crash("nope", at=5.0)
    eng.run()  # nothing was queued
    assert not eng.process("p").crashed


def test_inject_crash_in_the_past_fails_at_the_call():
    eng = make_engine(max_time=100.0)
    eng.add_process("p")
    eng.run(until=10.0)
    with pytest.raises(ConfigurationError, match="5.0 is before now"):
        eng.inject_crash("p", at=5.0)
    eng.inject_crash("p", at=10.0)  # now itself is fine
    eng.run()
    assert eng.trace.crash_times() == {"p": 10.0}


def test_schedule_call_in_the_past_fails_at_the_call():
    eng = make_engine(max_time=100.0)
    eng.add_process("p")
    eng.run(until=10.0)
    with pytest.raises(ConfigurationError, match="9.5 is before now"):
        eng.schedule_call(9.5, lambda: None)
    eng.run()
    assert eng.now == 100.0


def test_stop_when_halts_early():
    eng = make_engine(max_time=1000.0)
    s = eng.add_process("p").add_component(Stepper())
    eng.run(stop_when=lambda: s.count >= 10, check_every_events=1)
    assert 10 <= s.count < 15
    assert eng.now < 1000.0


def test_stop_method_halts_loop():
    eng = make_engine(max_time=1000.0)
    eng.add_process("p")
    eng.schedule_call(5.0, eng.stop)
    eng.run()
    assert eng.now == 5.0


def test_runs_resume_without_time_travel():
    eng = make_engine(max_time=100.0)
    s = eng.add_process("p").add_component(Stepper())
    eng.run(until=50.0)
    mid = s.count
    eng.run(until=100.0)
    assert s.count > mid


def test_determinism_same_seed():
    def world(seed):
        eng = make_engine(seed=seed, max_time=80.0)
        s = eng.add_process("p").add_component(Stepper())
        eng.add_process("q").add_component(Stepper())
        eng.run()
        return s.count, eng.events_processed

    assert world(9) == world(9)
    assert world(9) != world(10)


def test_event_cap_raises():
    eng = Engine(SimConfig(seed=0, max_time=1e9, max_events=100),
                 delay_model=FixedDelays(1.0))
    eng.add_process("p").add_component(Stepper())
    with pytest.raises(SimulationError):
        eng.run()


def test_live_pids_excludes_crashed():
    eng = make_engine(crash=CrashSchedule.single("p", 5.0), max_time=50.0)
    eng.add_process("p")
    eng.add_process("q")
    eng.run()
    assert eng.live_pids() == ["q"]


def test_record_messages_traces_send_and_deliver():
    from repro.sim.component import receive

    class Rx(Component):
        @receive("x")
        def on_x(self, msg):
            pass

    eng = make_engine(max_time=50.0, record_messages=True)

    class Tx(Component):
        def __init__(self):
            super().__init__("tx")
            self.done = False

        @action(guard=lambda self: not self.done)
        def go(self):
            self.done = True
            self.send("b", "rx", "x")

    eng.add_process("a").add_component(Tx())
    eng.add_process("b").add_component(Rx("rx"))
    eng.run()
    kinds = eng.trace.kinds()
    assert kinds.get("send") == 1 and kinds.get("deliver") == 1
