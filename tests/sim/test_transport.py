"""Tests for ReliableTransport: exactly-once delivery over fair-lossy links."""

import sys

import pytest

from repro.errors import ConfigurationError
from repro.sim import (
    Engine,
    FixedDelays,
    LinkFaultModel,
    Partition,
    ReliableTransport,
    RetransmitPolicy,
    SimConfig,
)
from repro.sim.component import Component, action, receive
from repro.sim import link_faults
from repro.sim.faults import CrashSchedule
from repro.sim.network import AsynchronousDelays


class Receiver(Component):
    def __init__(self):
        super().__init__("rx")
        self.got = []

    @receive("data")
    def on_data(self, msg):
        self.got.append(msg.payload["n"])


class Burster(Component):
    def __init__(self, n, to="b"):
        super().__init__("tx")
        self.n = n
        self.to = to
        self.sent = 0

    @action(guard=lambda self: self.sent < self.n)
    def fire(self):
        self.send(self.to, "rx", "data", n=self.sent)
        self.sent += 1


def build(fault_model=None, seed=1, max_time=2000.0, delay=None,
          policy=None, crash=None):
    eng = Engine(SimConfig(seed=seed, max_time=max_time),
                 delay_model=delay or FixedDelays(1.0),
                 crash_schedule=crash or CrashSchedule.none(),
                 fault_model=fault_model)
    transport = ReliableTransport(policy or RetransmitPolicy(
        rto_initial=4.0, rto_max=40.0)).install(eng)
    return eng, transport


class TestPolicyValidation:
    def test_bad_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            RetransmitPolicy(rto_initial=0.0)
        with pytest.raises(ConfigurationError):
            RetransmitPolicy(rto_initial=10.0, rto_max=5.0)
        with pytest.raises(ConfigurationError):
            RetransmitPolicy(backoff=0.5)
        with pytest.raises(ConfigurationError):
            RetransmitPolicy(jitter=1.0)

    def test_double_install_rejected(self):
        eng, transport = build()
        with pytest.raises(ConfigurationError):
            transport.install(eng)
        with pytest.raises(ConfigurationError):
            ReliableTransport().install(eng)


class TestReliableDelivery:
    def test_exactly_once_under_heavy_loss(self):
        eng, transport = build(LinkFaultModel(drop=0.5), max_time=3000.0)
        eng.add_process("a").add_component(Burster(100))
        rx = eng.add_process("b").add_component(Receiver())
        eng.run()
        assert sorted(rx.got) == list(range(100))   # all delivered...
        assert len(rx.got) == 100                   # ...exactly once
        assert transport.retransmissions > 0
        assert transport.in_flight() == 0           # everything acked

    def test_exactly_once_under_duplication(self):
        eng, transport = build(LinkFaultModel(duplicate=0.4))
        eng.add_process("a").add_component(Burster(80))
        rx = eng.add_process("b").add_component(Receiver())
        eng.run()
        assert sorted(rx.got) == list(range(80))
        assert len(rx.got) == 80
        assert transport.duplicates_suppressed > 0

    def test_lost_acks_recovered_by_reack(self):
        # Uniform loss drops acks too: every retransmission of data that
        # already arrived is a wire duplicate the receiver must suppress
        # and re-ack.
        eng, transport = build(LinkFaultModel(drop=0.6), max_time=3000.0)
        eng.add_process("a").add_component(Burster(50))
        rx = eng.add_process("b").add_component(Receiver())
        eng.run()
        assert eng.network.dropped_by_kind["rtp.ack"] > 0
        assert sorted(rx.got) == list(range(50)) and len(rx.got) == 50
        assert transport.duplicates_suppressed > 0
        assert transport.in_flight() == 0

    def test_delivery_through_a_partition_window(self):
        part = Partition.of(["a"], start=20.0, end=120.0)
        eng, transport = build(LinkFaultModel(partitions=[part]),
                               max_time=1000.0)
        eng.add_process("a").add_component(Burster(60))
        rx = eng.add_process("b").add_component(Receiver())
        eng.run(until=119.0)
        assert len(rx.got) < 60            # cut traffic is missing...
        eng.run()
        assert sorted(rx.got) == list(range(60))   # ...and recovered after heal

    def test_reliable_but_still_non_fifo(self):
        eng, transport = build(
            LinkFaultModel(drop=0.2),
            delay=AsynchronousDelays(straggler_prob=0.3, straggler_max=30.0),
            max_time=3000.0)
        eng.add_process("a").add_component(Burster(60))
        rx = eng.add_process("b").add_component(Receiver())
        eng.run()
        assert sorted(rx.got) == list(range(60))
        assert rx.got != sorted(rx.got)    # ordering stays arbitrary

    def test_clean_channel_is_passthrough_with_acks_only(self):
        eng, transport = build(fault_model=None)
        eng.add_process("a").add_component(Burster(30))
        rx = eng.add_process("b").add_component(Receiver())
        eng.run()
        assert sorted(rx.got) == list(range(30))
        assert transport.retransmissions == 0
        assert transport.acks_sent == 30
        # App-level metrics unchanged by the transport:
        assert eng.network.sent == 30 and eng.network.delivered == 30


class TestBackoff:
    def test_rto_grows_and_caps(self, monkeypatch):
        monkeypatch.setattr(link_faults, "MAX_CONSECUTIVE_DROPS", sys.maxsize)
        policy = RetransmitPolicy(rto_initial=2.0, rto_max=16.0, backoff=2.0,
                                  jitter=0.0)
        eng, transport = build(LinkFaultModel(drop=1.0),
                               policy=policy, max_time=200.0)
        eng.add_process("a")
        eng.add_process("b").add_component(Receiver())
        eng.process("a").add_component(Burster(1))
        eng.run()
        entry = next(iter(transport._pending.values()))
        assert entry.rto == 16.0                      # capped
        assert transport.retransmissions >= 6

    def test_retry_traffic_stays_bounded(self, monkeypatch):
        # A saturated dead link must not blow the event budget: backoff
        # caps the retry rate at ~1/rto_max per pending message.
        monkeypatch.setattr(link_faults, "MAX_CONSECUTIVE_DROPS", sys.maxsize)
        policy = RetransmitPolicy(rto_initial=2.0, rto_max=50.0, jitter=0.0)
        eng, transport = build(LinkFaultModel(drop=1.0),
                               policy=policy, max_time=5000.0)
        eng.add_process("a").add_component(Burster(5))
        eng.add_process("b").add_component(Receiver())
        eng.run()
        assert transport.retransmissions < 5 * (5000 / 50 + 10)


class TestCrashes:
    def test_retries_to_crashed_receiver_are_abandoned(self):
        eng, transport = build(LinkFaultModel(drop=0.9),
                               crash=CrashSchedule.single("b", 10.0),
                               max_time=1000.0)
        eng.add_process("a").add_component(Burster(20))
        eng.add_process("b").add_component(Receiver())
        eng.run()
        assert transport.in_flight() == 0
        assert transport.abandoned > 0

    def test_sender_crash_stops_its_retry_chains(self):
        eng, transport = build(LinkFaultModel(drop=0.9),
                               crash=CrashSchedule.single("a", 15.0),
                               max_time=1000.0)
        eng.add_process("a").add_component(Burster(50))
        eng.add_process("b").add_component(Receiver())
        eng.run()
        assert transport.in_flight() == 0


class TestDeterminism:
    def test_same_seed_same_wire_history(self):
        def world(seed):
            eng, transport = build(LinkFaultModel(drop=0.4, duplicate=0.1),
                                   seed=seed, max_time=1500.0)
            eng.add_process("a").add_component(Burster(40))
            rx = eng.add_process("b").add_component(Receiver())
            eng.run()
            s = transport.stats()
            return (tuple(rx.got), s.retransmissions, s.acks_sent,
                    s.duplicates_suppressed, eng.network.dropped)

        assert world(11) == world(11)
        assert world(11) != world(12)
