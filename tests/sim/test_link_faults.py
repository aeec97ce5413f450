"""Tests for the link-fault layer: drops, duplication, partitions, fairness."""

import sys

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim import Engine, FixedDelays, LinkFaultModel, Partition, SimConfig
from repro.sim import link_faults
from repro.sim.component import Component, action, receive
from repro.types import Message

RNG = np.random.default_rng(0)


def msg(kind="data", sender="a", receiver="b", tag="t"):
    return Message(sender=sender, receiver=receiver, tag=tag, kind=kind)


def set_floor(monkeypatch, cap):
    """Run the test under a fair-lossy floor of ``cap`` random drops."""
    monkeypatch.setattr(link_faults, "MAX_CONSECUTIVE_DROPS", cap)


class TestValidation:
    def test_probabilities_must_be_probabilities(self):
        with pytest.raises(ConfigurationError):
            LinkFaultModel(drop=1.5)
        with pytest.raises(ConfigurationError):
            LinkFaultModel(duplicate=-0.1)

    def test_partition_window_must_be_nonempty(self):
        with pytest.raises(ConfigurationError):
            Partition.of(["a"], start=10.0, end=10.0)
        with pytest.raises(ConfigurationError):
            Partition.of([], start=0.0, end=1.0)


def copies_under_partition(message, now):
    """Copies the wire delivers of ``message`` sent at ``now`` while the
    side ``{a}`` is partitioned over ``[10, 20)``; a cut drop says so."""
    model = LinkFaultModel(partitions=[Partition.of(["a"], 10.0, 20.0)])
    fate = model.fate(message, now, RNG)
    assert fate.reason == ("partition" if fate.copies == 0 else None)
    return fate.copies


class TestPartition:
    def test_severs_only_crossing_traffic_in_window(self):
        assert copies_under_partition(msg(sender="a", receiver="b"), 15.0) == 0
        assert copies_under_partition(msg(sender="b", receiver="a"), 15.0) == 0
        assert copies_under_partition(msg(sender="b", receiver="c"), 15.0) == 1

    def test_window_boundaries_half_open(self):
        crossing = msg(sender="a", receiver="b")
        assert copies_under_partition(crossing, 9.999) == 1
        assert copies_under_partition(crossing, 10.0) == 0
        assert copies_under_partition(crossing, 20.0) == 1


class TestFate:
    def test_no_faults_means_one_copy(self):
        fate = LinkFaultModel().fate(msg(), 0.0, RNG)
        assert fate.copies == 1 and fate.reason is None

    def test_drop_rate_respected(self, monkeypatch):
        set_floor(monkeypatch, sys.maxsize)
        model = LinkFaultModel(drop=0.5)
        fates = [model.fate(msg(), 0.0, RNG) for _ in range(2000)]
        dropped = sum(f.copies == 0 for f in fates)
        assert 850 < dropped < 1150
        assert all(f.reason == "loss" for f in fates if f.copies == 0)

    def test_duplication_rate_respected(self):
        model = LinkFaultModel(duplicate=0.3)
        fates = [model.fate(msg(), 0.0, RNG) for _ in range(2000)]
        dups = sum(f.copies > 1 for f in fates)
        assert 480 < dups < 720
        assert all(f.copies == 2 for f in fates if f.copies > 1)

    def test_partition_drop_is_deterministic_and_labelled(self):
        model = LinkFaultModel(
            partitions=[Partition.of(["a"], start=0.0, end=100.0)])
        for _ in range(50):
            fate = model.fate(msg(sender="a", receiver="b"), 50.0, RNG)
            assert fate.copies == 0 and fate.reason == "partition"
        after = model.fate(msg(sender="a", receiver="b"), 200.0, RNG)
        assert after.copies == 1


class TestFairness:
    def test_default_floor_forces_the_26th_message_through(self):
        model = LinkFaultModel(drop=1.0)
        fates = [model.fate(msg(), 0.0, RNG) for _ in range(26)]
        assert all(f.copies == 0 for f in fates[:25])
        assert fates[25].copies == 1

    def test_consecutive_random_drops_are_capped(self, monkeypatch):
        set_floor(monkeypatch, 5)
        model = LinkFaultModel(drop=1.0)
        fates = [model.fate(msg(), 0.0, RNG) for _ in range(60)]
        streak = longest = 0
        for f in fates:
            streak = streak + 1 if f.copies == 0 else 0
            longest = max(longest, streak)
        assert longest == 5
        assert sum(f.copies == 1 for f in fates) == 10

    def test_streaks_tracked_per_link(self, monkeypatch):
        set_floor(monkeypatch, 3)
        model = LinkFaultModel(drop=1.0)
        for _ in range(3):
            fate = model.fate(msg(sender="a", receiver="b"), 0.0, RNG)
            assert fate.copies == 0
        # A different link's streak is independent: still dropping.
        assert model.fate(msg(sender="a", receiver="c"), 0.0, RNG).copies == 0
        # The saturated a->b link is forced through.
        assert model.fate(msg(sender="a", receiver="b"), 0.0, RNG).copies == 1

    def test_partition_drops_do_not_consume_fairness_credit(self, monkeypatch):
        set_floor(monkeypatch, 2)
        model = LinkFaultModel(
            drop=1.0,
            partitions=[Partition.of(["a"], start=100.0, end=200.0)])
        crossing = msg(sender="a", receiver="b")
        assert model.fate(crossing, 0.0, RNG).copies == 0   # loss (streak 1)
        assert model.fate(crossing, 0.0, RNG).copies == 0   # loss (streak 2)
        # Inside the window the partition must hold even though the random
        # streak is saturated.
        assert model.fate(crossing, 150.0, RNG).reason == "partition"
        # After the window the saturated streak forces delivery.
        assert model.fate(crossing, 250.0, RNG).copies == 1


class Receiver(Component):
    def __init__(self):
        super().__init__("rx")
        self.got = []

    @receive("data")
    def on_data(self, msg):
        self.got.append(msg.payload["n"])


class Burster(Component):
    def __init__(self, n):
        super().__init__("tx")
        self.n = n
        self.sent = 0

    @action(guard=lambda self: self.sent < self.n)
    def fire(self):
        self.send("b", "rx", "data", n=self.sent)
        self.sent += 1


def lossy_engine(fault_model, seed=1, max_time=400.0):
    eng = Engine(SimConfig(seed=seed, max_time=max_time),
                 delay_model=FixedDelays(1.0), fault_model=fault_model)
    return eng


class TestNetworkIntegration:
    def test_raw_channel_loses_messages_and_counts_them(self):
        eng = lossy_engine(LinkFaultModel(drop=0.4))
        eng.add_process("a").add_component(Burster(200))
        rx = eng.add_process("b").add_component(Receiver())
        eng.run()
        assert eng.network.dropped > 0
        assert eng.network.dropped_by_kind["data"] == eng.network.dropped
        assert len(rx.got) == 200 - eng.network.dropped
        assert eng.network.delivered == len(rx.got)

    def test_duplicates_reach_the_application_without_a_transport(self):
        eng = lossy_engine(LinkFaultModel(duplicate=0.5))
        eng.add_process("a").add_component(Burster(100))
        rx = eng.add_process("b").add_component(Receiver())
        eng.run()
        assert eng.network.duplicated > 0
        assert len(rx.got) == 100 + eng.network.duplicated
        assert len(set(rx.got)) == 100

    def test_partition_blackout_then_recovery(self):
        part = Partition.of(["a"], start=0.0, end=50.0)
        eng = lossy_engine(LinkFaultModel(partitions=[part]), max_time=60.0)
        eng.add_process("a").add_component(Burster(1000))
        rx = eng.add_process("b").add_component(Receiver())
        eng.run(until=50.0)
        assert rx.got == []            # nothing crosses the cut
        eng.run(until=60.0)
        assert len(rx.got) > 0         # healed

    def test_drop_events_traced_when_recording(self):
        eng = Engine(SimConfig(seed=3, max_time=100.0, record_messages=True),
                     delay_model=FixedDelays(1.0),
                     fault_model=LinkFaultModel(drop=0.5))
        eng.add_process("a").add_component(Burster(50))
        eng.add_process("b").add_component(Receiver())
        eng.run()
        drops = list(eng.trace.records(kind="drop"))
        assert len(drops) == eng.network.dropped > 0
        assert all(r["reason"] == "loss" for r in drops)

    def test_faulty_runs_replay_bit_for_bit(self):
        def world(seed):
            eng = lossy_engine(
                LinkFaultModel(drop=0.3, duplicate=0.1), seed=seed)
            eng.add_process("a").add_component(Burster(100))
            rx = eng.add_process("b").add_component(Receiver())
            eng.run()
            return (tuple(rx.got), eng.network.dropped,
                    eng.network.duplicated)

        assert world(7) == world(7)
        assert world(7) != world(8)
