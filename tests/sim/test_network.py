"""Tests for channels and delay models: reliability, non-FIFO, GST bounds."""

import math
from statistics import NormalDist

import numpy as np
import pytest

from repro.sim.component import Component, action, receive
from repro.sim.network import (
    AsynchronousDelays,
    FixedDelays,
    PartialSynchronyDelays,
)
from repro.sim.rng import RngRegistry
from repro.types import Message
from tests.conftest import make_engine

PROBE = Message("a", "b", "t", "probe")


class TestDelayModels:
    def test_fixed_delay_constant(self):
        rng = np.random.default_rng(0)
        model = FixedDelays(2.5)
        assert all(model.delay(PROBE, t, rng) == 2.5 for t in (0.0, 10.0, 99.0))

    def test_fixed_delay_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FixedDelays(0.0)

    def test_async_delays_positive(self):
        rng = np.random.default_rng(1)
        model = AsynchronousDelays()
        assert all(model.delay(PROBE, 0.0, rng) > 0 for _ in range(200))

    def test_async_delays_have_stragglers(self):
        rng = np.random.default_rng(2)
        model = AsynchronousDelays(median=1.0, straggler_prob=0.2,
                                   straggler_max=50.0)
        draws = [model.delay(PROBE, 0.0, rng) for _ in range(500)]
        assert max(draws) > 10.0  # heavy tail present

    def test_async_delays_survive_a_zero_draw(self):
        # random() can return 0.0; the inverse CDF must not see it.
        class Zeros:
            def random(self):
                return 0.0

            def uniform(self, low=0.0, high=1.0):
                return low

        d = AsynchronousDelays().delay(PROBE, 0.0, Zeros())
        assert 0.0 < d < math.inf

    def test_async_delays_body_is_lognormal(self):
        # Kolmogorov-Smirnov distance of 20,000 draws to the lognormal CDF.
        median, sigma = 1.5, 0.7
        model = AsynchronousDelays(median=median, sigma=sigma,
                                   straggler_prob=0.0)
        rng = RngRegistry(seed=5).stream("network")
        draws = sorted(model.delay(PROBE, 0.0, rng) for _ in range(20_000))
        body = NormalDist(math.log(median), sigma)
        n = len(draws)
        ks = max(max((i + 1) / n - f, f - i / n)
                 for i, f in enumerate(body.cdf(math.log(d)) for d in draws))
        assert ks < 0.015

    def test_partial_synchrony_bounded_after_gst(self):
        rng = np.random.default_rng(3)
        model = PartialSynchronyDelays(gst=100.0, delta=2.0)
        assert all(model.delay(PROBE, 100.0 + t, rng) <= 2.0
                   for t in range(100))

    def test_partial_synchrony_pre_gst_delivery_by_gst_plus_delta(self):
        rng = np.random.default_rng(4)
        model = PartialSynchronyDelays(gst=100.0, delta=2.0, pre_gst_max=500.0)
        for now in (0.0, 50.0, 99.0):
            for _ in range(50):
                deliver_at = now + model.delay(PROBE, now, rng)
                assert deliver_at <= 102.0 + 1e-9

    def test_partial_synchrony_chaotic_before_gst(self):
        rng = np.random.default_rng(5)
        model = PartialSynchronyDelays(gst=1000.0, delta=1.0, pre_gst_max=300.0)
        draws = [model.delay(PROBE, 0.0, rng) for _ in range(300)]
        assert max(draws) > 50.0

    def test_partial_synchrony_validation(self):
        with pytest.raises(ValueError):
            PartialSynchronyDelays(gst=10.0, delta=0.0)


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


class TestNetworkSemantics:
    def test_every_message_delivered_to_correct_process(self):
        eng = make_engine(seed=2, max_time=300.0)
        a = eng.add_process("a")
        b = eng.add_process("b")
        a.add_component(Burster(20))
        rx = b.add_component(Receiver())
        eng.run()
        assert sorted(rx.got) == list(range(20))
        assert eng.network.delivered == 20

    def test_non_fifo_reordering_occurs(self):
        from repro.sim import Engine, SimConfig

        eng = Engine(SimConfig(seed=3, max_time=600.0),
                     delay_model=AsynchronousDelays(straggler_prob=0.3,
                                                    straggler_max=30.0))
        a = eng.add_process("a")
        b = eng.add_process("b")
        a.add_component(Burster(40))
        rx = b.add_component(Receiver())
        eng.run()
        assert sorted(rx.got) == list(range(40))  # reliable
        assert rx.got != sorted(rx.got)           # but reordered

    def test_messages_to_crashed_process_are_dropped(self):
        from repro.sim.faults import CrashSchedule

        eng = make_engine(seed=4, max_time=200.0,
                          crash=CrashSchedule.single("b", 5.0))
        a = eng.add_process("a")
        b = eng.add_process("b")
        a.add_component(Burster(50))
        rx = b.add_component(Receiver())
        eng.run()
        assert len(rx.got) < 50
        assert eng.network.delivered < eng.network.sent

    def test_sent_by_kind_counts(self):
        eng = make_engine(seed=5, max_time=100.0)
        a = eng.add_process("a")
        eng.add_process("b").add_component(Receiver())
        a.add_component(Burster(7))
        eng.run()
        assert eng.network.sent_by_kind["data"] == 7

    def test_record_messages_logs_every_send(self):
        eng = make_engine(seed=6, max_time=100.0, record_messages=True)
        a = eng.add_process("a")
        eng.add_process("b").add_component(Receiver())
        a.add_component(Burster(3))
        eng.run()
        sends = eng.trace.records(kind="send")
        assert [(r.pid, r["to"]) for r in sends] == [("a", "b")] * 3
