"""Tests for run metrics collection."""

from repro.sim.component import Component, action, receive
from repro.sim.metrics import RunMetrics, collect_metrics
from tests.conftest import make_engine


class Chatter(Component):
    def __init__(self, peer):
        super().__init__("chat")
        self.peer = peer
        self.n = 0

    @action(guard=lambda self: self.n < 5)
    def talk(self):
        self.n += 1
        self.send(self.peer, "chat", "gossip")

    @receive("gossip")
    def on_gossip(self, msg):
        pass


def test_collect_metrics_counts():
    eng = make_engine(seed=3, max_time=100.0)
    eng.add_process("a").add_component(Chatter("b"))
    eng.add_process("b").add_component(Chatter("a"))
    eng.run()
    m = collect_metrics(eng)
    assert m.messages_sent == 10
    assert m.messages_delivered == 10
    assert m.messages_by_kind == {"gossip": 10}
    assert m.virtual_time == 100.0
    assert m.total_steps == sum(m.steps_by_process.values()) > 0
    assert m.events_processed == eng.events_processed


def test_messages_per_time():
    m = RunMetrics.from_values(virtual_time=10.0, messages_sent=20,
                               messages_delivered=20)
    assert m.messages_per_time() == 2.0


def test_messages_per_time_zero_guard():
    m = RunMetrics.from_values(virtual_time=0.0, messages_sent=5,
                               messages_delivered=5)
    assert m.messages_per_time() == 0.0


def test_metrics_is_a_view_over_the_registry_snapshot():
    """The fold: RunMetrics reads the same counters every exporter sees."""
    eng = make_engine(seed=3, max_time=100.0)
    eng.add_process("a").add_component(Chatter("b"))
    eng.add_process("b").add_component(Chatter("a"))
    eng.run()
    m = collect_metrics(eng)
    snap = m.snapshot
    assert m.messages_sent == snap.counter_value("net.messages_sent")
    assert m.virtual_time == snap.gauge_value("sim.virtual_time")
    assert m.events_processed == snap.gauge_value("sim.events_processed")
    assert m.steps_by_process["a"] == \
        snap.gauge_value('sim.steps{process="a"}')
    assert m.messages_by_kind["gossip"] == \
        snap.counter_value('net.messages_sent{kind="gossip"}')


def test_format_table_mentions_kinds():
    eng = make_engine(seed=3, max_time=50.0)
    eng.add_process("a").add_component(Chatter("b"))
    eng.add_process("b").add_component(Chatter("a"))
    eng.run()
    text = collect_metrics(eng).format_table()
    assert "gossip" in text and "messages sent" in text
