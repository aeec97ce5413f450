"""Unit tests for guarded-action components."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.component import Component, action, receive
from repro.sim.process import Process
from repro.types import Message


class Counter(Component):
    def __init__(self, name="counter", limit=3):
        super().__init__(name)
        self.count = 0
        self.limit = limit
        self.received = []

    @action(guard=lambda self: self.count < self.limit)
    def bump(self):
        self.count += 1

    @receive("poke")
    def on_poke(self, msg):
        self.received.append(msg.payload.get("n"))


def test_component_requires_name():
    with pytest.raises(ConfigurationError):
        Counter(name="")


def test_bound_actions_collected_in_order():
    names = [a.name for a in Counter().bound_actions()]
    assert names == ["bump", "on_poke"]


def test_action_kinds():
    actions = {a.name: a for a in Counter().bound_actions()}
    assert actions["bump"].kind == "internal"
    assert actions["on_poke"].kind == "receive"
    assert actions["on_poke"].message_kind == "poke"


def test_qualified_name():
    acts = Counter("c1").bound_actions()
    assert acts[0].qualified_name() == "c1.bump"


def test_detached_component_cannot_send():
    c = Counter()
    with pytest.raises(SimulationError):
        c.send("q", "t", "k")


def test_detached_component_has_no_pid():
    with pytest.raises(SimulationError):
        _ = Counter().pid


def test_subclass_inherits_base_actions():
    class Extended(Counter):
        @action(guard=lambda self: True)
        def extra(self):
            pass

    names = {a.name for a in Extended().bound_actions()}
    assert {"bump", "on_poke", "extra"} <= names


def test_action_list_is_cached_per_class_and_bound_per_instance():
    assert [a.name for a in Counter().bound_actions()] == ["bump", "on_poke"]

    class Extended(Counter):
        @action(guard=lambda self: True)
        def extra(self):
            pass

    class Quiet(Counter):
        def bump(self):  # undecorated override keeps the inherited spec
            self.count += 10

    # A subclass built after its parent's list was cached gets its own.
    assert [a.name for a in Extended().bound_actions()] == [
        "extra", "bump", "on_poke"]
    assert [a.name for a in Counter().bound_actions()] == ["bump", "on_poke"]
    quiet = Quiet()
    quiet.bound_actions()[0].effect()
    assert quiet.count == 10
    a, b = Counter("a"), Counter("b")
    assert [x.effect.__self__ for x in a.bound_actions()] == [a, a]
    assert [x.effect.__self__ for x in b.bound_actions()] == [b, b]


def test_other_component_lookup():
    proc = Process("p")
    a = Counter("a")
    b = Counter("b")
    proc.add_component(a)
    proc.add_component(b)
    assert a.other_component("b") is b


def test_other_component_missing_raises():
    proc = Process("p")
    a = proc.add_component(Counter("a"))
    with pytest.raises(ConfigurationError):
        a.other_component("nope")


def test_receive_guard_defers_message(engine):
    class Gated(Component):
        def __init__(self):
            super().__init__("gated")
            self.open = False
            self.got = 0

        @receive("knock", guard=lambda self, msg: self.open)
        def on_knock(self, msg):
            self.got += 1

    proc = engine.add_process("p")
    g = proc.add_component(Gated())
    proc.deliver(Message("q", "p", "gated", "knock"))
    proc.step()
    assert g.got == 0 and proc.inbox_size() == 1  # deferred, not dropped
    g.open = True
    proc.step()
    assert g.got == 1 and proc.inbox_size() == 0
