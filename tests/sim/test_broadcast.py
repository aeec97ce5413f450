"""``send_all`` is observably a loop of ``send``.

Twin engines run the same seeded system; one fans out with
``Component.send_all``, the other with the per-receiver ``send`` loop it
replaces.  Under every wire configuration the two must agree on heap
contents, receipts, traffic counters and the position of the ``network``
and ``link-faults`` RNG streams.
"""

import itertools

import pytest

import repro.types as types
from repro.errors import CrashedProcessError
from repro.sim import (
    Engine,
    LinkFaultModel,
    PartialSynchronyDelays,
    ReliableTransport,
    SimConfig,
)
from repro.sim.component import Component, action, receive

RECEIVERS = ("b", "c", "d", "e")


class Fan(Component):
    """Broadcasts ``rounds`` times, one fan-out per step."""

    def __init__(self, receivers, broadcast, rounds=6):
        super().__init__("fan")
        self.receivers = receivers
        self.broadcast = broadcast
        self.left = rounds

    @action(guard=lambda self: self.left > 0)
    def fire(self):
        self.left -= 1
        if self.broadcast:
            self.send_all(self.receivers, "sink", "data", n=self.left)
        else:
            for q in self.receivers:
                self.send(q, "sink", "data", n=self.left)


class Sink(Component):
    def __init__(self):
        super().__init__("sink")
        self.log = []

    @receive("data")
    def on_data(self, msg):
        self.log.append((self.process.env_now(), msg.sender, msg.uid,
                         msg.payload["n"]))


def lossy():
    return LinkFaultModel(drop=0.3, duplicate=0.2)


#: name -> (fault model factory, install a transport, record_messages, on_send)
WIRES = {
    "plain": (None, False, False, False),
    "fault-model": (lossy, False, False, False),
    "transport": (lossy, True, False, False),
    "record-messages": (None, False, True, False),
    "on-send-hook": (None, False, False, True),
}


def run_twin(monkeypatch, broadcast, wire="plain", receivers=RECEIVERS):
    """Build, run and summarise one twin; uids restart at 0 for each."""
    monkeypatch.setattr(types, "_msg_counter", itertools.count())
    faults, transport, record_messages, hook = WIRES[wire]
    eng = Engine(
        SimConfig(seed=11, max_time=80.0, record_messages=record_messages),
        delay_model=PartialSynchronyDelays(gst=20.0, delta=1.0,
                                           pre_gst_max=9.0),
        fault_model=faults() if faults else None,
    )
    if transport:
        ReliableTransport().install(eng)
    hooked = []
    if hook:
        eng.network.on_send = lambda m: hooked.append((m.receiver, m.uid))
    eng.add_process("a").add_component(Fan(receivers, broadcast))
    sinks = {q: eng.add_process(q).add_component(Sink()) for q in RECEIVERS}

    eng.run(until=3.0)
    in_flight = sorted(
        (t, seq, msg.receiver, msg.tag, msg.uid)
        for t, seq, handler, msg in eng._heap if handler == eng._on_deliver)
    eng.run()
    return {
        "in_flight": in_flight,
        "receipts": {q: s.log for q, s in sinks.items()},
        "counters": eng.registry.snapshot().counters,
        "rows": [(r.time, r.kind, r.pid, dict(r.data)) for r in eng.trace],
        "hooked": hooked,
        "next_network": eng.rng.stream("network").random(),
        "next_faults": eng.rng.stream("link-faults").random(),
        "next_uid": next(types._msg_counter),
    }


@pytest.mark.parametrize("wire", sorted(WIRES))
def test_send_all_equals_loop_of_send(monkeypatch, wire):
    looped = run_twin(monkeypatch, broadcast=False, wire=wire)
    fanned = run_twin(monkeypatch, broadcast=True, wire=wire)
    assert fanned == looped
    # the twins did real work on this wire
    assert looped["counters"]["net.messages_sent"] >= 6 * len(RECEIVERS)
    assert any(looped["receipts"].values())
    assert looped["in_flight"]
    if wire == "fault-model":
        assert looped["counters"]["net.messages_dropped"] > 0
        assert looped["counters"]["net.messages_duplicated"] > 0
    if wire == "transport":
        assert looped["counters"]["transport.retransmissions"] > 0
    if wire == "on-send-hook":
        assert len(looped["hooked"]) == 6 * len(RECEIVERS)
    if wire == "record-messages":
        assert any(kind == "send" for _, kind, _, _ in looped["rows"])


def test_empty_receiver_list_is_a_no_op(monkeypatch):
    looped = run_twin(monkeypatch, broadcast=False, receivers=())
    fanned = run_twin(monkeypatch, broadcast=True, receivers=())
    assert fanned == looped
    # not even a zero-valued per-kind counter may appear
    assert not any("data" in name for name in fanned["counters"])
    assert fanned["next_uid"] == 0


def test_plain_wire_skips_per_message_send(engine):
    """The hoisted path must not fall back to ``Network.send``."""
    fan = engine.add_process("a").add_component(Fan(RECEIVERS, True))
    for q in RECEIVERS:
        engine.add_process(q)

    def boom(msg):  # pragma: no cover - the assertion is that it never runs
        raise AssertionError("send_many looped over Network.send")

    engine.network.send = boom
    fan.send_all(RECEIVERS, "sink", "data", n=0)
    assert engine.network.sent == len(RECEIVERS)
    assert engine.network.sent_by_kind == {"data": len(RECEIVERS)}


def test_envelopes_of_one_fan_out_share_the_payload(engine):
    fan = engine.add_process("a").add_component(Fan(RECEIVERS, True))
    for q in RECEIVERS:
        engine.add_process(q)
    fan.send_all(RECEIVERS, "sink", "data", n=3)
    msgs = [m for _, _, handler, m in engine._heap
            if handler == engine._on_deliver]
    assert [m.receiver for m in sorted(msgs, key=lambda m: m.uid)] \
        == list(RECEIVERS)
    assert all(m.payload is msgs[0].payload for m in msgs)
    assert msgs[0].payload == {"n": 3}


@pytest.mark.parametrize("receivers", [RECEIVERS, ()])
def test_crashed_sender_cannot_broadcast(engine, receivers):
    proc = engine.add_process("a")
    fan = proc.add_component(Fan(receivers, True))
    proc.crash(0.0)
    with pytest.raises(CrashedProcessError):
        fan.send_all(receivers, "sink", "data", n=0)
    assert engine.network.sent == 0
