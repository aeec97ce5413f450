"""Unit tests for shared value types."""

import pickle

import pytest

from repro.types import DINER_CYCLE, DinerState, Message


class TestMessage:
    def test_uids_are_unique(self):
        a = Message("p", "q", "t", "k")
        b = Message("p", "q", "t", "k")
        assert a.uid != b.uid

    def test_matches_tag_only(self):
        m = Message("p", "q", "dining", "fork")
        assert m.matches("dining")
        assert not m.matches("other")

    def test_matches_tag_and_kind(self):
        m = Message("p", "q", "dining", "fork")
        assert m.matches("dining", "fork")
        assert not m.matches("dining", "req")

    def test_payload_defaults_empty(self):
        assert dict(Message("p", "q", "t", "k").payload) == {}

    def test_payload_carried(self):
        m = Message("p", "q", "t", "k", payload={"round": 3})
        assert m.payload["round"] == 3

    def test_frozen(self):
        m = Message("p", "q", "t", "k")
        for attr in ("sender", "receiver", "tag", "kind", "payload", "uid",
                     "brand_new"):
            with pytest.raises(AttributeError):
                setattr(m, attr, "x")

    def test_keyword_construction_and_explicit_uid(self):
        m = Message(sender="p", receiver="q", tag="t", kind="k",
                    payload={"a": 1}, uid=99)
        assert (m.sender, m.receiver, m.tag, m.kind, m.payload, m.uid) \
            == ("p", "q", "t", "k", {"a": 1}, 99)

    def test_equality_is_field_wise_between_messages(self):
        a = Message("p", "q", "t", "k", payload={"r": 1}, uid=7)
        assert a == Message("p", "q", "t", "k", payload={"r": 1}, uid=7)
        assert not a != Message("p", "q", "t", "k", payload={"r": 1}, uid=7)
        assert a != Message("p", "q", "t", "k", payload={"r": 1}, uid=8)
        assert a != Message("p", "q", "t", "k", payload={"r": 2}, uid=7)
        assert a != ("p", "q", "t", "k", {"r": 1}, 7)   # not a bare tuple

    def test_repr_names_route_and_uid(self):
        assert repr(Message("p", "q", "t", "k", uid=5)) \
            == "Message(p->q t/k #5)"

    def test_default_payload_not_shared(self):
        a, b = Message("p", "q", "t", "k"), Message("p", "q", "t", "k")
        a.payload["leak"] = 1
        assert b.payload == {}

    def test_pickle_round_trip(self):
        m = Message("p", "q", "t", "k", payload={"round": 3})
        clone = pickle.loads(pickle.dumps(m))
        assert type(clone) is Message and clone == m
        assert clone.uid == m.uid


class TestDinerState:
    def test_cycle_has_four_phases(self):
        assert len(DINER_CYCLE) == 4

    def test_cycle_order(self):
        assert DINER_CYCLE == (
            DinerState.THINKING, DinerState.HUNGRY,
            DinerState.EATING, DinerState.EXITING,
        )

    def test_str_is_value(self):
        assert str(DinerState.EATING) == "eating"
