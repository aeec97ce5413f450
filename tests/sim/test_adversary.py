"""Tests for adversarial delay models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.adversary import (
    DelayRule,
    TargetedDelays,
    by_endpoint,
    by_kind,
    by_tag_prefix,
)
from repro.sim.network import FixedDelays
from repro.types import Message

RNG = np.random.default_rng(0)


def msg(kind="data", sender="a", receiver="b", tag="t"):
    return Message(sender=sender, receiver=receiver, tag=tag, kind=kind)


class TestPredicates:
    def test_by_kind(self):
        pred = by_kind("ping", "ack")
        assert pred(msg("ping")) and pred(msg("ack"))
        assert not pred(msg("fork"))

    def test_by_endpoint_matches_both_directions(self):
        pred = by_endpoint("v")
        assert pred(msg(sender="v"))
        assert pred(msg(receiver="v"))
        assert not pred(msg())

    def test_by_tag_prefix(self):
        pred = by_tag_prefix("R[p>q]")
        assert pred(msg(tag="R[p>q]:w0"))
        assert not pred(msg(tag="other"))


class TestTargetedDelays:
    def test_untargeted_messages_unchanged(self):
        model = TargetedDelays(FixedDelays(2.0),
                               [DelayRule(by_kind("ping"), factor=10.0)])
        assert model.delay(msg("fork"), 0.0, RNG) == 2.0

    def test_factor_multiplies(self):
        model = TargetedDelays(FixedDelays(2.0),
                               [DelayRule(by_kind("ping"), factor=10.0)])
        assert model.delay(msg("ping"), 0.0, RNG) == 20.0

    def test_extra_delay_added(self):
        model = TargetedDelays(FixedDelays(1.0),
                               [DelayRule(by_kind("ping"), extra_max=5.0)])
        d = model.delay(msg("ping"), 0.0, RNG)
        assert 1.0 <= d <= 6.0

    def test_rule_expiry(self):
        model = TargetedDelays(FixedDelays(1.0),
                               [DelayRule(by_kind("ping"), factor=10.0,
                                          until=100.0)])
        assert model.delay(msg("ping"), 50.0, RNG) == 10.0
        assert model.delay(msg("ping"), 100.0, RNG) == 1.0

    def test_rules_compose(self):
        model = TargetedDelays(FixedDelays(1.0), [
            DelayRule(by_kind("ping"), factor=2.0),
            DelayRule(by_endpoint("b"), factor=3.0),
        ])
        assert model.delay(msg("ping", receiver="b"), 0.0, RNG) == 6.0

    def test_speedup_rules_rejected(self):
        with pytest.raises(ConfigurationError):
            TargetedDelays(FixedDelays(1.0),
                           [DelayRule(by_kind("x"), factor=0.5)])


class TestDelayRuleUntilBoundary:
    """``until`` is an exclusive deadline: a rule covers sends in
    [0, until) and is dead at exactly ``now == until``."""

    RULE = DelayRule(by_kind("ping"), factor=2.0, until=100.0)

    def test_applies_strictly_before(self):
        assert self.RULE.applies(msg("ping"), 99.999)

    def test_dead_at_exact_deadline(self):
        assert not self.RULE.applies(msg("ping"), 100.0)

    def test_dead_after_deadline(self):
        assert not self.RULE.applies(msg("ping"), 100.001)

    def test_none_means_forever(self):
        rule = DelayRule(by_kind("ping"), factor=2.0, until=None)
        assert rule.applies(msg("ping"), 1e12)

    def test_predicate_still_gates_before_deadline(self):
        assert not self.RULE.applies(msg("fork"), 50.0)


class TestOutageDelays:
    def test_validation(self):
        from repro.sim.adversary import OutageDelays

        with pytest.raises(ConfigurationError):
            OutageDelays(growth=1.0)
        with pytest.raises(ConfigurationError):
            OutageDelays(initial_duration=0.0)

    def test_quiet_period_uses_base_delay(self):
        from repro.sim.adversary import OutageDelays
        from repro.sim.network import FixedDelays

        model = OutageDelays(base=FixedDelays(1.0), first_outage=100.0)
        assert model.delay(msg(), 10.0, RNG) == 1.0

    def test_outage_holds_messages_until_it_ends(self):
        from repro.sim.adversary import OutageDelays
        from repro.sim.network import FixedDelays

        model = OutageDelays(base=FixedDelays(1.0), first_outage=100.0,
                             initial_duration=25.0)
        d = model.delay(msg(), 110.0, RNG)
        assert 110.0 + d == pytest.approx(125.0 + 1.0)   # end + base

    def test_outages_grow_geometrically(self):
        from repro.sim.adversary import OutageDelays

        model = OutageDelays(first_outage=100.0, initial_duration=10.0,
                             recovery=50.0, growth=2.0)
        outages = model.outages_before(2000.0)
        durations = [e - s for s, e in outages]
        assert len(durations) >= 3
        for a, b in zip(durations, durations[1:]):
            assert b == pytest.approx(2.0 * a)

    def test_delays_always_finite_positive(self):
        from repro.sim.adversary import OutageDelays

        model = OutageDelays()
        for t in (0.0, 130.0, 500.0, 5000.0):
            d = model.delay(msg(), t, RNG)
            assert 0 < d < 1e9

    def test_outages_before_extends_lazily(self):
        """The schedule materializes only as far as queried, and earlier
        windows never move when the horizon grows."""
        from repro.sim.adversary import OutageDelays

        model = OutageDelays(first_outage=100.0, initial_duration=10.0,
                             recovery=50.0, growth=2.0)
        early = model.outages_before(200.0)
        late = model.outages_before(3000.0)
        assert len(late) > len(early)
        assert late[:len(early)] == early

    def test_outages_before_is_strict(self):
        """``t`` itself is excluded: a window starting at exactly ``t``
        does not count as "before" it."""
        from repro.sim.adversary import OutageDelays

        model = OutageDelays(first_outage=100.0, initial_duration=10.0,
                             recovery=50.0, growth=2.0)
        assert model.outages_before(100.0) == []
        assert model.outages_before(100.1) == [(100.0, 110.0)]

    def test_outages_before_idempotent(self):
        from repro.sim.adversary import OutageDelays

        model = OutageDelays(first_outage=100.0, initial_duration=10.0,
                             recovery=50.0, growth=2.0)
        assert model.outages_before(1000.0) == model.outages_before(1000.0)
