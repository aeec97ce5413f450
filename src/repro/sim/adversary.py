"""Adversarial network and scheduling behaviours.

The paper's model lets an adversary pick message delays and relative
process speeds arbitrarily (subject only to reliability and eventual
bounds).  This module makes targeted adversaries expressible:

* :class:`TargetedDelays` — wraps any base :class:`~repro.sim.network.DelayModel`
  and applies extra delay rules to selected messages (by kind, tag prefix,
  endpoint, or arbitrary predicate).  Delays stay finite, so channels stay
  reliable — the adversary can slow the reduction's ping/ack traffic or a
  victim process's channels arbitrarily but not break them.

Experiment E14 uses these to stress the reduction: its properties must
survive any such adversary, converging later but still converging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.network import DelayModel
from repro.sim.rng import BatchedDoubles
from repro.types import Message, ProcessId, Time

MessagePredicate = Callable[[Message], bool]


def by_kind(*kinds: str) -> MessagePredicate:
    """Match messages of any of the given kinds (e.g. ``"ping"``, ``"ack"``)."""
    kindset = frozenset(kinds)
    return lambda msg: msg.kind in kindset


def by_endpoint(pid: ProcessId) -> MessagePredicate:
    """Match all traffic to or from one process (a victim adversary)."""
    return lambda msg: pid in (msg.sender, msg.receiver)


def by_tag_prefix(prefix: str) -> MessagePredicate:
    """Match messages routed to components whose tag starts with ``prefix``."""
    return lambda msg: msg.tag.startswith(prefix)


@dataclass(frozen=True)
class DelayRule:
    """Extra treatment for matching messages.

    ``factor`` multiplies the base delay; ``extra_max`` adds a uniform
    random delay in ``[0, extra_max]``; ``until`` limits the rule to sends
    before that time (None = forever — legal as long as delays stay
    finite, which they do).
    """

    predicate: MessagePredicate
    factor: float = 1.0
    extra_max: Time = 0.0
    until: Optional[Time] = None

    def applies(self, msg: Message, now: Time) -> bool:
        if self.until is not None and now >= self.until:
            return False
        return self.predicate(msg)


class TargetedDelays(DelayModel):
    """A base delay model plus targeted adversarial rules."""

    def __init__(self, base: DelayModel, rules: Sequence[DelayRule]) -> None:
        self.base = base
        self.rules = list(rules)
        for rule in self.rules:
            if rule.factor < 1.0 or rule.extra_max < 0:
                raise ConfigurationError(
                    "adversary may only slow messages down (factor >= 1, "
                    "extra_max >= 0); dropping them would break reliability"
                )

    def delay(self, msg: Message, now: Time, rng: BatchedDoubles) -> Time:
        d = self.base.delay(msg, now, rng)
        for rule in self.rules:
            if rule.applies(msg, now):
                d *= rule.factor
                if rule.extra_max > 0:
                    d += float(rng.uniform(0.0, rule.extra_max))
        return d


class OutageDelays(DelayModel):
    """Asynchrony via ever-longer channel outages.

    The network alternates quiet periods (base delays) with total outages:
    every message sent during outage ``k`` is held until the outage ends.
    Outage durations grow geometrically (``growth`` per outage), so they
    outpace *any* adaptive timeout that backs off by a constant factor per
    mistake — the precise sense in which ◇P is not implementable here.
    Delays remain finite, so channels stay reliable.
    """

    def __init__(self, base: Optional[DelayModel] = None,
                 first_outage: Time = 120.0, initial_duration: Time = 25.0,
                 recovery: Time = 150.0, growth: float = 2.4) -> None:
        if growth <= 1.0 or initial_duration <= 0 or recovery <= 0:
            raise ConfigurationError("need growth > 1 and positive durations")
        from repro.sim.network import FixedDelays

        self.base = base if base is not None else FixedDelays(1.0)
        self.first_outage = float(first_outage)
        self.initial_duration = float(initial_duration)
        self.recovery = float(recovery)
        self.growth = float(growth)
        self._outages: list[tuple[Time, Time]] = []   # (start, end)

    def _outage_at(self, now: Time) -> Optional[tuple[Time, Time]]:
        """The outage containing ``now``, extending the schedule lazily."""
        start = (self._outages[-1][1] + self.recovery if self._outages
                 else self.first_outage)
        duration = self.initial_duration * self.growth ** len(self._outages)
        while start <= now:
            self._outages.append((start, start + duration))
            start = start + duration + self.recovery
            duration *= self.growth
        for s, e in reversed(self._outages):
            if s <= now < e:
                return (s, e)
            if e <= now:
                break
        return None

    def delay(self, msg: Message, now: Time, rng: BatchedDoubles) -> Time:
        d = self.base.delay(msg, now, rng)
        outage = self._outage_at(now)
        if outage is not None:
            return (outage[1] - now) + d
        return d

    def outages_before(self, t: Time) -> list[tuple[Time, Time]]:
        """The outage windows scheduled before ``t`` (checker aid)."""
        self._outage_at(t)
        return [(s, e) for s, e in self._outages if s < t]
