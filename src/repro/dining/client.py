"""Environment drivers that exercise diners.

A client is a separate component that owns the *application side* of a
diner: deciding when to become hungry and how long to eat.  Clients are
environment code, so (unlike algorithm components) they may read the
global clock via ``env_now``.

All clients guarantee finite eating sessions — the precondition under
which the dining specification applies ("eating is always finite for
correct processes", Section 4).
"""

from __future__ import annotations

from typing import Optional

from repro.dining.base import DinerComponent
from repro.errors import ConfigurationError
from repro.sim.component import Component, action
from repro.sim.rng import BatchedDoubles
from repro.types import DinerState, Time


class EagerClient(Component):
    """Becomes hungry again immediately after each thinking transition.

    Eating lasts ``eat_steps`` of this client's own actions — a clock-free
    duration, handy when the environment should be as asynchronous as the
    algorithms.
    """

    def __init__(self, name: str, diner: DinerComponent, eat_steps: int = 3,
                 max_sessions: Optional[int] = None) -> None:
        super().__init__(name)
        if eat_steps < 1:
            raise ConfigurationError("eat_steps must be >= 1")
        self.diner = diner
        self.eat_steps = int(eat_steps)
        self.max_sessions = max_sessions
        self._remaining = 0

    def _wants_more(self) -> bool:
        return self.max_sessions is None or self.diner.sessions_eaten < self.max_sessions

    @action(guard=lambda self: self.diner.state is DinerState.THINKING
            and self._wants_more())
    def get_hungry(self) -> None:
        self.diner.become_hungry()

    @action(guard=lambda self: self.diner.state is DinerState.EATING)
    def chew(self) -> None:
        if self._remaining == 0:
            self._remaining = self.eat_steps
        self._remaining -= 1
        if self._remaining == 0:
            self.diner.exit_eating()


class PeriodicClient(Component):
    """Thinks for a random while, eats for a random while, repeats.

    ``think_time`` and ``eat_time`` are ``(lo, hi)`` uniform ranges in
    virtual time; randomness comes from the supplied generator so runs stay
    reproducible.
    """

    def __init__(
        self,
        name: str,
        diner: DinerComponent,
        rng: BatchedDoubles,
        think_time: tuple[Time, Time] = (5.0, 15.0),
        eat_time: tuple[Time, Time] = (2.0, 6.0),
    ) -> None:
        super().__init__(name)
        for lo, hi in (think_time, eat_time):
            if lo < 0 or hi < lo:
                raise ConfigurationError("time ranges must satisfy 0 <= lo <= hi")
        self.diner = diner
        self.rng = rng
        self.think_time = think_time
        self.eat_time = eat_time
        self._next_hungry_at: Optional[Time] = None
        self._eat_until: Optional[Time] = None

    @action(guard=lambda self: self.diner.state is DinerState.THINKING)
    def maybe_hungry(self) -> None:
        now = self.process.env_now()
        if self._next_hungry_at is None:
            self._next_hungry_at = now + float(self.rng.uniform(*self.think_time))
        if now >= self._next_hungry_at:
            self._next_hungry_at = None
            self.diner.become_hungry()

    @action(guard=lambda self: self.diner.state is DinerState.EATING)
    def maybe_exit(self) -> None:
        now = self.process.env_now()
        if self._eat_until is None:
            self._eat_until = now + float(self.rng.uniform(*self.eat_time))
        if now >= self._eat_until:
            self._eat_until = None
            self.diner.exit_eating()
