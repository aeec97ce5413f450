"""Algorithm 2 — the subject threads ``q.s_i`` (verbatim transcription).

The subjects chain their eating sessions with an overlap hand-off: a
subject exits its instance only once the *other* subject is eating too, so
(in the box's exclusive suffix) the dining instances are never both free of
an eating subject — which is what throttles the witnesses (paper Fig. 1).
Shared variables live in :class:`SubjectShared`; the four actions map
one-to-one onto the paper's guarded commands:

=============  ==============================================================
Action ``S_h``  ``(s_i.state = thinking) ∧ (trigger = i)`` → become hungry
                in ``DX_i``
Action ``S_p``  ``(s_i.state = eating) ∧ (s_{1-i}.state ≠ eating) ∧
                (ping_i = true)`` → send *ping* to ``p.w_i``;
                ``ping_i ← false``
Action ``S_a``  upon receive *ack* from ``p.w_i`` → ``trigger ← 1-i``
Action ``S_x``  ``(s_i.state = eating) ∧ (s_{1-i}.state = eating) ∧
                (trigger = 1-i)`` → ``ping_i ← true``; exit eating
=============  ==============================================================

Runtime invariant monitors for the paper's Lemma 2
(``s_i not eating ⟹ ping_i``) and Lemma 4 (``s_i hungry ⟹ trigger = i``)
run after every subject action; a violation raises
:class:`~repro.errors.InvariantViolation` immediately.
"""

from __future__ import annotations

from repro.dining.base import DinerComponent
from repro.errors import ConfigurationError, InvariantViolation
from repro.sim.component import Component, action, receive
from repro.types import DinerState, Message, ProcessId


class SubjectShared:
    """The subject-side shared variables of one monitored pair."""

    def __init__(self) -> None:
        self.trigger = 0
        self.ping = [True, True]


class SubjectThread(Component):
    """Subject ``q.s_i`` participating in dining instance ``DX_i``."""

    def __init__(self, name: str, i: int, shared: SubjectShared,
                 diner: DinerComponent) -> None:
        if i not in (0, 1):
            raise ConfigurationError("subject index must be 0 or 1")
        super().__init__(name)
        self.i = i
        self.shared = shared
        self.diner = diner
        self.other: "SubjectThread | None" = None
        # Diagnostics for the Lemma 5 property tests.
        self.pings_sent = 0
        self.acks_received = 0
        self.eat_sessions_completed = 0
        self._witness_pid: ProcessId | None = None
        self._witness_tag: str | None = None

    def wire(self, other: "SubjectThread", witness_pid: ProcessId,
             witness_tag: str) -> None:
        self.other = other
        self._witness_pid = witness_pid
        self._witness_tag = witness_tag

    # -- Action S_h ------------------------------------------------------------

    @action(guard=lambda self: self.diner.state is DinerState.THINKING
            and self.shared.trigger == self.i)
    def S_h(self) -> None:
        self.diner.become_hungry()
        self._check_invariants("S_h")

    # -- Action S_p ------------------------------------------------------------

    @action(guard=lambda self: self.diner.state is DinerState.EATING
            and self.other is not None
            and self.other.diner.state is not DinerState.EATING
            and self.shared.ping[self.i])
    def S_p(self) -> None:
        assert self._witness_pid is not None and self._witness_tag is not None
        self.send(self._witness_pid, self._witness_tag, "ping")
        self.shared.ping[self.i] = False
        self.pings_sent += 1
        self.record("ping", instance=self.diner.instance_id)
        self._check_invariants("S_p")

    # -- Action S_a ------------------------------------------------------------

    @receive("ack")
    def S_a(self, msg: Message) -> None:
        self.acks_received += 1
        self.shared.trigger = 1 - self.i
        self.record("ack", instance=self.diner.instance_id)
        self._check_invariants("S_a")

    # -- Action S_x ------------------------------------------------------------

    @action(guard=lambda self: self.diner.state is DinerState.EATING
            and self.other is not None
            and self.other.diner.state is DinerState.EATING
            and self.shared.trigger == 1 - self.i)
    def S_x(self) -> None:
        self.shared.ping[self.i] = True
        self.eat_sessions_completed += 1
        self.diner.exit_eating()
        self._check_invariants("S_x")

    # -- runtime lemma monitors ---------------------------------------------------

    def _check_invariants(self, where: str) -> None:
        # Lemma 2: (s_i.state != eating) => ping_i = true.
        if self.diner.state is not DinerState.EATING and not self.shared.ping[self.i]:
            raise InvariantViolation(
                f"Lemma 2 violated after {where} at {self.name}: "
                f"state={self.diner.state}, ping_{self.i}=false"
            )
        # Lemma 4: (s_i.state = hungry) => trigger = i.
        if self.diner.state is DinerState.HUNGRY and self.shared.trigger != self.i:
            raise InvariantViolation(
                f"Lemma 4 violated after {where} at {self.name}: "
                f"hungry but trigger={self.shared.trigger}"
            )
