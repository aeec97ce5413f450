"""Algorithm 1 — the witness threads ``p.w_i`` (verbatim transcription).

Process ``p`` monitors process ``q`` through two witness threads
``p.w0``/``p.w1``, one per dining instance.  Shared variables (the paper's
``var`` block) live in :class:`WitnessShared`; each thread's three actions
map one-to-one onto the paper's guarded commands:

=============  ==============================================================
Action ``W_h``  ``(w_i.state = thinking) ∧ (w_{1-i}.state = thinking) ∧
                (switch = i)``  →  become hungry in ``DX_i``
Action ``W_x``  ``(w_i.state = eating)``  →  ``suspect_q ← ¬haveping_i``;
                ``haveping_i ← false``; ``switch ← 1-i``; exit eating
Action ``W_p``  upon receive *ping* from ``q.s_i``  →  ``haveping_i ← true``;
                send *ack* to ``q.s_i``
=============  ==============================================================

The extracted suspicion bit is published through an
:class:`~repro.oracles.base.OracleModule` so the standard completeness /
accuracy trace checkers apply unchanged.
"""

from __future__ import annotations

from repro.dining.base import DinerComponent
from repro.errors import ConfigurationError
from repro.oracles.base import OracleModule
from repro.sim.component import Component, action, receive
from repro.types import DinerState, Message, ProcessId


class ExtractedPairModule(OracleModule):
    """The per-pair output module at ``p``: the suspicion bit about ``q``.

    Initially ``suspect_q = true`` (paper Alg. 1 ``var`` block).  It has no
    actions of its own; the witness threads drive it.  ``label`` is the
    construction's trace label, shared by all of its pair modules.
    """

    def __init__(self, name: str, target: ProcessId, label: str) -> None:
        super().__init__(name, [target], initially_suspect=True)
        self.target = target
        self.detector_label = label


class WitnessShared:
    """The witness-side shared variables of one monitored pair.

    ``switch`` selects which witness becomes hungry next; ``haveping[i]``
    records whether a ping arrived in instance ``i`` since witness ``i``
    last ate.
    """

    def __init__(self, output: ExtractedPairModule) -> None:
        self.switch = 0
        self.haveping = [False, False]
        self.output = output

    def publish_suspicion(self, suspected: bool) -> None:
        self.output.set_suspected(self.output.target, suspected)


class WitnessThread(Component):
    """Witness ``p.w_i`` participating in dining instance ``DX_i``."""

    def __init__(
        self,
        name: str,
        i: int,
        shared: WitnessShared,
        diner: DinerComponent,
        peer_diner_of: "WitnessThread | None" = None,
    ) -> None:
        if i not in (0, 1):
            raise ConfigurationError("witness index must be 0 or 1")
        super().__init__(name)
        self.i = i
        self.shared = shared
        self.diner = diner
        self.other: "WitnessThread | None" = peer_diner_of
        # Diagnostics for Lemma 5/12 property tests.
        self.eat_sessions = 0
        self.pings_received = 0
        self.acks_sent = 0
        self._subject_pid: ProcessId | None = None
        self._subject_tag: str | None = None

    def wire(self, other: "WitnessThread", subject_pid: ProcessId,
             subject_tag: str) -> None:
        """Late wiring of the sibling thread and the peer subject address."""
        self.other = other
        self._subject_pid = subject_pid
        self._subject_tag = subject_tag

    # -- Action W_h ------------------------------------------------------------

    @action(guard=lambda self: self.diner.state is DinerState.THINKING
            and self.other is not None
            and self.other.diner.state is DinerState.THINKING
            and self.shared.switch == self.i)
    def W_h(self) -> None:
        self.diner.become_hungry()

    # -- Action W_x ------------------------------------------------------------

    @action(guard=lambda self: self.diner.state is DinerState.EATING)
    def W_x(self) -> None:
        self.eat_sessions += 1
        # Trust q iff a ping has been received since this witness last ate.
        self.shared.publish_suspicion(not self.shared.haveping[self.i])
        self.shared.haveping[self.i] = False
        self.shared.switch = 1 - self.i
        self.diner.exit_eating()

    # -- Action W_p ------------------------------------------------------------

    @receive("ping")
    def W_p(self, msg: Message) -> None:
        self.pings_received += 1
        self.shared.haveping[self.i] = True
        assert self._subject_pid is not None and self._subject_tag is not None
        self.send(self._subject_pid, self._subject_tag, "ack")
        self.acks_sent += 1
