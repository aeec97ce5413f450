"""The *preliminary* single-instance construction (paper Section 5.1).

Before presenting the real reduction, the paper sketches the obvious
attempt: one dining instance, a witness that trusts the subject iff a ping
arrived since its own last meal, and a subject that pings once per meal.
The paper then rejects it: *"WF-◇WX does not guarantee fairness insofar as
it is possible for p to eat an unbounded number of times between each time
q eats; this allows p to suspect q infinitely often.  To circumvent this,
p and q compete in two WF-◇WX instances."*

This module implements the rejected sketch so experiment E20 can reproduce
its failure on the standard wait-free ◇WX box — and show the paper's
two-instance reduction surviving the same box.  Output rows carry the
trace label ``"prelim"``.
"""

from __future__ import annotations

from repro.core.pair import DiningBoxFactory
from repro.core.witness import ExtractedPairModule
from repro.dining.base import DinerComponent
from repro.errors import ConfigurationError
from repro.graphs import pair_graph
from repro.sim.component import Component, action, receive
from repro.sim.engine import Engine
from repro.types import DinerState, Message, ProcessId

PRELIM_LABEL = "prelim"


class PrelimWitness(Component):
    """Single-instance witness: cycle hungry→eat→(read haveping)→exit."""

    def __init__(self, name: str, diner: DinerComponent,
                 output: ExtractedPairModule) -> None:
        super().__init__(name)
        self.diner = diner
        self.output = output
        self.haveping = False
        self.eat_sessions = 0

    @action(guard=lambda self: self.diner.state is DinerState.THINKING)
    def W_h(self) -> None:
        self.diner.become_hungry()

    @action(guard=lambda self: self.diner.state is DinerState.EATING)
    def W_x(self) -> None:
        self.eat_sessions += 1
        self.output.set_suspected(self.output.target, not self.haveping)
        self.haveping = False
        self.diner.exit_eating()

    @receive("ping")
    def W_p(self, msg: Message) -> None:
        self.haveping = True
        self.send(msg.sender, msg.payload["reply_to"], "ack")


class PrelimSubject(Component):
    """Single-instance subject: eat, ping, await ack, exit, repeat."""

    def __init__(self, name: str, diner: DinerComponent,
                 witness_pid: ProcessId, witness_tag: str) -> None:
        super().__init__(name)
        self.diner = diner
        self.witness_pid = witness_pid
        self.witness_tag = witness_tag
        self._ping_pending = False
        self.eat_sessions_completed = 0

    @action(guard=lambda self: self.diner.state is DinerState.THINKING)
    def S_h(self) -> None:
        self.diner.become_hungry()

    @action(guard=lambda self: self.diner.state is DinerState.EATING
            and not self._ping_pending)
    def S_p(self) -> None:
        self._ping_pending = True
        self.send(self.witness_pid, self.witness_tag, "ping",
                  reply_to=self.name)

    @receive("ack")
    def S_a(self, msg: Message) -> None:
        self._ping_pending = False
        self.eat_sessions_completed += 1
        self.diner.exit_eating()


class PreliminaryPair:
    """The Section 5.1 sketch wired over one black-box dining instance."""

    def __init__(self, witness_pid: ProcessId, subject_pid: ProcessId,
                 box_factory: DiningBoxFactory) -> None:
        if witness_pid == subject_pid:
            raise ConfigurationError("a process does not monitor itself")
        self.witness_pid = witness_pid
        self.subject_pid = subject_pid
        self.box_factory = box_factory
        self.pair_id = f"P[{witness_pid}>{subject_pid}]"
        self.output: ExtractedPairModule | None = None
        self.witness: PrelimWitness | None = None
        self.subject: PrelimSubject | None = None

    def attach(self, engine: Engine) -> ExtractedPairModule:
        if self.output is not None:
            raise ConfigurationError(f"pair {self.pair_id} already attached")
        p, q = self.witness_pid, self.subject_pid
        instance = self.box_factory(f"{self.pair_id}.DX", pair_graph(p, q))
        diners = instance.attach(engine)

        output = ExtractedPairModule(f"{self.pair_id}:out", q, PRELIM_LABEL)
        engine.process(p).add_component(output)
        self.output = output

        self.witness = PrelimWitness(f"{self.pair_id}:w", diners[p], output)
        self.subject = PrelimSubject(f"{self.pair_id}:s", diners[q],
                                     witness_pid=p,
                                     witness_tag=f"{self.pair_id}:w")
        engine.process(p).add_component(self.witness)
        engine.process(q).add_component(self.subject)
        return output

    def instance_id(self) -> str:
        return f"{self.pair_id}.DX"
