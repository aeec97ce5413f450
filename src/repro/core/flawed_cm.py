"""The flawed construction of [8] (paper Section 3), made concrete.

Guerraoui et al. extract ◇P from a wait-free contention manager with a
*single* dining instance per ordered pair:

* the subject ``q`` sends heartbeats to ``p`` at regular intervals,
  requests its critical section once, and upon entering **never exits**;
* the witness ``p``, upon each heartbeat, *trusts* ``q`` and requests its
  own critical section; upon entering, it immediately exits, *suspects*
  ``q``, and waits for the next heartbeat to start over.

The intended argument: if ``q`` is correct, the box eventually serializes
and ``q`` — parked in its critical section forever — locks ``p`` out, so
``p`` trusts forever.  The paper's observation (which experiment E4
reproduces): a legal WF-◇WX box only owes an exclusive suffix in runs
where correct diners eat *finitely*; ``q`` eats forever here, so a box
like :class:`~repro.dining.deferred.DeferredExclusionDining` may keep
scheduling ``p`` concurrently — and then ``p`` suspects the correct ``q``
infinitely often, violating ◇P's eventual strong accuracy.

The output module is labelled ``"flawed"`` in the trace.
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

FLAWED_LABEL = "flawed"


class CMWitness(Component):
    """The [8] witness: trust on heartbeat, suspect after each own CS entry."""

    def __init__(self, name: str, diner: DinerComponent,
                 output: ExtractedPairModule) -> None:
        super().__init__(name)
        self.diner = diner
        self.output = output
        self._request_pending = False
        self.cs_entries = 0

    @receive("hb")
    def on_heartbeat(self, msg: Message) -> None:
        # Trust q as being correct; request the critical section.
        self.output.set_suspected(self.output.target, False)
        self._request_pending = True

    @action(guard=lambda self: self._request_pending
            and self.diner.state is DinerState.THINKING)
    def request_cs(self) -> None:
        self._request_pending = False
        self.diner.become_hungry()

    @action(guard=lambda self: self.diner.state is DinerState.EATING)
    def enter_and_suspect(self) -> None:
        # Enter, immediately exit, and suspect q: reaching the CS means q
        # was not occupying it exclusively.
        self.cs_entries += 1
        self.diner.exit_eating()
        self.output.set_suspected(self.output.target, True)


class CMSubject(Component):
    """The [8] subject: heartbeat forever; enter the CS once and stay."""

    def __init__(self, name: str, diner: DinerComponent,
                 witness_pid: ProcessId, witness_tag: str,
                 heartbeat_period: int = 4) -> None:
        if heartbeat_period < 1:
            raise ConfigurationError("heartbeat_period must be >= 1")
        super().__init__(name)
        self.diner = diner
        self.witness_pid = witness_pid
        self.witness_tag = witness_tag
        self.heartbeat_period = int(heartbeat_period)
        self._ticks = 0
        self._requested = False
        self.entered_cs = False

    @action(guard=lambda self: True)
    def heartbeat(self) -> None:
        self._ticks += 1
        if self._ticks % self.heartbeat_period == 0:
            self.send(self.witness_pid, self.witness_tag, "hb")

    @action(guard=lambda self: not self._requested)
    def request_once(self) -> None:
        self._requested = True
        self.diner.become_hungry()

    @action(guard=lambda self: self.diner.state is DinerState.EATING
            and not self.entered_cs)
    def park_in_cs(self) -> None:
        # Never exits: the critical section is held forever.
        self.entered_cs = True
        self.record("parked", instance=self.diner.instance_id)


class FlawedCMPair:
    """One ordered pair (p monitors q) under the [8] construction."""

    def __init__(self, witness_pid: ProcessId, subject_pid: ProcessId,
                 box_factory: DiningBoxFactory,
                 heartbeat_period: int = 4) -> None:
        if witness_pid == subject_pid:
            raise ConfigurationError("a process does not monitor itself")
        self.witness_pid = witness_pid
        self.subject_pid = subject_pid
        self.box_factory = box_factory
        self.heartbeat_period = heartbeat_period
        self.pair_id = f"CM[{witness_pid}>{subject_pid}]"
        self.output: ExtractedPairModule | None = None
        self.witness: CMWitness | None = None
        self.subject: CMSubject | None = None

    def attach(self, engine: Engine) -> ExtractedPairModule:
        if self.output is not None:
            raise ConfigurationError(f"pair {self.pair_id} already attached")
        p, q = self.witness_pid, self.subject_pid
        instance = self.box_factory(f"{self.pair_id}.DX", pair_graph(p, q))
        diners = instance.attach(engine)

        output = ExtractedPairModule(f"{self.pair_id}:out", q, FLAWED_LABEL)
        engine.process(p).add_component(output)
        self.output = output

        self.witness = CMWitness(f"{self.pair_id}:w", diners[p], output)
        self.subject = CMSubject(
            f"{self.pair_id}:s", diners[q],
            witness_pid=p, witness_tag=f"{self.pair_id}:w",
            heartbeat_period=self.heartbeat_period,
        )
        engine.process(p).add_component(self.witness)
        engine.process(q).add_component(self.subject)
        return output

    def instance_id(self) -> str:
        return f"{self.pair_id}.DX"
