"""Chandra–Toueg rotating-coordinator consensus (◇S-class oracle).

The classic 1996 protocol, implemented for the simulator's asynchronous
message-passing model.  It tolerates ``f < n/2`` crashes given a failure
detector with strong completeness and eventual (weak) accuracy — ◇P, and
therefore also the oracle the paper's reduction extracts from dining,
more than suffices.

Round ``r`` (coordinator ``c = pids[(r-1) mod n]``):

1. every undecided process sends its ``(estimate, ts)`` to ``c``;
2. ``c``, holding a majority of round-``r`` estimates, proposes the
   estimate with the highest ``ts``;
3. each participant waits for ``c``'s proposal — adopting it and acking —
   or, if its detector suspects ``c`` first, nacks; either way it then
   enters round ``r+1``;
4. ``c``, holding a majority of replies, *reliably broadcasts* the decision
   if all were acks.

The decision travels by :class:`~repro.consensus.broadcast.ReliableBroadcast`
so a coordinator crash mid-announcement cannot split the outcome.
Decisions are recorded as ``"decide"`` trace rows;
:func:`check_consensus` verifies agreement / validity / termination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.component import Component, action, receive
from repro.sim.engine import Engine
from repro.sim.faults import CrashSchedule
from repro.sim.trace import Trace
from repro.types import Message, ProcessId


class ChandraTouegConsensus(Component):
    """One process's consensus endpoint.

    ``detector`` is any object with ``suspected(pid) -> bool`` — a native
    oracle module or an :class:`~repro.core.extraction.ExtractedDetector`.
    Wire all endpoints with :func:`setup_consensus`.
    """

    def __init__(self, name: str, pids: Sequence[ProcessId], detector: Any,
                 initial_value: Any) -> None:
        super().__init__(name)
        self.pids = sorted(pids)
        if len(self.pids) < 2:
            raise ConfigurationError("consensus needs at least 2 processes")
        self.n = len(self.pids)
        self.majority = self.n // 2 + 1
        self.detector = detector
        self.initial_value = initial_value

        self.estimate: Any = initial_value
        self.ts = 0
        self.round = 1
        self.estimate_sent = False
        self.decided: Optional[Any] = None
        self.decided_round: Optional[int] = None

        # Per-round coordinator bookkeeping (a process may be coordinator of
        # many rounds; each round's duty is independent of its own progress).
        self._estimates: dict[int, list[tuple[Any, int]]] = {}
        self._proposed: set[int] = set()
        self._acks: dict[int, int] = {}
        self._nacks: dict[int, int] = {}
        self._closed: set[int] = set()
        # Proposals received, by round (adopted when we reach that round).
        self._proposals: dict[int, Any] = {}

        self.rb_name = f"{name}.rb"  # sibling ReliableBroadcast component

    # -- helpers ---------------------------------------------------------------

    def coordinator(self, r: int) -> ProcessId:
        return self.pids[(r - 1) % self.n]

    def _rb(self):
        return self.other_component(self.rb_name)

    def on_rb_deliver(self, origin: ProcessId, body: Any) -> None:
        if self.decided is None and isinstance(body, Mapping) and "decision" in body:
            self.decided = body["decision"]
            self.decided_round = body["round"]
            self.record("decide", value=self.decided, round=self.decided_round)

    # -- phase 1: send estimate to the round's coordinator ------------------------

    @action(guard=lambda self: self.decided is None and not self.estimate_sent)
    def send_estimate(self) -> None:
        self.estimate_sent = True
        self.send(self.coordinator(self.round), self.name, "estimate",
                  round=self.round, est=self.estimate, ts=self.ts)

    @receive("estimate")
    def on_estimate(self, msg: Message) -> None:
        r = msg.payload["round"]
        self._estimates.setdefault(r, []).append(
            (msg.payload["est"], msg.payload["ts"])
        )

    # -- phase 2: coordinator proposes on a majority of estimates ------------------

    @action(guard=lambda self: any(
        self.coordinator(r) == self.pid and r not in self._proposed
        and len(ests) >= self.majority
        for r, ests in self._estimates.items()))
    def propose(self) -> None:
        for r, ests in sorted(self._estimates.items()):
            if (self.coordinator(r) == self.pid and r not in self._proposed
                    and len(ests) >= self.majority):
                self._proposed.add(r)
                value = max(ests, key=lambda e: e[1])[0]
                self.send_all(self.pids, self.name, "propose",
                              round=r, v=value)

    @receive("propose")
    def on_propose(self, msg: Message) -> None:
        self._proposals[msg.payload["round"]] = msg.payload["v"]

    # -- phase 3: adopt-and-ack, or suspect-and-nack --------------------------------

    @action(guard=lambda self: self.decided is None and self.estimate_sent
            and self.round in self._proposals)
    def adopt(self) -> None:
        v = self._proposals[self.round]
        self.estimate = v
        self.ts = self.round
        self.send(self.coordinator(self.round), self.name, "ack",
                  round=self.round)
        self._next_round()

    @action(guard=lambda self: self.decided is None and self.estimate_sent
            and self.round not in self._proposals
            and self.coordinator(self.round) != self.pid
            and self.detector.suspected(self.coordinator(self.round)))
    def give_up_on_coordinator(self) -> None:
        self.send(self.coordinator(self.round), self.name, "nack",
                  round=self.round)
        self._next_round()

    def _next_round(self) -> None:
        self.round += 1
        self.estimate_sent = False

    # -- phase 4: coordinator decides on a unanimous majority of replies ------------

    @receive("ack")
    def on_ack(self, msg: Message) -> None:
        r = msg.payload["round"]
        self._acks[r] = self._acks.get(r, 0) + 1

    @receive("nack")
    def on_nack(self, msg: Message) -> None:
        r = msg.payload["round"]
        self._nacks[r] = self._nacks.get(r, 0) + 1

    @action(guard=lambda self: any(
        r not in self._closed
        and self._acks.get(r, 0) + self._nacks.get(r, 0) >= self.majority
        for r in self._proposed))
    def conclude_round(self) -> None:
        for r in sorted(self._proposed):
            if r in self._closed:
                continue
            acks, nacks = self._acks.get(r, 0), self._nacks.get(r, 0)
            if acks + nacks < self.majority:
                continue
            self._closed.add(r)
            if nacks == 0:
                # Unanimous majority: the proposal is locked; announce it.
                self._rb().broadcast(
                    {"decision": self._proposal_value(r), "round": r}
                )

    def _proposal_value(self, r: int) -> Any:
        ests = self._estimates[r]
        return max(ests, key=lambda e: e[1])[0]


def setup_consensus(
    engine: Engine,
    pids: Sequence[ProcessId],
    detectors: Mapping[ProcessId, Any],
    proposals: Mapping[ProcessId, Any],
    name: str = "consensus",
) -> dict[ProcessId, ChandraTouegConsensus]:
    """Attach a consensus endpoint (plus its reliable-broadcast sibling) to
    every process.  ``detectors[pid]`` supplies each local oracle."""
    from repro.consensus.broadcast import ReliableBroadcast

    endpoints: dict[ProcessId, ChandraTouegConsensus] = {}
    for pid in pids:
        ep = ChandraTouegConsensus(name, pids, detectors[pid], proposals[pid])
        rb = ReliableBroadcast(ep.rb_name, peers=[x for x in pids if x != pid],
                               deliver=ep.on_rb_deliver)
        proc = engine.process(pid)
        proc.add_component(ep)
        proc.add_component(rb)
        endpoints[pid] = ep
    return endpoints


@dataclass
class ConsensusResult:
    """Verdict of one consensus run."""

    agreement: bool
    validity: bool
    termination: bool
    decisions: dict[ProcessId, Any] = field(default_factory=dict)
    rounds: dict[ProcessId, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.agreement and self.validity and self.termination

    def format_table(self) -> str:
        verdict = "OK" if self.ok else "VIOLATED"
        lines = [
            f"consensus: {verdict} (agreement={self.agreement}, "
            f"validity={self.validity}, termination={self.termination})"
        ]
        for pid, v in sorted(self.decisions.items()):
            lines.append(f"  {pid} decided {v!r} in round {self.rounds[pid]}")
        return "\n".join(lines)


def check_consensus(
    trace: Trace,
    pids: Sequence[ProcessId],
    schedule: CrashSchedule,
    proposals: Mapping[ProcessId, Any],
) -> ConsensusResult:
    """Check agreement / validity / termination from ``"decide"`` rows."""
    decisions: dict[ProcessId, Any] = {}
    rounds: dict[ProcessId, int] = {}
    for rec in trace.records(kind="decide"):
        if rec.pid not in decisions:  # first decision counts
            decisions[rec.pid] = rec["value"]
            rounds[rec.pid] = rec["round"]
    correct = schedule.correct(pids)
    values = set(decisions.values())
    return ConsensusResult(
        agreement=len(values) <= 1,
        validity=values <= set(proposals.values()),
        termination=correct <= set(decisions),
        decisions=decisions,
        rounds=rounds,
    )
