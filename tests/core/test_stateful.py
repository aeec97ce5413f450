"""Stateful property testing: the reduction under arbitrary scheduling.

A hypothesis rule machine plays the dining scheduler: it grants hungry
witness/subject diners in arbitrary orders and lets the network settle for
arbitrary spans.  Whatever it does, the paper's structural invariants must
hold (the Lemma 2/4 runtime monitors are armed and raise on violation):

* ``switch`` and ``trigger`` stay binary;
* Lemma 9 — at least one witness diner is always thinking;
* ping/ack accounting never goes negative or runs ahead (Lemma 5 skeleton);
* the extracted output is always defined.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.types import DinerState
from tests.core.helpers import ManualPair


class ReductionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pair = ManualPair()

    @rule(span=st.integers(1, 25))
    def settle(self, span):
        self.pair.settle(span)

    @rule(i=st.sampled_from([0, 1]))
    def grant_witness(self, i):
        if self.pair.wdiners[i].state is DinerState.HUNGRY:
            self.pair.wdiners[i].grant()

    @rule(i=st.sampled_from([0, 1]))
    def grant_subject(self, i):
        if self.pair.sdiners[i].state is DinerState.HUNGRY:
            self.pair.sdiners[i].grant()

    @rule()
    def finish_exits(self):
        for d in self.pair.wdiners + self.pair.sdiners:
            d.finish()

    @invariant()
    def switch_and_trigger_binary(self):
        assert self.pair.w_shared.switch in (0, 1)
        assert self.pair.s_shared.trigger in (0, 1)

    @invariant()
    def lemma9_some_witness_thinking(self):
        states = [d.state for d in self.pair.wdiners]
        assert DinerState.THINKING in states

    @invariant()
    def ping_ack_accounting_sane(self):
        for i in (0, 1):
            s = self.pair.subjects[i]
            w = self.pair.witnesses[i]
            assert 0 <= s.pings_sent - s.acks_received <= 1
            assert w.acks_sent == w.pings_received
            assert s.pings_sent >= s.eat_sessions_completed

    @invariant()
    def output_defined(self):
        assert self.pair.output.suspected("q") in (True, False)


TestReductionStateful = ReductionMachine.TestCase
TestReductionStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None,
)
