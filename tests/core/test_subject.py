"""Unit tests for Algorithm 2 (subject threads), action by action."""

import pytest

from repro.core.subject import SubjectShared, SubjectThread
from repro.errors import ConfigurationError
from repro.types import DinerState
from tests.core.helpers import ManualPair


def test_subject_index_validated():
    with pytest.raises(ConfigurationError):
        SubjectThread("s", -1, SubjectShared(), diner=None)


def test_S_h_only_subject_zero_initially():
    mp = ManualPair()
    mp.settle(5)
    assert mp.sdiners[0].state is DinerState.HUNGRY   # trigger = 0
    assert mp.sdiners[1].state is DinerState.THINKING


def test_S_p_sends_single_ping_when_other_not_eating():
    mp = ManualPair()
    mp.settle(5)
    mp.sdiners[0].grant()
    mp.settle(20)
    assert mp.subjects[0].pings_sent == 1     # exactly one per session
    assert mp.s_shared.ping[0] is False


def test_S_a_flips_trigger_and_schedules_other_subject():
    mp = ManualPair()
    mp.settle(5)
    mp.sdiners[0].grant()
    mp.settle(30)                              # ping -> ack round trip
    assert mp.subjects[0].acks_received == 1
    assert mp.s_shared.trigger == 1
    assert mp.sdiners[1].state is DinerState.HUNGRY


def test_S_x_requires_overlap_and_trigger():
    mp = ManualPair()
    mp.settle(5)
    mp.sdiners[0].grant()
    mp.settle(30)
    # s0 is eating, trigger flipped, s1 hungry but NOT yet eating: s0 stays.
    assert mp.sdiners[0].state is DinerState.EATING
    mp.sdiners[1].grant()
    mp.settle(10)
    # Overlap achieved: s0 exits, re-arming its ping flag (Lemma 2).
    assert mp.sdiners[0].state is not DinerState.EATING
    assert mp.s_shared.ping[0] is True
    assert mp.subjects[0].eat_sessions_completed == 1


def test_handoff_alternates_between_subjects():
    mp = ManualPair()
    served = []
    for _ in range(6):
        mp.settle(30)
        for i in (0, 1):
            if mp.sdiners[i].state is DinerState.HUNGRY:
                served.append(i)
                mp.sdiners[i].grant()
        for d in mp.sdiners:
            d.finish()
    assert served[:4] == [0, 1, 0, 1]


def test_invariant_monitor_clean_through_handoff():
    mp = ManualPair()
    for _ in range(8):
        mp.settle(30)
        for i in (0, 1):
            if mp.sdiners[i].state is DinerState.HUNGRY:
                mp.sdiners[i].grant()
        for d in mp.sdiners:
            d.finish()
    # No InvariantViolation raised: Lemmas 2 and 4 held throughout.
    assert mp.subjects[0].eat_sessions_completed >= 2


def test_second_ping_only_after_exit():
    mp = ManualPair()
    mp.settle(5)
    mp.sdiners[0].grant()
    mp.settle(40)
    assert mp.subjects[0].pings_sent == 1
    mp.sdiners[1].grant()      # let s0 complete the hand-off and exit
    mp.settle(40)
    # s1's session pings once too; s0 hasn't re-eaten yet.
    assert mp.subjects[1].pings_sent == 1
    assert mp.subjects[0].pings_sent == 1
