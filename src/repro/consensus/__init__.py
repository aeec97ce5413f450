"""Downstream protocols driven by a (possibly extracted) failure detector.

The paper motivates ◇P as "sufficiently powerful to solve many
crash-tolerant problems including consensus and stable leader election"
(Section 1).  This package closes the loop for experiment E8: the oracle
*extracted from black-box dining* plugs into

* :class:`~repro.consensus.chandra_toueg.ChandraTouegConsensus` — the
  rotating-coordinator ◇S consensus protocol (◇P ⪰ ◇S), and
* :class:`~repro.oracles.omega.OmegaElector` — stable leader election,
  judged by :func:`repro.oracles.properties.leader_agreement`,

unchanged, because :class:`~repro.core.extraction.ExtractedDetector`
presents the standard query surface.
"""

from repro.consensus.atomic_broadcast import (
    AtomicBroadcast,
    check_total_order,
    setup_atomic_broadcast,
)
from repro.consensus.broadcast import ReliableBroadcast
from repro.consensus.chandra_toueg import ChandraTouegConsensus, ConsensusResult, check_consensus

__all__ = [
    "AtomicBroadcast",
    "ChandraTouegConsensus",
    "ConsensusResult",
    "ReliableBroadcast",
    "check_consensus",
    "check_total_order",
    "setup_atomic_broadcast",
]
