"""Wait-free dining under *perpetual* weak exclusion (paper Section 9).

Delporte-Gallet et al. proved (T + S) sufficient for Fault-Tolerant Mutual
Exclusion — wait-freedom with live neighbors *never* eating simultaneously.
The key requirement on the oracle is **crash-accurate suspicion**: a
process is only ever treated as ignorable if it has really crashed, so the
suspicion override of the hygienic protocol never creates a violation.

This module provides the perpetual-WX black box used by the Section 9
experiment (applying the paper's reduction to a WX box extracts T).
``tests/dining/test_perpetual.py`` runs it over two crash-accurate
providers: the P substrate, and the paper's (T + S) composition (see
DESIGN.md §6 for what the full FTME protocol adds).

:class:`PerpetualDining` is the hygienic algorithm run with such a
provider; with crash-accurate suspicion it yields zero exclusion
violations in every run (checked by ``ExclusionReport.perpetual_ok``).
"""

from __future__ import annotations

import networkx as nx

from repro.dining.base import SuspicionProvider
from repro.dining.wf_ewx import WaitFreeEWXDining


class PerpetualDining(WaitFreeEWXDining):
    """Hygienic dining whose suspicion source must be crash-accurate.

    The class is behaviourally the parent algorithm; it exists to document
    (and let experiments assert) the stronger contract: with a
    crash-accurate provider the run must satisfy *perpetual* weak
    exclusion, i.e. ``check_exclusion(...).perpetual_ok``.
    """

    def __init__(self, instance_id: str, graph: nx.Graph,
                 suspicion_provider: SuspicionProvider) -> None:
        super().__init__(instance_id, graph, suspicion_provider)
