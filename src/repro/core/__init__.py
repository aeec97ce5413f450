"""The paper's contribution: extracting ◇P from black-box WF-◇WX dining.

For every ordered pair ``(p, q)`` where ``p`` monitors ``q``, the reduction
runs **two** dining instances ``DX0``/``DX1``, each with two diners: a
*witness* thread at ``p`` and a *subject* thread at ``q``:

* the witness threads (:mod:`repro.core.witness`, paper Alg. 1) take strict
  turns eating in their instances, and on each eating session read off
  whether a ping arrived since their previous session — that bit is the
  extracted suspicion output;
* the subject threads (:mod:`repro.core.subject`, paper Alg. 2) chain their
  eating sessions with an overlap hand-off and a ping/ack exchange, so that
  in the box's exclusive suffix a witness can never eat twice in an
  instance without the subject eating (and pinging) in between.

:mod:`repro.core.pair` wires one monitored pair; :mod:`repro.core.extraction`
installs a per-pair construction over all selected ordered pairs — the one
installer every construction goes through.  Besides the reduction (which,
relabelled ``TRUSTING_LABEL`` over a perpetual-WX box, extracts the
trusting oracle T, paper Section 9), :mod:`repro.core.flawed_cm`
implements the *flawed* single-instance construction of [8] (paper
Section 3) so experiment E4 can demonstrate its vulnerability, and
:mod:`repro.core.preliminary` the rejected sketch of Section 5.1 (E20).
"""

from repro.core.extraction import ExtractedDetector, build_full_extraction
from repro.core.flawed_cm import FlawedCMPair
from repro.core.pair import DiningBoxFactory, ReductionPair
from repro.core.subject import SubjectShared, SubjectThread
from repro.core.witness import WitnessShared, WitnessThread

__all__ = [
    "DiningBoxFactory",
    "ExtractedDetector",
    "FlawedCMPair",
    "ReductionPair",
    "SubjectShared",
    "SubjectThread",
    "WitnessShared",
    "WitnessThread",
    "build_full_extraction",
]
