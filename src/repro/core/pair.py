"""Wiring one monitored ordered pair ``(p, q)`` (paper Sections 5–6).

A :class:`ReductionPair` instantiates, for witness process ``p`` and
subject process ``q``:

* two fresh dining instances ``DX0``/``DX1`` from the caller's black-box
  factory, each over the 2-vertex conflict graph ``{p, q}``;
* witness threads ``p.w0``/``p.w1`` (Alg. 1) driving the ``p``-side diners;
* subject threads ``q.s0``/``q.s1`` (Alg. 2) driving the ``q``-side diners;
* the extracted output module at ``p`` (suspicion bit about ``q``),
  labelled ``"extracted"`` in the trace so the standard oracle checkers
  apply.

The reduction sees the dining implementation only through the diner client
API — it is genuinely black-box, which is the point of the paper.
"""

from __future__ import annotations

from repro.core.subject import SubjectShared, SubjectThread
from repro.core.witness import ExtractedPairModule, WitnessShared, WitnessThread
from repro.dining.base import DiningBoxFactory, DiningInstance
from repro.errors import ConfigurationError
from repro.graphs import pair_graph
from repro.sim.engine import Engine
from repro.types import ProcessId

#: Trace label shared by every extracted pair module.
EXTRACTED_LABEL = "extracted"

#: Trace label of the same reduction run over a perpetual-WX box, which
#: extracts T (paper Section 9), so T-specific checks do not collide with
#: ◇P extractions in the same run.
TRUSTING_LABEL = "extractedT"


class ReductionPair:
    """The ◇P module for one ordered pair (p monitors q)."""

    def __init__(
        self,
        witness_pid: ProcessId,
        subject_pid: ProcessId,
        box_factory: DiningBoxFactory,
        label: str = EXTRACTED_LABEL,
    ) -> None:
        if witness_pid == subject_pid:
            raise ConfigurationError("a process does not monitor itself")
        self.witness_pid = witness_pid
        self.subject_pid = subject_pid
        self.box_factory = box_factory
        self.label = label
        self.pair_id = f"R[{witness_pid}>{subject_pid}]"
        self.instances: list[DiningInstance] = []
        self.witnesses: list[WitnessThread] = []
        self.subjects: list[SubjectThread] = []
        self.output: ExtractedPairModule | None = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, engine: Engine) -> ExtractedPairModule:
        """Install both dining instances and all four threads; return the
        extracted output module living at the witness process."""
        if self.output is not None:
            raise ConfigurationError(f"pair {self.pair_id} already attached")
        p, q = self.witness_pid, self.subject_pid

        output = ExtractedPairModule(f"{self.pair_id}:out", q, self.label)
        engine.process(p).add_component(output)
        self.output = output

        w_shared = WitnessShared(output)
        s_shared = SubjectShared()

        for i in (0, 1):
            instance = self.box_factory(f"{self.pair_id}.DX{i}", pair_graph(p, q))
            diners = instance.attach(engine)
            self.instances.append(instance)

            witness = WitnessThread(f"{self.pair_id}:w{i}", i, w_shared,
                                    diner=diners[p])
            subject = SubjectThread(f"{self.pair_id}:s{i}", i, s_shared,
                                    diner=diners[q])
            engine.process(p).add_component(witness)
            engine.process(q).add_component(subject)
            self.witnesses.append(witness)
            self.subjects.append(subject)

        for i in (0, 1):
            self.witnesses[i].wire(
                self.witnesses[1 - i],
                subject_pid=q, subject_tag=f"{self.pair_id}:s{i}",
            )
            self.subjects[i].wire(
                self.subjects[1 - i],
                witness_pid=p, witness_tag=f"{self.pair_id}:w{i}",
            )
        return output

    # -- queries -----------------------------------------------------------------

    def suspected(self) -> bool:
        """Does p currently suspect q?"""
        if self.output is None:
            raise ConfigurationError(f"pair {self.pair_id} not attached")
        return self.output.suspected(self.subject_pid)

    def instance_ids(self) -> tuple[str, str]:
        return (f"{self.pair_id}.DX0", f"{self.pair_id}.DX1")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReductionPair({self.witness_pid} monitors {self.subject_pid})"
