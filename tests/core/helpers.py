"""Builders for reduction tests: manual harness and full-system runs."""

from __future__ import annotations

from repro.core.pair import EXTRACTED_LABEL
from repro.core.subject import SubjectShared, SubjectThread
from repro.core.witness import ExtractedPairModule, WitnessShared, WitnessThread
from repro.dining.base import DinerComponent
from repro.dining.boxes import box_factory
from repro.runtime.builder import build_system
from repro.runtime.spec import RunSpec
from tests.conftest import make_engine


class ManualDiner(DinerComponent):
    """A diner with no algorithm: tests schedule it by hand via grant()."""

    def grant(self) -> None:
        from repro.types import DinerState

        assert self.state is DinerState.HUNGRY
        self._set_state(DinerState.EATING)

    def finish(self) -> None:
        from repro.types import DinerState

        if self.state is DinerState.EXITING:
            self._set_state(DinerState.THINKING)


class ManualPair:
    """Witness/subject threads wired over hand-scheduled diners.

    Lets unit tests drive the paper's Alg. 1/2 actions step by step without
    a real dining algorithm underneath.
    """

    def __init__(self):
        self.engine = make_engine(max_time=1e6)
        self.p = self.engine.add_process("p")
        self.q = self.engine.add_process("q")

        self.output = ExtractedPairModule("out", "q", EXTRACTED_LABEL)
        self.p.add_component(self.output)
        w_shared = WitnessShared(self.output)
        s_shared = SubjectShared()

        self.wdiners, self.sdiners = [], []
        self.witnesses, self.subjects = [], []
        for i in (0, 1):
            wd = ManualDiner(f"DX{i}:wd", f"DX{i}", ("q",))
            sd = ManualDiner(f"DX{i}:sd", f"DX{i}", ("p",))
            self.p.add_component(wd)
            self.q.add_component(sd)
            self.wdiners.append(wd)
            self.sdiners.append(sd)
            w = WitnessThread(f"w{i}", i, w_shared, diner=wd)
            s = SubjectThread(f"s{i}", i, s_shared, diner=sd)
            self.p.add_component(w)
            self.q.add_component(s)
            self.witnesses.append(w)
            self.subjects.append(s)
        for i in (0, 1):
            self.witnesses[i].wire(self.witnesses[1 - i], "q", f"s{i}")
            self.subjects[i].wire(self.subjects[1 - i], "p", f"w{i}")
        self.w_shared = w_shared
        self.s_shared = s_shared

    def settle(self, steps: int = 60) -> None:
        """Run both processes' step loops and the network for a while."""
        self.engine.run(until=self.engine.now + steps)


def run_pair_system(seed: int = 1, crashes=None, max_time: float = 2500.0,
                    box: str = "wf", gst: float = 150.0,
                    horizon: float = 150.0):
    """One ordered pair (p monitors q) over a real black box."""
    from repro.core.extraction import build_full_extraction

    system = build_system(RunSpec(graph="pair:p,q", seed=seed, gst=gst,
                                  max_time=max_time, crashes=crashes or {}))
    factory = box_factory("wf-ewx" if box == "wf" else f"deferred:{horizon}",
                          system.provider)
    detectors, pairs = build_full_extraction(
        system.engine, system.pids, factory, monitors=[("p", "q")])
    system.engine.run()
    return system, detectors, pairs[("p", "q")]
