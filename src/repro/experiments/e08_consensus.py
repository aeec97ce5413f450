"""E8 — Section 1: the extracted oracle solves consensus.

Paper claim: ◇P suffices for consensus [3].  We close the loop end-to-end:
black-box dining → the reduction → extracted ◇P → Chandra–Toueg consensus,
under a crash of the first coordinator, and compare against the same
protocol running on the native heartbeat ◇P.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.consensus.chandra_toueg import check_consensus, setup_consensus
from repro.core.extraction import build_full_extraction
from repro.dining.boxes import box_factory
from repro.experiments.common import ExperimentResult
from repro.runtime.builder import build_system
from repro.sim.faults import CrashSchedule

EXP_ID = "E8"
TITLE = "Extracted ◇P drives Chandra-Toueg consensus to a decision"


def _one(seed: int, n: int, use_extraction: bool, crash_at: float,
         max_time: float) -> tuple[bool, dict]:
    pids = [f"p{i}" for i in range(n)]
    system = build_system(pids, seed=seed, gst=120.0, max_time=max_time,
                          crash=CrashSchedule.single(pids[0], crash_at))
    if use_extraction:
        detectors, _ = build_full_extraction(
            system.engine, pids, box_factory("wf-ewx", system.provider))
    else:
        detectors = system.box_modules
    proposals = {pid: f"v{i}" for i, pid in enumerate(pids)}
    endpoints = setup_consensus(system.engine, pids, detectors, proposals)
    system.engine.run(stop_when=lambda: all(
        system.engine.process(p).crashed or endpoints[p].decided is not None
        for p in pids
    ))
    result = check_consensus(system.engine.trace, pids, system.schedule,
                             proposals)
    rounds = max(result.rounds.values(), default=0)
    return result.ok, {
        "agreement": result.agreement,
        "validity": result.validity,
        "termination": result.termination,
        "decision_time": system.engine.now,
        "rounds": rounds,
    }


def run(seed: int = 801, n: int = 4, crash_at: float = 50.0,
        max_time: float = 6000.0) -> ExperimentResult:
    table = Table(["oracle", "agreement", "validity", "termination",
                   "rounds", "decided by t"], title=TITLE)
    ok_all = True
    for label, use_extraction in (("native ◇P", False), ("extracted ◇P", True)):
        ok, d = _one(seed, n, use_extraction, crash_at, max_time)
        ok_all &= ok
        table.add_row([label, d["agreement"], d["validity"],
                       d["termination"], d["rounds"], d["decision_time"]])
    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE, ok=ok_all, table=table,
        notes=[f"coordinator of round 1 crashes at t={crash_at}; consensus "
               "must route around it via suspicion"],
    )
