"""E14 — robustness: the reduction under targeted adversaries.

The necessity proof must hold for *every* run the model admits, so the
reduction's extracted oracle must keep its ◇P properties under adversaries
the asynchronous model allows: arbitrarily (but finitely) slowed ping/ack
traffic, a victim process whose channels crawl, and a subject whose steps
run an order of magnitude slower than the witness's.  Convergence may come
later; it must still come.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.core.extraction import build_full_extraction
from repro.dining.boxes import box_factory
from repro.experiments.common import ExperimentResult
from repro.oracles import EventuallyPerfectDetector, attach_detectors
from repro.oracles.properties import (
    check_eventual_strong_accuracy,
    check_strong_completeness,
)
from repro.sim.adversary import DelayRule, TargetedDelays, by_endpoint, by_kind
from repro.sim.engine import Engine, SimConfig
from repro.sim.scheduler import BurstySteps
from repro.sim.faults import CrashSchedule
from repro.sim.network import PartialSynchronyDelays

EXP_ID = "E14"
TITLE = "Robustness: reduction properties under targeted adversaries"


def _build(seed: int, adversary: str, crash: CrashSchedule, max_time: float):
    base = PartialSynchronyDelays(gst=120.0, delta=1.5, pre_gst_max=25.0)
    speeds = {}
    step_policy = None
    if adversary == "slow-pingack":
        model = TargetedDelays(base, [
            DelayRule(by_kind("ping", "ack"), factor=8.0, extra_max=20.0,
                      until=900.0),
        ])
    elif adversary == "victim-channels":
        model = TargetedDelays(base, [
            DelayRule(by_endpoint("q"), factor=5.0, extra_max=15.0,
                      until=900.0),
        ])
    elif adversary == "slow-subject":
        model = base
        speeds = {"q": 6.0}
    elif adversary == "bursty-steps":
        model = base
        step_policy = BurstySteps(pause_prob=0.03, pause_lo=10.0,
                                  pause_hi=40.0)
    else:
        model = base
    engine = Engine(SimConfig(seed=seed, max_time=max_time, speeds=speeds,
                              step_policy=step_policy),
                    delay_model=model, crash_schedule=crash)
    for pid in ("p", "q"):
        engine.add_process(pid)
    mods = attach_detectors(
        engine, ["p", "q"],
        lambda o, peers: EventuallyPerfectDetector(
            "boxfd", peers, heartbeat_period=4, initial_timeout=10),
    )
    provider = lambda pid: (lambda x, m=mods[pid]: m.suspected(x))  # noqa: E731
    build_full_extraction(engine, ["p", "q"], box_factory("wf-ewx", provider),
                          monitors=[("p", "q")])
    return engine


def run(seed: int = 1401,
        adversaries: tuple[str, ...] = ("none", "slow-pingack",
                                        "victim-channels", "slow-subject",
                                        "bursty-steps"),
        max_time: float = 4000.0) -> ExperimentResult:
    table = Table(["adversary", "accuracy", "accuracy conv",
                   "completeness", "detect latency"], title=TITLE)
    ok_all = True
    for adversary in adversaries:
        # accuracy run (q correct)
        eng = _build(seed, adversary, CrashSchedule.none(), max_time)
        eng.run()
        acc = check_eventual_strong_accuracy(
            eng.trace, ["p"], ["q"], CrashSchedule.none(),
            detector="extracted")
        # completeness run (q crashes mid-run)
        sched = CrashSchedule.single("q", max_time / 2)
        eng2 = _build(seed + 1, adversary, sched, max_time)
        eng2.run()
        comp = check_strong_completeness(
            eng2.trace, ["p"], ["q"], sched, detector="extracted")
        latency = (comp.convergence - max_time / 2
                   if comp.ok and comp.convergence else None)
        ok_all &= acc.ok and comp.ok
        table.add_row([adversary, acc.ok, acc.convergence, comp.ok, latency])
    return ExperimentResult(
        exp_id=EXP_ID, title=TITLE, ok=ok_all, table=table,
        notes=["adversaries slow ping/ack traffic 8x, the subject's channels "
               "5x, the subject's steps 6x, or stall both processes in "
               "random bursts; the reduction must converge later but "
               "still converge"],
    )
