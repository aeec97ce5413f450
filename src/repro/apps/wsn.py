"""Duty-cycle scheduling for wireless sensor networks (paper Section 2).

The scenario the paper motivates ◇WX with: a grid of sensors must keep a
surveillance area covered.  Every node will eventually crash from power
depletion, so the network's life-span should exceed its nodes'.  Nodes with
overlapping coverage *conflict*: both on duty at once is redundant — a
performance mistake, not a correctness one.  So the duty scheduler is a
dining instance over the coverage-overlap (grid) graph:

* **on duty** = eating; **volunteering** = hungry;
* **wait-freedom** ⇒ coverage holds despite crashes (every live volunteer
  eventually serves);
* **◇WX** ⇒ only finitely much redundant duty, maximizing life-span.

Coverage model: a node covers its own cell and its grid neighbors' cells;
a cell is covered while some live node in its closed neighborhood is on
duty.  Energy: idle drain ``idle_rate``, duty drain ``duty_rate`` per time
unit; depletion crashes the node (dynamically, via
:meth:`~repro.sim.engine.Engine.inject_crash`).

Schedulers compared: ``always_on`` (every node on duty until it dies —
maximal coverage, minimal life-span), the blindly rotating dining schedule
(``run_dining``), and the coverage-aware variant (``run_coverage_aware``)
whose nodes volunteer only while they believe their cell is uncovered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import networkx as nx
import numpy as np

from repro.dining.base import DinerComponent
from repro.dining.spec import check_exclusion, eating_intervals
from repro.dining.wf_ewx import WaitFreeEWXDining
from repro.errors import ConfigurationError
from repro.graphs import grid
from repro.oracles import EventuallyPerfectDetector, attach_detectors
from repro.sim.component import Component, action, receive
from repro.sim.engine import Engine, SimConfig
from repro.sim.faults import CrashSchedule
from repro.sim.network import PartialSynchronyDelays
from repro.sim.rng import BatchedDoubles
from repro.types import DinerState, Message, ProcessId, Time

DUTY_INSTANCE = "WSN"


class DutyClient(Component):
    """Node behaviour: rest briefly, volunteer, serve one shift, repeat."""

    def __init__(self, name: str, diner: DinerComponent,
                 rng: BatchedDoubles,
                 shift: tuple[Time, Time] = (6.0, 10.0),
                 rest: tuple[Time, Time] = (12.0, 24.0)) -> None:
        super().__init__(name)
        self.diner = diner
        self.rng = rng
        self.shift = shift
        self.rest = rest
        self._until: Optional[Time] = None

    @action(guard=lambda self: self.diner.state is DinerState.THINKING)
    def volunteer(self) -> None:
        now = self.process.env_now()
        if self._until is None:
            self._until = now + float(self.rng.uniform(*self.rest))
        if now >= self._until:
            self._until = None
            self.diner.become_hungry()

    @action(guard=lambda self: self.diner.state is DinerState.EATING)
    def serve_shift(self) -> None:
        now = self.process.env_now()
        if self._until is None:
            self._until = now + float(self.rng.uniform(*self.shift))
        if now >= self._until:
            self._until = None
            self.diner.exit_eating()


class CoverageAwareClient(Component):
    """Node behaviour closer to the paper's ideal: volunteer only while the
    node believes its own cell is uncovered.

    On-duty nodes beacon their grid neighbors every ``beacon_period``; an
    off-duty node considers itself covered while any neighbor beaconed
    within ``2 * beacon_period`` (or while it is on duty itself).  Uncovered
    and thinking -> volunteer.  The result is a near-minimal duty set: the
    dining layer picks an independent set of volunteers, their beacons put
    the rest to sleep, and shift expiry rotates the burden.
    """

    def __init__(self, name: str, diner: DinerComponent,
                 neighbors: tuple[ProcessId, ...],
                 rng: BatchedDoubles,
                 shift: tuple[Time, Time] = (8.0, 14.0),
                 beacon_period: Time = 2.0) -> None:
        super().__init__(name)
        self.diner = diner
        self.neighbors = tuple(neighbors)
        self.rng = rng
        self.shift = shift
        self.beacon_period = float(beacon_period)
        self._until: Optional[Time] = None
        self._next_beacon = 0.0
        self._last_heard: dict[ProcessId, Time] = {}

    def _covered(self, now: Time) -> bool:
        horizon = now - 2.0 * self.beacon_period
        return any(t >= horizon for t in self._last_heard.values())

    @action(guard=lambda self: self.diner.state is DinerState.THINKING)
    def volunteer_if_uncovered(self) -> None:
        now = self.process.env_now()
        if not self._covered(now):
            self.diner.become_hungry()

    @action(guard=lambda self: self.diner.state is DinerState.EATING)
    def serve_and_beacon(self) -> None:
        now = self.process.env_now()
        if self._until is None:
            self._until = now + float(self.rng.uniform(*self.shift))
        if now >= self._next_beacon:
            self._next_beacon = now + self.beacon_period
            self.send_all(self.neighbors, self.name, "beacon")
        if now >= self._until:
            self._until = None
            self.diner.exit_eating()

    @receive("beacon")
    def on_beacon(self, msg: Message) -> None:
        self._last_heard[msg.sender] = self.process.env_now()


class AlwaysOnNode(Component):
    """Baseline behaviour: permanently on duty (recorded via state rows)."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._started = False

    @action(guard=lambda self: not self._started)
    def switch_on(self) -> None:
        self._started = True
        self.record("state", instance=DUTY_INSTANCE, state=DinerState.EATING.value)


@dataclass
class WSNReport:
    """Outcome of one WSN run."""

    scheduler: str
    rows: int
    cols: int
    lifetime: Time                  # last time coverage >= the threshold
    mean_coverage: float            # time-averaged covered-cell fraction
    redundancy_violations: int      # simultaneous-duty events between neighbors
    last_redundancy: Optional[Time]
    crash_times: dict[ProcessId, Time] = field(default_factory=dict)
    coverage_series: list[tuple[Time, float]] = field(default_factory=list)

    def format_row(self) -> str:
        last = "-" if self.last_redundancy is None else f"{self.last_redundancy:7.1f}"
        return (
            f"{self.scheduler:<12} lifetime={self.lifetime:8.1f} "
            f"mean_cov={self.mean_coverage:5.3f} "
            f"redundant={self.redundancy_violations:4d} (last {last}) "
            f"deaths={len(self.crash_times)}"
        )


class WSNExperiment:
    """Builds, runs, and scores one WSN scenario."""

    def __init__(
        self,
        rows: int = 3,
        cols: int = 3,
        seed: int = 0,
        battery: float = 400.0,
        idle_rate: float = 0.2,
        duty_rate: float = 2.0,
        gst: Time = 120.0,
        max_time: Time = 2500.0,
        energy_poll: Time = 2.0,
        coverage_threshold: float = 0.75,
    ) -> None:
        if duty_rate <= idle_rate:
            raise ConfigurationError("duty must drain faster than idling")
        self.graph = grid(rows, cols)
        self.rows, self.cols = rows, cols
        self.seed = seed
        self.battery = float(battery)
        self.idle_rate = float(idle_rate)
        self.duty_rate = float(duty_rate)
        self.gst = gst
        self.max_time = max_time
        self.energy_poll = float(energy_poll)
        self.coverage_threshold = float(coverage_threshold)
        self.pids = sorted(self.graph.nodes)

    # -- energy metering (environment driver) ----------------------------------

    def _meter(self, engine: Engine, diner_state) -> None:
        """Poll energy periodically; deplete -> crash."""
        battery = {pid: self.battery for pid in self.pids}
        last = {pid: 0.0 for pid in self.pids}

        def poll() -> None:
            now = engine.now
            for pid in self.pids:
                proc = engine.processes[pid]
                if proc.crashed:
                    continue
                dt = now - last[pid]
                last[pid] = now
                rate = (self.duty_rate
                        if diner_state(pid) is DinerState.EATING
                        else self.idle_rate)
                battery[pid] -= rate * dt
                if battery[pid] <= 0:
                    engine.inject_crash(pid)
            if now + self.energy_poll < self.max_time:
                engine.schedule_call(now + self.energy_poll, poll)

        engine.schedule_call(self.energy_poll, poll)

    # -- scenario runners ---------------------------------------------------------

    def run_dining(self) -> WSNReport:
        """◇P-scheduled duty cycling."""
        eng = Engine(
            SimConfig(seed=self.seed, max_time=self.max_time),
            delay_model=PartialSynchronyDelays(gst=self.gst, delta=1.5,
                                               pre_gst_max=20.0),
        )
        for pid in self.pids:
            eng.add_process(pid)
        mods = attach_detectors(
            eng, self.pids,
            lambda o, peers: EventuallyPerfectDetector(
                "fd", peers, heartbeat_period=5, initial_timeout=12),
        )
        instance = WaitFreeEWXDining(
            DUTY_INSTANCE, self.graph,
            lambda pid: (lambda q, m=mods[pid]: m.suspected(q)),
        )
        diners = instance.attach(eng)
        for pid in self.pids:
            rng = eng.rng.stream(f"client:{pid}")
            eng.process(pid).add_component(DutyClient("duty", diners[pid], rng))
        self._meter(eng, lambda pid: diners[pid].state)
        eng.run()
        return self._score(eng, "dining")

    def run_coverage_aware(self) -> WSNReport:
        """◇P-scheduled duty cycling with coverage-aware volunteering."""
        eng = Engine(
            SimConfig(seed=self.seed, max_time=self.max_time),
            delay_model=PartialSynchronyDelays(gst=self.gst, delta=1.5,
                                               pre_gst_max=20.0),
        )
        for pid in self.pids:
            eng.add_process(pid)
        mods = attach_detectors(
            eng, self.pids,
            lambda o, peers: EventuallyPerfectDetector(
                "fd", peers, heartbeat_period=5, initial_timeout=12),
        )
        instance = WaitFreeEWXDining(
            DUTY_INSTANCE, self.graph,
            lambda pid: (lambda q, m=mods[pid]: m.suspected(q)),
        )
        diners = instance.attach(eng)
        for pid in self.pids:
            rng = eng.rng.stream(f"client:{pid}")
            eng.process(pid).add_component(CoverageAwareClient(
                "duty", diners[pid],
                neighbors=tuple(sorted(self.graph.neighbors(pid))), rng=rng))
        self._meter(eng, lambda pid: diners[pid].state)
        eng.run()
        return self._score(eng, "cover-aware")

    def run_always_on(self) -> WSNReport:
        """Baseline: everyone on duty, no scheduling."""
        eng = Engine(SimConfig(seed=self.seed, max_time=self.max_time),
                     delay_model=PartialSynchronyDelays(gst=self.gst, delta=1.5,
                                                        pre_gst_max=20.0))
        nodes: dict[ProcessId, AlwaysOnNode] = {}
        for pid in self.pids:
            proc = eng.add_process(pid)
            nodes[pid] = AlwaysOnNode("duty")
            proc.add_component(nodes[pid])
        self._meter(
            eng,
            lambda pid: (DinerState.EATING if nodes[pid]._started
                         else DinerState.THINKING),
        )
        eng.run()
        return self._score(eng, "always-on")

    # -- scoring ---------------------------------------------------------------------

    def _score(self, engine: Engine, scheduler: str) -> WSNReport:
        trace = engine.trace
        end = engine.now
        crashes = trace.crash_times()
        schedule = CrashSchedule(crashes)
        duty = {
            pid: eating_intervals(trace, DUTY_INSTANCE, pid, end, schedule)
            for pid in self.pids
        }
        closed_nbhd = {
            pid: [pid] + sorted(self.graph.neighbors(pid)) for pid in self.pids
        }

        def covered(cell: ProcessId, t: Time) -> bool:
            return any(
                a <= t < b
                for n in closed_nbhd[cell]
                for (a, b) in duty[n]
            )

        # Sampled coverage fraction + lifetime (last time of full coverage).
        step = max(end / 400.0, 1.0)
        series: list[tuple[Time, float]] = []
        lifetime = 0.0
        t = 0.0
        while t < end:
            frac = sum(covered(c, t) for c in self.pids) / len(self.pids)
            series.append((t, frac))
            if frac >= self.coverage_threshold:
                lifetime = t
            t += step
        mean_cov = float(np.mean([f for _, f in series])) if series else 0.0

        excl = check_exclusion(trace, self.graph, DUTY_INSTANCE, schedule, end)
        return WSNReport(
            scheduler=scheduler,
            rows=self.rows, cols=self.cols,
            lifetime=lifetime,
            mean_coverage=mean_cov,
            redundancy_violations=excl.count,
            last_redundancy=excl.last_violation_end,
            crash_times=crashes,
            coverage_series=series,
        )
