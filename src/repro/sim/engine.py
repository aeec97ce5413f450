"""The discrete-event simulation engine.

The engine owns the global clock, the event queue, the network, the trace,
and the process table.

Every heap entry is ``(t, seq, handler, arg)``: at virtual time ``t`` the
run loop calls ``handler(arg)``.  ``seq`` is a per-engine counter, unique
per entry, so entries order by time then by push order and never compare
past ``seq``.  Handlers are stable objects (methods bound once per engine
or transport, or the module-level ``_call``), and only the engine, the
network and the transport push entries:

* ``Engine._on_step``, arg a :class:`~repro.sim.process.Process` — it
  executes one atomic guarded-action step, then its next step is
  scheduled after a random per-process delay (asynchrony: relative
  process speeds are unbounded across processes but every correct process
  keeps taking steps — the paper's liveness assumption);
* ``Engine._on_deliver``, arg a :class:`~repro.types.Message` — the
  message reaches its destination's inbox (or the transport, for a wire
  envelope);
* ``Engine._on_crash``, arg a ``Process`` — it ceases execution
  permanently;
* ``ReliableTransport._on_timer``, arg an unacked message's record — a
  retransmission timer (see :mod:`repro.sim.transport`);
* ``_call``, arg a no-argument callable — an experiment-driver callback
  from :meth:`Engine.schedule_call` (environment only).

Typical usage::

    cfg = SimConfig(seed=7, max_time=2_000)
    eng = Engine(cfg, delay_model=AsynchronousDelays(),
                 crash_schedule=CrashSchedule.single("q", at=300.0))
    p = eng.add_process("p"); q = eng.add_process("q")
    ... attach components ...
    eng.run()          # to cfg.max_time
    eng.trace          # inspect
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.obs.intervals import IntervalMachine
from repro.obs.registry import MetricsRegistry, MetricsSnapshot
from repro.sim.clock import Clock
from repro.sim.faults import CrashSchedule
from repro.sim.link_faults import LinkFaultModel
from repro.sim.network import AsynchronousDelays, DelayModel, Network
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import StepPolicy
from repro.sim.trace import Trace
from repro.sim.transport import TRANSPORT_TAG as _TRANSPORT_TAG
from repro.types import Message, ProcessId, Time


#: Bounds of the delay between consecutive steps of a process, scaled by
#: that process's ``SimConfig.speeds`` factor (default 1.0).
STEP_MIN: Time = 0.4
STEP_MAX: Time = 1.2
#: Hard cap on the events one run processes, as a runaway guard.
MAX_EVENTS = 50_000_000
#: :meth:`Engine.run` polls its ``stop_when`` once per this many events.
STOP_CHECK_EVERY = 64


@dataclass
class SimConfig:
    """Knobs for a simulation run.

    A process waits between :data:`STEP_MIN` and :data:`STEP_MAX` between
    consecutive steps, scaled by its ``speeds`` factor (default 1.0).
    Unequal speed factors model unbounded *relative* process speeds.
    """

    seed: int = 0
    max_time: Time = 10_000.0
    record_messages: bool = False
    speeds: Mapping[ProcessId, float] = field(default_factory=dict)
    #: Optional step-scheduling policy; overrides STEP_MIN/STEP_MAX when set
    #: (the per-process ``speeds`` factor still applies on top).
    step_policy: Optional[StepPolicy] = None
    #: Trace retention: ``"full"`` keeps every row, ``"counters"`` keeps
    #: none and bounds trace memory on long runs (see :class:`Trace`).
    trace_sink: str = "full"
    #: Publish the convergence probes (:mod:`repro.obs.probes`) to the
    #: run's registry.  The metrics registry itself always exists (network
    #: and transport counters live in it); this knob only controls the
    #: detector-quality probes.
    obs: bool = True
    #: Keep typed spans (:mod:`repro.obs.spans`) of the trace stream:
    #: per-pair suspicion intervals, dining phases, crash points, the
    #: convergence marker.  Off by default — spans retain one tuple per
    #: interval for the whole run, where the probes keep only open
    #: intervals and per-pair state.
    spans: bool = False


class Engine:
    """Event loop for one simulated run."""

    def __init__(
        self,
        config: SimConfig | None = None,
        delay_model: DelayModel | None = None,
        crash_schedule: CrashSchedule | None = None,
        fault_model: "LinkFaultModel | None" = None,
    ) -> None:
        self.config = config or SimConfig()
        self.clock = Clock()
        self.rng = RngRegistry(self.config.seed)
        #: Per-run metrics registry: network/transport counters plus (when
        #: ``config.obs``) the convergence probes all report here.
        self.registry = MetricsRegistry()
        self.trace = Trace(self.config.trace_sink)
        # A C-level reader of the clock slot: no Python frame per record.
        self.trace.bind_clock(
            functools.partial(operator.attrgetter("_now"), self.clock))
        self.crash_schedule = crash_schedule or CrashSchedule.none()
        #: The run's one trace subscriber, there before any module
        #: attaches: the interval fold the probes (when ``config.obs``),
        #: the spans (when ``config.spans``) and the verdicts all read.
        self.intervals = IntervalMachine(
            self.crash_schedule,
            self.registry if self.config.obs else None,
            spans=self.config.spans)
        self.trace.subscribe(self.intervals.on_record,
                             kinds=IntervalMachine.KINDS)
        self.network = Network(delay_model or AsynchronousDelays(),
                               fault_model=fault_model)
        self.network.bind(self)
        self.processes: dict[ProcessId, Process] = {}
        self._heap: list[
            tuple[Time, int, Callable[[object], None], object]] = []
        self._seq = itertools.count()
        # The heap-entry handlers, bound once (see the module docstring).
        self._on_step = self._do_step
        self._on_deliver = self._do_deliver
        self._on_crash = self._do_crash
        self.events_processed = 0
        self._stopped = False
        # Per-process step-scheduling cache, populated lazily on first step:
        # process -> (random, lo, span, speed) with no step policy, where
        # ``random`` draws from the process's ``step:{pid}`` stream;
        # process -> (rng, None, None, speed) under a policy, ``rng`` being
        # that stream.
        self._step_cache: dict[Process, tuple] = {}

    # -- construction ---------------------------------------------------------

    def add_process(self, pid: ProcessId) -> Process:
        """Create and register a process; its step loop starts immediately."""
        if pid in self.processes:
            raise ConfigurationError(f"duplicate process id {pid!r}")
        proc = Process(pid)
        proc.bind(self)
        self.processes[pid] = proc
        jitter = self.rng.stream(f"step:{pid}").uniform(0.0, STEP_MAX)
        self._push(self.clock.now + jitter, self._on_step, proc)
        crash_at = self.crash_schedule.crash_time(pid)
        if crash_at is not None:
            self._push(crash_at, self._on_crash, proc)
        return proc

    def process(self, pid: ProcessId) -> Process:
        try:
            return self.processes[pid]
        except KeyError:
            raise ConfigurationError(f"unknown process {pid!r}") from None

    # -- scheduling (engine/network internal + experiment drivers) ---------------

    def schedule_call(self, at: Time, fn: Callable[[], None]) -> None:
        """Run an environment callback at virtual time ``at`` (not before
        now)."""
        self._push(self._not_past(at, "schedule_call"), _call, fn)

    def inject_crash(self, pid: ProcessId, at: Time | None = None) -> None:
        """Crash registered process ``pid`` at time ``at`` (default: now).

        For dynamically-determined faults (e.g. energy depletion in the WSN
        application) that cannot be declared in the upfront
        :class:`~repro.sim.faults.CrashSchedule`.  Ground truth for trace
        checkers is then ``trace.crash_times()``.
        """
        proc = self.process(pid)
        at = self.clock.now if at is None else self._not_past(
            at, f"inject_crash({pid!r})")
        self._push(at, self._on_crash, proc)

    def _not_past(self, at: Time, what: str) -> Time:
        if at < self.clock.now:
            raise ConfigurationError(
                f"{what}: time {at} is before now ({self.clock.now})")
        return at

    def stop(self) -> None:
        """Halt the run after the current event."""
        self._stopped = True

    # -- running ------------------------------------------------------------------

    def run(
        self,
        until: Time | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> Trace:
        """Process events until ``until`` (default ``config.max_time``).

        ``stop_when`` is polled every :data:`STOP_CHECK_EVERY` processed
        events and ends the run early when it returns True.
        """
        horizon = self.config.max_time if until is None else float(until)
        self._stopped = False
        since_check = 0
        # Hot loop: locals for everything touched per event, the entry's
        # own handler called directly, clock advanced by direct slot write
        # after the same backwards check Clock.advance_to performs.  The
        # event counter is kept in a local and synced back in the finally
        # block so it stays correct when a handler raises.
        heap = self._heap
        pop = heapq.heappop
        clock = self.clock
        cap = MAX_EVENTS
        check_every = STOP_CHECK_EVERY
        events = self.events_processed
        try:
            while heap and not self._stopped:
                if heap[0][0] > horizon:
                    break
                t, _, handler, arg = pop(heap)
                if t < clock._now:
                    raise SimulationError(
                        f"clock cannot move backwards: {t} < {clock._now}"
                    )
                clock._now = t
                handler(arg)
                events += 1
                if events >= cap:
                    raise SimulationError(
                        f"event cap exceeded ({cap}) "
                        f"after {self.trace.total_recorded} trace records "
                        "— runaway simulation? (infinite action loop, or a "
                        "retransmission storm — check transport "
                        "backoff/rto_max)"
                    )
                since_check += 1
                if stop_when is not None and since_check >= check_every:
                    since_check = 0
                    if stop_when():
                        break
        finally:
            self.events_processed = events
        # Land the clock on the horizon so back-to-back run() calls resume
        # cleanly and open state intervals close at the right time.
        if not self._stopped and (stop_when is None) and horizon >= self.clock.now:
            self.clock.advance_to(horizon)
        return self.trace

    # -- queries --------------------------------------------------------------------

    def live_pids(self) -> list[ProcessId]:
        return [pid for pid, p in self.processes.items() if not p.crashed]

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Freeze the run's metrics (finishing the interval fold first)."""
        self.intervals.finish(self.clock.now)
        return self.registry.snapshot()

    @property
    def now(self) -> Time:
        return self.clock.now

    # -- internals --------------------------------------------------------------------

    def _push(self, t: Time, handler: Callable[[object], None],
              arg: object) -> None:
        heapq.heappush(self._heap, (t, next(self._seq), handler, arg))

    def _step_state(self, proc: Process) -> tuple:
        """Build (and cache) the per-process step-scheduling entry."""
        pid = proc.pid
        config = self.config
        policy = config.step_policy
        speed = float(config.speeds.get(pid, 1.0))
        rng = self.rng.stream(f"step:{pid}")
        if policy is None:
            entry: tuple = (rng.random, STEP_MIN, STEP_MAX - STEP_MIN, speed)
        else:
            entry = (rng, None, None, speed)
        self._step_cache[proc] = entry
        return entry

    def _do_step(self, proc: Process) -> None:
        if proc.crashed:
            return
        proc.step()
        entry = self._step_cache.get(proc)
        if entry is None:
            entry = self._step_state(proc)
        draw, lo, span, speed = entry
        now = self.clock._now
        if span is None:
            delay = self.config.step_policy.next_delay(proc.pid, now, draw)
        else:
            # numpy's scalar uniform(lo, hi), on the batched stream.
            delay = lo + span * draw()
        heapq.heappush(self._heap, (now + delay * speed, next(self._seq),
                                    self._on_step, proc))

    def _do_deliver(self, msg: Message) -> None:
        proc = self.processes.get(msg.receiver)
        if proc is None:
            raise SimulationError(f"message to unknown process {msg.receiver!r}")
        if proc.crashed:
            return
        network = self.network
        transport = network.transport
        if transport is not None and msg.tag == _TRANSPORT_TAG:
            transport.on_wire_deliver(msg)
            return
        # Direct path: the receiver is already resolved and live, so hand
        # over inline (deliver_payload would repeat both lookups).  Inbox
        # buckets are keyed by tag (see Process._inbox).
        inbox = proc._inbox
        bucket = inbox.get(msg.tag)
        if bucket is None:
            inbox[msg.tag] = [msg]
        else:
            bucket.append(msg)
        proc._inbox_count += 1
        network._c_delivered.value += 1.0
        if self.config.record_messages:
            self.trace.record(
                "deliver", pid=msg.receiver, frm=msg.sender, tag=msg.tag,
                msg_kind=msg.kind, uid=msg.uid,
            )

    def deliver_payload(self, msg: Message) -> None:
        """Hand an application message to its (live) receiver's inbox.

        Called by the transport after envelope dedup (the raw-channel
        direct path is inlined in :meth:`_do_deliver`); either way the
        ``delivered`` count and ``deliver`` trace rows are produced in
        exactly one place per path, so metrics mean the same thing with
        or without a transport installed.
        """
        proc = self.processes.get(msg.receiver)
        if proc is None or proc.crashed:
            return
        proc.deliver(msg)
        self.network._c_delivered.value += 1.0
        if self.config.record_messages:
            self.trace.record(
                "deliver", pid=msg.receiver, frm=msg.sender, tag=msg.tag,
                msg_kind=msg.kind, uid=msg.uid,
            )

    def _do_crash(self, proc: Process) -> None:
        if not proc.crashed:
            proc.crash(self.clock.now)
            self.trace.record("crash", pid=proc.pid)


def _call(fn: Callable[[], None]) -> None:
    """Heap-entry handler for :meth:`Engine.schedule_call` callbacks."""
    fn()
