"""One interval machine over the trace record stream.

The paper's verdicts all hinge on intervals: ◇P's *mistakes* are the
suspicion intervals of a live process, which must be finite; every ◇WX
violation is an overlap of neighbours' eating intervals that a mistake
must justify; fairness counts eating onsets inside hungry intervals.
:class:`IntervalMachine` folds the record stream into those intervals
once, as records are emitted — open suspicion intervals with their
*wrongful* flag, open phase intervals, outstanding pings, the last Ω
leader, a per-pair fold of every suspicion series and, for one judged
dining instance, each diner's eating and hungry intervals.

Three readers share that state: the metrics of :mod:`repro.obs.probes`,
the span rows of :mod:`repro.obs.spans` and the verdict battery of
:mod:`repro.dining.spec`, :mod:`repro.dining.fairness` and
:mod:`repro.oracles.properties`.  The engine subscribes one machine
before any module attaches, so verdicts never depend on whether the
trace keeps its rows; the trace-taking checkers replay
``trace.records()`` through a fresh machine, so each rule has one
implementation online and offline.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.obs.probes import publish_gauges
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import span_dicts
from repro.sim.faults import CrashSchedule, live_at

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.sim.trace import TraceRecord
    from repro.types import ProcessId, Time

#: Phase strings as ``"state"`` rows carry them
#: (:class:`repro.types.DinerState` values).
HUNGRY = "hungry"
EATING = "eating"

#: ``instance`` of a machine that judges no dining instance.
_NO_INSTANCE = object()


class Pair:
    """The fold of one ``(owner, target, detector)`` output series: the
    latest output, when the final run of equal outputs began, the wrongful
    onsets and the first of them that followed a trusting output."""

    __slots__ = ("value", "since", "onsets", "revoked")

    def __init__(self, value: bool, since: "Time") -> None:
        self.value = value
        self.since = since
        self.onsets = 0
        self.revoked: Optional["Time"] = None


class Diner:
    """The fold of one judged diner's ``"state"`` series.

    An eating (hungry) interval opens at a row entering that state and
    closes at the next row leaving it; :meth:`IntervalMachine.finish`
    closes one still open at the horizon.
    """

    __slots__ = ("eat_at", "hungry_at", "last", "eating", "hungry",
                 "onsets", "suspects")

    def __init__(self) -> None:
        self.eat_at: Optional["Time"] = None
        self.hungry_at: Optional["Time"] = None
        self.last: Optional[str] = None
        self.eating: list[tuple["Time", "Time"]] = []
        self.hungry: list[tuple["Time", "Time"]] = []
        #: Every eating onset, and the neighbours suspected at each.
        self.onsets: list["Time"] = []
        self.suspects: list[tuple] = []


class IntervalMachine:
    """The interval fold of one run: feed it records, then :meth:`finish`.

    ``schedule`` seeds the one crash map (a crash row of a process it does
    not name adds to it); ``registry`` receives the probe metrics (a
    private one when None); ``spans`` keeps span rows for :attr:`spans`.
    """

    #: The record kinds :meth:`on_record` folds — the subscription filter,
    #: so the trace calls it for no other kind.
    KINDS = frozenset({"suspect", "state", "crash", "ping", "ack", "leader"})

    def __init__(self, schedule: CrashSchedule | None = None,
                 registry: Optional[MetricsRegistry] = None,
                 spans: bool = False) -> None:
        #: pid -> crash time: the one crash map.
        self.crashed: dict["ProcessId", "Time"] = (
            {} if schedule is None else dict(schedule.items()))
        self.registry = MetricsRegistry() if registry is None else registry
        #: Open suspicion intervals: key -> (onset, wrongful).
        self.open: dict[tuple, tuple["Time", bool]] = {}
        self.pairs: Optional[dict[tuple, Pair]] = {}
        #: Open phase intervals: (pid, instance) -> (start, phase).
        self.phases: dict[tuple, tuple["Time", str]] = {}
        #: Hungry phases a crash closed (still pending service).
        self.hungry_crashed = 0
        #: Outstanding pings: (pid, component) -> send time.
        self.pings: dict[tuple, "Time"] = {}
        #: owner -> (time, leader) of its latest Ω estimate.
        self.leaders: dict["ProcessId", tuple["Time", Any]] = {}
        #: End of the last wrongful interval: global, per owner, per label.
        self.converged_at = 0.0
        self.stabilized_at: dict["ProcessId", float] = {}
        self.converged_by: dict[str, float] = {}
        self.last_wrongful_onset = 0.0
        # The judged dining instance (see judge()).
        self.graph: Optional["nx.Graph"] = None
        self.diners: dict["ProcessId", Diner] = {}
        self.instance: Any = _NO_INSTANCE
        self._label: Optional[str] = None
        self._nbrs: dict["ProcessId", tuple] = {}
        #: Eating onsets whose suspicion snapshot waits for the clock to
        #: pass their time (rows at the same time still count).
        self._unsettled: list[tuple["ProcessId", int]] = []
        self._unsettled_at = 0.0
        self.span_rows: Optional[list[tuple]] = [] if spans else None
        #: The finished span dicts (None unless ``spans``).
        self.spans: Optional[list[dict[str, Any]]] = None
        self.end_time: Optional["Time"] = None
        reg = self.registry
        self._c_churn = reg.counter("oracle.suspicion_churn")
        self._c_wrongful = reg.counter("oracle.wrongful_suspicions")
        # Per-label copies: a run may host several labeled suspicion
        # streams (Ω's internal ◇P under "omega.sub"), and the lattice
        # compares detectors by their dining-facing label only.
        self._churn_by: dict[str, Any] = {}
        self.wrongful_by: dict[str, Any] = {}
        self._c_hungry = reg.counter("dining.hungry_onsets")
        self._c_sessions = reg.counter("dining.sessions")
        self._h_latency = reg.histogram("dining.hungry_to_eating")
        self._c_pings = reg.counter("core.pings")
        self._c_acks = reg.counter("core.acks")
        self._h_rtt = reg.histogram("core.ping_rtt")

    def judge(self, graph: "nx.Graph", instance: str,
              label: Optional[str]) -> "IntervalMachine":
        """Also fold ``instance``'s diners on ``graph``, stamping each eating
        onset with the neighbours its diner suspected under ``label`` (the
        ◇WX justification evidence).  Call before any diner gets hungry."""
        self.graph, self.instance, self._label = graph, instance, label
        self._nbrs = {p: tuple(sorted(graph.neighbors(p))) for p in graph}
        self.diners = {p: Diner() for p in graph}
        return self

    def forgo_verdicts(self) -> None:
        """Stop the per-pair series folds, which only verdicts read: for a
        run nobody judges (a ``counters`` run, by default)."""
        self.pairs = None

    def replay(self, rows: Iterable["TraceRecord"]) -> "IntervalMachine":
        for rec in rows:
            self.on_record(rec)
        return self

    # -- the stream hook -----------------------------------------------------

    def on_record(self, rec: "TraceRecord") -> None:
        kind = rec.kind
        if kind == "suspect":
            self._on_suspect(rec)
        elif kind == "state":
            self._on_state(rec)
        elif kind == "crash":
            self._on_crash(rec.pid, rec.time)
        elif kind == "ping":
            self.pings[(rec.pid, rec.get("component"))] = rec.time
            self._c_pings.inc()
        elif kind == "ack":
            sent = self.pings.pop((rec.pid, rec.get("component")), None)
            self._c_acks.inc()
            if sent is not None:
                self._h_rtt.observe(rec.time - sent)
        elif kind == "leader":
            self.leaders[rec.pid] = (rec.time, rec.data["leader"])

    # -- suspicion -----------------------------------------------------------

    def _label_counter(self, cache: dict, name: str, label: Any) -> Any:
        key = str(label)
        counter = cache.get(key)
        if counter is None:
            counter = cache[key] = self.registry.counter(name, detector=key)
        return counter

    def _on_suspect(self, rec: "TraceRecord") -> None:
        t = rec.time
        if self._unsettled and t > self._unsettled_at:
            self._settle()
        data = rec.data
        label = data.get("detector")
        key = (rec.pid, data.get("target"), label)
        suspected = bool(data.get("suspected"))
        if not data.get("initial"):
            self._c_churn.inc()
            self._label_counter(self._churn_by, "oracle.suspicion_churn",
                                label).inc()
        pairs = self.pairs
        if pairs is not None:
            pair = pairs.get(key)
            first = pair is None
            if first:
                pair = pairs[key] = Pair(suspected, t)
            elif pair.value != suspected:
                pair.value = suspected
                pair.since = t
        if not suspected:
            self._close(key, t)
        elif key not in self.open:
            # The wrongful-onset test: the target had not crashed yet.
            wrongful = live_at(self.crashed, key[1], t)
            self.open[key] = (t, wrongful)
            if wrongful:
                if pairs is not None:
                    pair.onsets += 1
                    if not first and pair.revoked is None:
                        pair.revoked = t
                self._c_wrongful.inc()
                self._label_counter(self.wrongful_by,
                                    "oracle.wrongful_suspicions", label).inc()
                self.last_wrongful_onset = max(self.last_wrongful_onset, t)

    def _close(self, key: tuple, t: "Time") -> None:
        opened = self.open.pop(key, None)
        if opened is None:
            return
        start, wrongful = opened
        t = float(t)
        if wrongful:
            owner, label = key[0], str(key[2])
            self.converged_at = max(self.converged_at, t)
            self.stabilized_at[owner] = max(self.stabilized_at.get(owner, 0.0),
                                            t)
            self.converged_by[label] = max(self.converged_by.get(label, 0.0),
                                           t)
        if self.span_rows is not None:
            self.span_rows.append(("suspicion", start, t, key[0], key[1],
                                   key[2], wrongful, None, None, False))

    def _on_crash(self, pid: "ProcessId", t: "Time") -> None:
        self.crashed.setdefault(pid, t)
        t = float(t)
        rows = self.span_rows
        if rows is not None:
            rows.append(("crash", t, t, pid, None, None, None, None, None,
                         False))
        # Suspecting the now-crashed target becomes rightful (the wrongful
        # interval ends, a justified continuation opens); a crashed
        # owner's frozen output stops producing intervals.
        for key in [k for k in self.open if k[0] == pid or k[1] == pid]:
            self._close(key, t)
            if key[1] == pid:
                self.open[key] = (t, False)
        for pkey in [k for k in self.phases if k[0] == pid]:
            start, phase = self.phases.pop(pkey)
            if phase == HUNGRY:
                self.hungry_crashed += 1
            if rows is not None:
                rows.append(("phase", start, t, pid, None, None, None,
                             pkey[1], phase, False))

    def settled(self, owner: "ProcessId", target: "ProcessId",
                label: Optional[str], value: bool) -> Optional["Time"]:
        """Convergence of one pair to ``value``: when the final run of
        ``value`` outputs began (for ``False``, the end of the pair's last
        suspicion interval); None when the last output differs or the
        pair has none."""
        pair = self.pairs.get((owner, target, label))
        if pair is None or pair.value != value:
            return None
        return pair.since

    def mistakes(self, owner: "ProcessId", target: "ProcessId",
                 label: Optional[str]) -> int:
        """The pair's wrongful onsets."""
        pair = self.pairs.get((owner, target, label))
        return 0 if pair is None else pair.onsets

    @property
    def converged(self) -> bool:
        """No wrongful suspicion currently open."""
        return not any(w for _, w in self.open.values())

    def convergence_time(self) -> Optional[float]:
        """End of the last wrongful-suspicion interval (0.0 when the
        oracle was never wrong); None while a wrongful suspicion is open."""
        return self.converged_at if self.converged else None

    # -- dining --------------------------------------------------------------

    def _on_state(self, rec: "TraceRecord") -> None:
        data = rec.data
        t = rec.time
        pid = rec.pid
        instance = data.get("instance")
        state = data.get("state")
        key = (pid, instance)
        opened = self.phases.pop(key, None)
        if opened is not None and self.span_rows is not None:
            self.span_rows.append(("phase", opened[0], t, pid, None, None,
                                   None, instance, opened[1], False))
        if state == HUNGRY:
            self._c_hungry.inc()
        elif state == EATING:
            self._c_sessions.inc()
            if opened is not None and opened[1] == HUNGRY:
                self._h_latency.observe(t - opened[0])
        if state is not None:
            self.phases[key] = (t, str(state))
        if instance == self.instance:
            diner = self.diners.get(pid)
            if diner is not None:
                self._fold_diner(diner, pid, t, state)

    def _fold_diner(self, d: Diner, pid: "ProcessId", t: "Time",
                    state: Any) -> None:
        if state == EATING:
            if self._unsettled and t > self._unsettled_at:
                self._settle()
            if d.eat_at is None:
                d.eat_at = t
            self._unsettled.append((pid, len(d.onsets)))
            self._unsettled_at = t
            d.onsets.append(t)
            d.suspects.append(())
        elif d.eat_at is not None:
            d.eating.append((d.eat_at, t))
            d.eat_at = None
        if state == HUNGRY:
            if d.hungry_at is None:
                d.hungry_at = t
        elif d.hungry_at is not None:
            d.hungry.append((d.hungry_at, t))
            d.hungry_at = None
        d.last = state

    def _settle(self) -> None:
        pairs, label = self.pairs, self._label
        for pid, i in self._unsettled:
            self.diners[pid].suspects[i] = tuple(
                q for q in self._nbrs[pid]
                if (pair := pairs.get((pid, q, label))) is not None
                and pair.value)
        self._unsettled.clear()

    def justified(self, u: "ProcessId", v: "ProcessId",
                  start: "Time") -> bool:
        """Did either endpoint's latest eating session begun by ``start``
        begin while it suspected the other?  (The ◇WX mechanism:
        simultaneous eating is only ever enabled by an oracle mistake.)"""
        for eater, peer in ((u, v), (v, u)):
            diner = self.diners.get(eater)
            if diner is None:
                continue
            i = bisect_right(diner.onsets, start) - 1
            if i >= 0 and peer in diner.suspects[i]:
                return True
        return False

    # -- end of run ----------------------------------------------------------

    def finish(self, end_time: "Time") -> None:
        """Settle what waits on the clock, publish the end-of-run gauges
        and close the spans at the horizon.  Idempotent."""
        if self.end_time is not None:
            return
        self.end_time = end_time
        if self._unsettled:
            self._settle()
        for d in self.diners.values():
            if d.eat_at is not None:
                d.eating.append((d.eat_at, max(end_time, d.eat_at)))
            if d.hungry_at is not None:
                d.hungry.append((d.hungry_at, max(end_time, d.hungry_at)))
        publish_gauges(self, end_time)
        if self.span_rows is not None:
            self.spans = span_dicts(self, end_time)
