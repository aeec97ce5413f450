"""Convergence probes: live detector-quality telemetry for one run.

The paper's whole argument is temporal — the extracted oracle must
*eventually* stop suspecting correct processes (and the flaw in the
original construction is a detector that wrongfully suspects infinitely
often) — so pass/fail verdicts alone cannot compare detectors.  These
probes measure *when* and *how much*:

* **wrongful suspicions** — onsets of suspicion of a still-live process
  (the oracle's "mistakes" in the paper's sense, which ◇P must keep
  finite), plus the time of the last one;
* **convergence / stabilization time** — the end of the last wrongful
  suspicion interval, overall (``oracle.converged_at``) and per owning
  process (``oracle.stabilized_at{process=...}``); a run whose wrongful
  suspicions are still open at the horizon reports
  ``oracle.wrongful_open > 0`` and *no* ``converged_at`` gauge;
* **suspicion churn** — total oracle output transitions;
* **hungry → eating latency** — per-session service latency histogram
  (``dining.hungry_to_eating``), the dining-layer cost of oracle quality;
* **witness/subject ping → ack round-trip** — ``core.ping_rtt``, the
  hand-off cost at the heart of the Alg. 1/Alg. 2 reduction.

The probe is a subscriber on the trace *record stream*
(:meth:`repro.sim.trace.Trace.subscribe`): it observes every record as it
is emitted, before any sink decides whether to retain it.  Metrics are
therefore exact under ``ring:N`` and ``counters`` sinks — they never
depend on evicted trace rows — and, being pure arithmetic over the
deterministic event stream, bit-identical between serial and parallel
campaign execution.

Crash ground truth comes from the same stream (``"crash"`` records cover
both scheduled and dynamically injected crashes), so a suspicion onset is
wrongful exactly when its target has not crashed yet at onset time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import TraceRecord
    from repro.types import ProcessId, Time

#: State values mirrored from :class:`repro.types.DinerState` (string form,
#: as recorded in ``"state"`` trace rows).
_HUNGRY = "hungry"
_EATING = "eating"


class RunProbes:
    """Per-run convergence probes feeding a :class:`MetricsRegistry`.

    Subscribe :meth:`on_record` to the engine trace; call
    :meth:`finalize` once, after the run, to publish the end-of-run
    gauges (convergence and stabilization times, open-state counts).
    """

    #: The record kinds :meth:`on_record` dispatches on.  Passed as the
    #: subscription filter so the trace can elide records of other kinds
    #: entirely under non-retaining sinks.
    KINDS = frozenset({"suspect", "state", "crash", "ping", "ack"})

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._finalized = False
        # Oracle state.
        self._crashed: dict["ProcessId", "Time"] = {}
        self._suspected: dict[tuple, bool] = {}
        self._wrongful_open: dict[tuple, "Time"] = {}
        self._last_wrongful_onset: float = 0.0
        self._stabilized_at: dict["ProcessId", float] = {}
        self._converged_at: float = 0.0
        self._c_churn = registry.counter("oracle.suspicion_churn")
        self._c_wrongful = registry.counter("oracle.wrongful_suspicions")
        # Per-detector-label breakdowns: a run may host several labeled
        # suspicion streams (Ω's internal ◇P under "omega.sub", the flawed
        # extraction's substrate under "flawed.sub"), and the lattice
        # compares detectors by their *dining-facing* label only.  The
        # unlabeled aggregates above keep their historical meaning (all
        # labels summed).
        self._c_churn_by: dict[str, object] = {}
        self._c_wrongful_by: dict[str, object] = {}
        self._converged_by: dict[str, float] = {}
        # Dining state.
        self._hungry_since: dict[tuple, "Time"] = {}
        self._c_hungry = registry.counter("dining.hungry_onsets")
        self._c_sessions = registry.counter("dining.sessions")
        self._h_latency = registry.histogram("dining.hungry_to_eating")
        # Witness/subject hand-off state.
        self._ping_at: dict[tuple, "Time"] = {}
        self._c_pings = registry.counter("core.pings")
        self._c_acks = registry.counter("core.acks")
        self._h_rtt = registry.histogram("core.ping_rtt")

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
            self._ping_at[(rec.pid, rec.get("component"))] = rec.time
            self._c_pings.inc()
        elif kind == "ack":
            sent = self._ping_at.pop((rec.pid, rec.get("component")), None)
            self._c_acks.inc()
            if sent is not None:
                self._h_rtt.observe(rec.time - sent)

    # -- oracle --------------------------------------------------------------

    def _label_counter(self, cache: dict, name: str, label) -> "object":
        key = str(label)
        counter = cache.get(key)
        if counter is None:
            counter = cache[key] = self.registry.counter(name, detector=key)
        return counter

    def _on_suspect(self, rec: "TraceRecord") -> None:
        owner = rec.pid
        data = rec.data
        label = data.get("detector")
        key = (owner, data.get("target"), label)
        suspected = bool(data.get("suspected"))
        if not data.get("initial"):
            self._c_churn.inc()
            self._label_counter(self._c_churn_by, "oracle.suspicion_churn",
                                label).inc()
        self._suspected[key] = suspected
        if suspected:
            # An onset is wrongful when the target has not crashed yet —
            # including the initial suspect-everyone state of the paper's
            # extracted modules (matching
            # repro.oracles.properties.false_positive_count).
            if key[1] not in self._crashed:
                self._c_wrongful.inc()
                self._label_counter(self._c_wrongful_by,
                                    "oracle.wrongful_suspicions",
                                    label).inc()
                self._last_wrongful_onset = max(self._last_wrongful_onset,
                                                rec.time)
                self._wrongful_open[key] = rec.time
        else:
            self._close_wrongful(key, rec.time)

    def _close_wrongful(self, key: tuple, t: "Time") -> None:
        if self._wrongful_open.pop(key, None) is None:
            return
        owner = key[0]
        self._stabilized_at[owner] = max(self._stabilized_at.get(owner, 0.0),
                                         float(t))
        self._converged_at = max(self._converged_at, float(t))
        label = str(key[2])
        self._converged_by[label] = max(self._converged_by.get(label, 0.0),
                                        float(t))

    def _on_crash(self, pid: "ProcessId", t: "Time") -> None:
        self._crashed[pid] = t
        # A crash ends every wrongful interval it is part of: suspecting
        # the now-crashed target becomes rightful, and a crashed owner's
        # frozen output stops counting against convergence.
        for key in [k for k in self._wrongful_open
                    if k[0] == pid or k[1] == pid]:
            self._close_wrongful(key, t)

    # -- dining --------------------------------------------------------------

    def _on_state(self, rec: "TraceRecord") -> None:
        data = rec.data
        state = data.get("state")
        key = (rec.pid, data.get("instance"))
        if state == _HUNGRY:
            self._hungry_since[key] = rec.time
            self._c_hungry.inc()
        elif state == _EATING:
            self._c_sessions.inc()
            since = self._hungry_since.pop(key, None)
            if since is not None:
                self._h_latency.observe(rec.time - since)

    # -- end of run ----------------------------------------------------------

    @property
    def converged(self) -> bool:
        """No wrongful suspicion currently open."""
        return not self._wrongful_open

    def convergence_time(self) -> Optional[float]:
        """End of the last wrongful-suspicion interval (0.0 when the
        oracle was never wrong); None while a wrongful suspicion is open."""
        return self._converged_at if self.converged else None

    def finalize(self, end_time: "Time") -> None:
        """Publish the end-of-run gauges.  Idempotent."""
        if self._finalized:
            return
        self._finalized = True
        reg = self.registry
        reg.gauge("oracle.wrongful_open").set(len(self._wrongful_open))
        reg.gauge("oracle.last_wrongful_onset").set(self._last_wrongful_onset)
        if self.converged:
            reg.gauge("oracle.converged_at").set(self._converged_at)
        # Per-label convergence: a label converged iff none of *its*
        # wrongful intervals are still open — the per-detector verdict the
        # lattice matrix reads even when another label in the same run
        # (e.g. a substrate) is still wrong.
        open_by: dict[str, int] = {}
        for key in self._wrongful_open:
            open_by[str(key[2])] = open_by.get(str(key[2]), 0) + 1
        labels = (set(self._c_wrongful_by) | set(self._converged_by)
                  | set(open_by))
        for label in sorted(labels):
            n_open = open_by.get(label, 0)
            reg.gauge("oracle.wrongful_open", detector=label).set(n_open)
            if n_open == 0:
                reg.gauge("oracle.converged_at", detector=label).set(
                    self._converged_by.get(label, 0.0))
        for owner in sorted(self._stabilized_at):
            reg.gauge("oracle.stabilized_at",
                      process=str(owner)).set(self._stabilized_at[owner])
        reg.gauge("dining.hungry_pending").set(len(self._hungry_since))
        reg.gauge("core.pings_outstanding").set(len(self._ping_at))
        reg.gauge("run.end_time").set(float(end_time))
