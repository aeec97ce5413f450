"""The uniform envelope for one run's outcome.

A :class:`RunResult` bundles everything downstream consumers read off a
finished run: the four dining/oracle verdicts, run metrics, the end time,
and a handle on the trace.  A chaos
``RunVerdict`` from ``run_one`` carries one as its ``report``;
:meth:`RunResult.render` is the table ``repro scenario`` and ``repro
chaos --replay`` print.

:func:`result_payload` is the one stored form of a run: what every
surface (``repro sweep``, ``repro chaos`` / ``lattice``, ``repro serve``)
puts in the :class:`~repro.runtime.store.ResultStore` under the run's
spec key, and the only thing any of them reads back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, TYPE_CHECKING

from repro.dining.fairness import FairnessReport
from repro.dining.spec import ExclusionReport, WaitFreedomReport
from repro.obs.exporters import run_record
from repro.obs.registry import MetricsSnapshot
from repro.sim.metrics import RunMetrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import Trace

#: Schema tag on every stored / served result payload.
RESULT_SCHEMA = "repro.result.v1"


@dataclass
class RunResult:
    """Verdicts + metrics + trace handle for one executed :class:`RunSpec`.

    Verdict fields are ``None`` when the run was executed unchecked (by
    default, a ``counters`` run); :attr:`checked` distinguishes
    "all invariants verified" from "nothing was verified".
    """

    name: str = "run"
    seed: int = 0
    end_time: float = 0.0
    metrics: Optional[RunMetrics] = None
    #: Full metric snapshot (:mod:`repro.obs`): traffic counters plus, when
    #: the spec's ``obs`` knob is on, detector-quality probes (convergence
    #: time, wrongful suspicions, latency histograms).  Plain data — it
    #: pickles across the worker pool and serializes via ``to_dict``.
    obs: Optional[MetricsSnapshot] = None
    wait_freedom: Optional[WaitFreedomReport] = None
    exclusion: Optional[ExclusionReport] = None
    fairness: Optional[FairnessReport] = None
    #: Box-oracle verdicts: the accuracy and completeness its detector
    #: class claims, judged online over the whole record stream.
    oracle_accuracy_ok: Optional[bool] = None
    oracle_completeness_ok: Optional[bool] = None
    #: The ◇WX mechanism check: every exclusion violation must be
    #: *oracle-justified* — at least one endpoint's eating session began
    #: while it suspected the other.  (The later entrant cannot hold the
    #: shared fork, since forks never leave an eater, so an unjustified
    #: violation means the dining layer itself double-granted an edge.)
    #: Unlike a fixed convergence deadline this is robust to legitimate
    #: late ◇P mistakes, which become rarer but may occur arbitrarily
    #: deep into a finite run.
    violations_justified: Optional[bool] = None
    #: Handle on the run's trace.  Dropped (``None``) when results cross a
    #: worker-process boundary in parallel campaigns — verdicts and
    #: metrics travel, bulk event history does not.
    trace: "Optional[Trace]" = None
    #: Content address of the spec that produced this result
    #: (:func:`repro.runtime.store.spec_hash`): the key the run is cached
    #: under in a :class:`~repro.runtime.store.ResultStore`.  Stamped by
    #: :func:`~repro.runtime.builder.execute`; kept out of :meth:`summary`
    #: so run records stay comparable across store/no-store campaigns.
    spec_key: Optional[str] = None
    #: Typed spans (:mod:`repro.obs.spans`) when the spec's ``spans`` knob
    #: was on: per-pair suspicion intervals, dining phases, crash points,
    #: convergence marker — plain dicts, so they pickle across the worker
    #: pool and survive :meth:`detach_trace`.  Kept out of :meth:`summary`
    #: (the determinism-comparison surface) — export them with
    #: :meth:`span_records` / ``--spans-out`` instead.
    spans: Optional[list] = None

    @property
    def checked(self) -> bool:
        """True when the invariant battery actually ran for this result."""
        return self.wait_freedom is not None

    @property
    def ok(self) -> bool:
        return self.checked and self.wait_freedom.ok

    def span_records(self) -> list[dict[str, Any]]:
        """This run's ``repro.span.v1`` JSONL records (empty when the
        spec's ``spans`` knob was off)."""
        from repro.obs.spans import span_records

        if self.spans is None:
            return []
        return span_records(self.name, self.seed, self.end_time, self.spans)

    def detach_trace(self) -> "RunResult":
        """Drop the trace handle (cheap to pickle across process pools)."""
        self.trace = None
        return self

    # -- detector-quality conveniences (from the obs snapshot) ---------------

    @property
    def convergence_time(self) -> Optional[float]:
        """End of the last wrongful-suspicion interval (◇P convergence);
        None when obs is off or a wrongful suspicion was still open."""
        return None if self.obs is None \
            else self.obs.gauge_value("oracle.converged_at")

    @property
    def wrongful_suspicions(self) -> Optional[int]:
        return None if self.obs is None \
            else int(self.obs.counter_value("oracle.wrongful_suspicions"))

    @property
    def suspicion_churn(self) -> Optional[int]:
        return None if self.obs is None \
            else int(self.obs.counter_value("oracle.suspicion_churn"))

    def detector_stats(self, label: str) -> Optional[dict[str, Any]]:
        """Per-detector-label probe readings for one suspicion stream.

        A run may host several labeled streams (the dining-facing
        detector plus e.g. Ω's internal ◇P under ``omega.sub``); the
        lattice compares detectors by their dining-facing label only.
        Returns None when obs was off.
        """
        if self.obs is None:
            return None
        from repro.obs.registry import escape_label_value

        suffix = '{detector="' + escape_label_value(label) + '"}'
        open_gauge = self.obs.gauge_value("oracle.wrongful_open" + suffix)
        return {
            "detector": label,
            "wrongful_suspicions": int(self.obs.counter_value(
                "oracle.wrongful_suspicions" + suffix)),
            "suspicion_churn": int(self.obs.counter_value(
                "oracle.suspicion_churn" + suffix)),
            "wrongful_open": (None if open_gauge is None
                              else int(open_gauge)),
            "converged_at": self.obs.gauge_value(
                "oracle.converged_at" + suffix),
        }

    def summary(self) -> dict[str, Any]:
        """Flat, JSON-serializable digest used by determinism comparisons.

        Every field is present in every mode: verdict fields are ``None``
        on unchecked runs, cost fields are ``None`` when no
        :class:`RunMetrics` was collected, convergence fields are ``None``
        when the ``obs`` knob was off.  Every view a campaign surface
        prints (sweep statistics, the chaos verdict, a lattice cell) is a
        function of the spec and this dict, which is why the dict is all
        the store keeps of a run's verdicts.
        """
        m = self.metrics
        return {
            "name": self.name,
            "seed": self.seed,
            "end_time": self.end_time,
            "checked": self.checked,
            "ok": self.ok if self.checked else None,
            "wait_free": self.wait_freedom.ok if self.checked else None,
            "starving": (list(self.wait_freedom.starving)
                         if self.checked else None),
            "max_hungry_wait": (round(self.wait_freedom.max_wait, 6)
                                if self.checked else None),
            "exclusion_violations": (self.exclusion.count
                                     if self.checked else None),
            # End of the latest exclusion violation (None when the run was
            # unchecked or violation-free): the ◇WX quiet-suffix evidence
            # the lattice verdict reads.
            "last_violation_end": (self.exclusion.last_violation_end
                                   if self.checked else None),
            "violations_justified": self.violations_justified,
            "worst_overtaking": (self.fairness.worst_overall()
                                 if self.checked else None),
            "oracle_accuracy_ok": self.oracle_accuracy_ok,
            "oracle_completeness_ok": self.oracle_completeness_ok,
            "messages_sent": None if m is None else m.messages_sent,
            "messages_dropped": None if m is None else m.messages_dropped,
            "messages_duplicated": None if m is None else m.messages_duplicated,
            "retransmissions": None if m is None else m.retransmissions,
            "events_processed": None if m is None else m.events_processed,
            "convergence_time": self.convergence_time,
            "wrongful_suspicions": self.wrongful_suspicions,
            "suspicion_churn": self.suspicion_churn,
        }

    def render(self) -> str:
        """The property/value table ``repro scenario`` prints."""
        from repro.analysis.report import Table

        m = self.metrics
        traffic = [["messages sent", m.messages_sent],
                   ["messages dropped", m.messages_dropped],
                   ["messages duplicated", m.messages_duplicated],
                   ["retransmissions", m.retransmissions]]
        title, footer = f"scenario: {self.name}", ""
        if self.checked:
            wf, ex = self.wait_freedom, self.exclusion
            rows = [["wait-free", wf.ok],
                    ["starving", ", ".join(wf.starving) or None],
                    ["max hungry wait", wf.max_wait],
                    ["exclusion violations", ex.count],
                    ["last violation ends", ex.last_violation_end],
                    ["perpetually exclusive", ex.perpetual_ok],
                    ["oracle accuracy ok", self.oracle_accuracy_ok],
                    ["oracle completeness ok", self.oracle_completeness_ok],
                    ["violations justified", self.violations_justified],
                    ["worst overtaking", self.fairness.worst_overall()],
                    *traffic]
            footer = "\nsessions: " + ", ".join(
                f"{p}:{n}" for p, n in sorted(wf.sessions.items()))
        else:
            # Unchecked (by default, a counters run): no verdicts —
            # render the cost/telemetry side only.
            title += " (unchecked)"
            rows = [*traffic,
                    ["events processed", m.events_processed],
                    ["convergence time", self.convergence_time]]
        table = Table(["property", "value"], title=title)
        for row in rows + [["virtual time", self.end_time]]:
            table.add_row(row)
        return table.render() + footer


def result_payload(result: RunResult) -> dict[str, Any]:
    """The ``repro.result.v1`` envelope for one executed run: its spec
    key and its ``repro.run.v1`` record, plus its ``repro.span.v1``
    records exactly when the spec's ``spans`` knob collected them."""
    payload = {
        "schema": RESULT_SCHEMA,
        "spec_key": result.spec_key,
        "record": run_record(result),
    }
    if result.spans is not None:
        payload["spans"] = result.span_records()
    return payload
