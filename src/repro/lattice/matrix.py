"""The cross-detector telemetry matrix: cells, rows, verdicts, rendering.

One :class:`LatticeCell` per ``(detector, run seed)`` — the detector's
dining-facing telemetry for one seeded chaos scenario.  One
:class:`DetectorRow` per registered detector.  The whole
:class:`LatticeResult` renders three ways:

* ``to_records()`` — ``repro.lattice.v1`` JSONL (one ``cell`` record per
  run plus one ``detector`` aggregate record per row), deterministic and
  byte-identical between serial and parallel execution;
* ``render()`` — the ASCII comparison table plus the dominance grid;
* ``to_svg()`` — the dominance grid as an SVG heat-map
  (:func:`repro.analysis.svg.render_svg_grid`).

The per-cell **◇WX verdict** is the lattice's core judgment.  A cell
passes (``ewx_ok``) iff

1. every exclusion violation was *oracle-justified* (an eating session
   began under suspicion of the other endpoint — the run-level mechanism
   check), **and**
2. the run's violations actually *stop*: no violation extends into the
   final ``quiet_fraction`` of the run.

Condition 2 is what separates Ω from ◇P.  An Ω-driven run keeps
violating exclusion forever — every non-leader pair suspects each other,
so every violation is trivially "justified" — while satisfying the Ω
specification perfectly.  Judged by condition 1 alone it would pass;
the quiet-suffix test exposes that its violations never become finite,
which is exactly the sense in which Ω is too weak for wait-free dining
under ◇WX.  Conversely the flawed [8] extraction fails ◇P accuracy
*and* keeps violating, flagging it as the corrigendum's negative
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.analysis.report import Table
from repro.obs.registry import escape_label_value

#: Schema tag stamped on every lattice JSONL record.
LATTICE_SCHEMA = "repro.lattice.v1"

#: Default quiet-suffix fraction: a run is eventually exclusive when no
#: violation reaches into its last quarter.
QUIET_FRACTION = 0.25


def _label_key(name: str, label: str) -> str:
    return name + '{detector="' + escape_label_value(label) + '"}'


@dataclass(frozen=True)
class LatticeCell:
    """One detector's dining-facing telemetry for one seeded run."""

    detector: str
    run_seed: int
    graph: str
    checked: bool
    wait_free: Optional[bool]
    exclusion_violations: Optional[int]
    last_violation_end: Optional[float]
    violations_justified: Optional[bool]
    accuracy_ok: Optional[bool]
    completeness_ok: Optional[bool]
    #: Per-dining-label convergence time (None while wrongful suspicions
    #: of the dining-facing stream are still open at the horizon).
    converged_at: Optional[float]
    wrongful_suspicions: int
    suspicion_churn: int
    messages_sent: Optional[int]
    end_time: float
    #: The lattice ◇WX verdict: justified violations *and* a quiet suffix.
    ewx_ok: bool

    def to_record(self) -> dict[str, Any]:
        return {
            "schema": LATTICE_SCHEMA,
            "kind": "cell",
            "detector": self.detector,
            "run_seed": self.run_seed,
            "graph": self.graph,
            "checked": self.checked,
            "wait_free": self.wait_free,
            "exclusion_violations": self.exclusion_violations,
            "last_violation_end": self.last_violation_end,
            "violations_justified": self.violations_justified,
            "accuracy_ok": self.accuracy_ok,
            "completeness_ok": self.completeness_ok,
            "converged_at": self.converged_at,
            "wrongful_suspicions": self.wrongful_suspicions,
            "suspicion_churn": self.suspicion_churn,
            "messages_sent": self.messages_sent,
            "end_time": self.end_time,
            "ewx_ok": self.ewx_ok,
        }


def cell_from_record(detector: str, label: str, record: Mapping[str, Any],
                     quiet_fraction: float = QUIET_FRACTION) -> LatticeCell:
    """Build one cell from a chaos ``run_record`` (the ``repro.run.v1``
    JSONL shape: flat ``summary``, chaos ``verdict`` block, full
    ``metrics`` snapshot).

    Detector-quality numbers come from the *labeled* probe series for the
    detector's dining-facing label, so Ω's internal ◇P mistakes (labeled
    ``omega.sub``) never launder its own output's quality — and older
    records without labeled series fall back to the unlabeled aggregates.
    """
    summary = record.get("summary") or {}
    verdict = record.get("verdict") or {}
    metrics = record.get("metrics") or {}
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}

    checked = bool(summary.get("checked"))
    end_time = float(summary.get("end_time") or 0.0)
    last_end = verdict.get("last_violation_end")
    if last_end is None and summary.get("exclusion_violations"):
        # Pre-lattice stored verdicts lack the field; treat a violating
        # run without quiet-suffix evidence as not-quiet rather than
        # silently passing it.
        last_end = end_time
    justified = summary.get("violations_justified")
    quiet = (last_end is None
             or last_end <= end_time * (1.0 - float(quiet_fraction)))
    ewx_ok = bool(checked and justified and quiet)

    wrongful = counters.get(_label_key("oracle.wrongful_suspicions", label))
    churn = counters.get(_label_key("oracle.suspicion_churn", label))
    converged = gauges.get(_label_key("oracle.converged_at", label))
    if wrongful is None:
        wrongful = summary.get("wrongful_suspicions") or 0
    if churn is None:
        churn = summary.get("suspicion_churn") or 0
    if converged is None and not wrongful:
        # Never wrong at all (e.g. P in a clean run): converged from the
        # start — no labeled gauge exists because no wrongful interval
        # ever opened or closed.
        converged = 0.0

    msgs = summary.get("messages_sent")
    return LatticeCell(
        detector=detector,
        run_seed=int(verdict.get("run_seed", summary.get("seed", 0))),
        graph=str(verdict.get("graph", "")),
        checked=checked,
        wait_free=summary.get("wait_free"),
        exclusion_violations=summary.get("exclusion_violations"),
        last_violation_end=(None if last_end is None else float(last_end)),
        violations_justified=justified,
        accuracy_ok=summary.get("oracle_accuracy_ok"),
        completeness_ok=summary.get("oracle_completeness_ok"),
        converged_at=(None if converged is None else float(converged)),
        wrongful_suspicions=int(wrongful),
        suspicion_churn=int(churn),
        messages_sent=(None if msgs is None else int(msgs)),
        end_time=end_time,
        ewx_ok=ewx_ok,
    )


@dataclass
class DetectorRow:
    """One detector's column of the lattice: all cells plus aggregates."""

    name: str
    label: str
    summary: str
    cells: list[LatticeCell] = field(default_factory=list)

    @property
    def ewx_pass_seeds(self) -> frozenset:
        return frozenset(c.run_seed for c in self.cells if c.ewx_ok)

    @property
    def ewx_failures(self) -> list[LatticeCell]:
        return [c for c in self.cells if not c.ewx_ok]

    @property
    def ewx_ok(self) -> bool:
        """◇WX on *every* seed — the wait-free-dining sufficiency verdict."""
        return bool(self.cells) and all(c.ewx_ok for c in self.cells)

    @property
    def accuracy_ok(self) -> bool:
        """The claimed accuracy property held on every checked seed."""
        return all(c.accuracy_ok is not False for c in self.cells)

    @property
    def wrongful_total(self) -> int:
        return sum(c.wrongful_suspicions for c in self.cells)

    @property
    def churn_total(self) -> int:
        return sum(c.suspicion_churn for c in self.cells)

    @property
    def messages_total(self) -> int:
        return sum(c.messages_sent or 0 for c in self.cells)

    @property
    def violations_total(self) -> int:
        return sum(c.exclusion_violations or 0 for c in self.cells)

    def convergence_times(self) -> list[float]:
        return [c.converged_at for c in self.cells
                if c.converged_at is not None]

    def mean_convergence(self) -> Optional[float]:
        """Mean dining-facing convergence time over the seeds that
        converged; None when no seed did (e.g. Ω, wrong forever)."""
        times = self.convergence_times()
        if not times or len(times) != len(self.cells):
            return None
        return sum(times) / len(times)

    def to_record(self) -> dict[str, Any]:
        mean = self.mean_convergence()
        return {
            "schema": LATTICE_SCHEMA,
            "kind": "detector",
            "detector": self.name,
            "label": self.label,
            "runs": len(self.cells),
            "ewx_passes": sum(c.ewx_ok for c in self.cells),
            "ewx_ok": self.ewx_ok,
            "accuracy_ok": self.accuracy_ok,
            "mean_convergence": (None if mean is None else round(mean, 6)),
            "wrongful_suspicions": self.wrongful_total,
            "suspicion_churn": self.churn_total,
            "messages_sent": self.messages_total,
            "exclusion_violations": self.violations_total,
        }


#: Dominance-grid symbols: row vs column on per-seed ◇WX pass sets.
EQ, GE, LE, INCOMPARABLE = "=", ">=", "<=", "||"


def dominance_symbol(a: frozenset, b: frozenset) -> str:
    """Partial-order comparison of two per-seed ◇WX pass sets."""
    if a == b:
        return EQ
    if a >= b:
        return GE
    if a <= b:
        return LE
    return INCOMPARABLE


@dataclass
class LatticeResult:
    """The full comparison: every compared detector over identical
    seeded chaos scenarios."""

    rows: list[DetectorRow]
    graphs: Sequence[str]
    seeds: int
    seed: int
    quiet_fraction: float = QUIET_FRACTION

    def row(self, detector: str) -> DetectorRow:
        for r in self.rows:
            if r.name == detector:
                return r
        raise KeyError(detector)

    def to_records(self) -> list[dict[str, Any]]:
        """The ``repro.lattice.v1`` JSONL records: all cells in (detector,
        run) order, then the per-detector aggregates."""
        records = [c.to_record() for r in self.rows for c in r.cells]
        records.extend(r.to_record() for r in self.rows)
        return records

    def dominance(self) -> dict[tuple[str, str], str]:
        """Pairwise partial order on per-seed ◇WX pass sets: ``(a, b) ->
        symbol`` meaning "a's pass set {=, >=, <=, ||} b's"."""
        return {
            (a.name, b.name): dominance_symbol(a.ewx_pass_seeds,
                                               b.ewx_pass_seeds)
            for a in self.rows for b in self.rows
        }

    def render_dominance(self) -> str:
        """The dominance grid as an aligned text matrix."""
        grid = self.dominance()
        table = Table(["vs"] + [r.name for r in self.rows],
                      title="◇WX dominance (row vs column, per-seed pass "
                            "sets: = same, >= dominates, <= dominated, "
                            "|| incomparable)")
        for a in self.rows:
            table.add_row([a.name]
                          + [grid[(a.name, b.name)] for b in self.rows])
        return table.render()

    def render(self) -> str:
        """The comparison table plus the dominance grid."""
        table = Table(
            ["detector", "ewx", "conv", "wrongful", "churn", "viol",
             "msgs", "accuracy"],
            title=(f"detector lattice: {self.seeds} seeded runs over "
                   f"{', '.join(self.graphs)} (base seed {self.seed}; "
                   f"◇WX = justified violations + quiet last "
                   f"{int(self.quiet_fraction * 100)}%)"),
        )
        for r in self.rows:
            mean = r.mean_convergence()
            table.add_row([
                r.name,
                f"{sum(c.ewx_ok for c in r.cells)}/{len(r.cells)}",
                "never" if mean is None else f"{mean:.1f}",
                r.wrongful_total,
                r.churn_total,
                r.violations_total,
                r.messages_total,
                "ok" if r.accuracy_ok else "VIOLATED",
            ])
        return table.render() + "\n\n" + self.render_dominance()

    def to_svg(self) -> str:
        """The dominance grid as an SVG heat-map."""
        from repro.analysis.svg import render_svg_grid

        grid = self.dominance()
        names = [r.name for r in self.rows]
        passes = {r.name: f"{sum(c.ewx_ok for c in r.cells)}/{len(r.cells)}"
                  for r in self.rows}
        return render_svg_grid(
            names, [f"{n} ({passes[n]})" for n in names],
            [[grid[(a, b)] for b in names] for a in names],
            title=(f"◇WX dominance over {', '.join(self.graphs)}, "
                   f"{self.seeds} seeds"),
            legend={EQ: "same pass set", GE: "dominates",
                    LE: "dominated", INCOMPARABLE: "incomparable"},
        )
