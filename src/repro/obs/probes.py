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

The run's :class:`~repro.obs.intervals.IntervalMachine` updates the
counters and histograms as it folds each record written, so they are
exact under a ``counters`` trace, which keeps no rows, and bit-identical
between serial and parallel campaigns; :func:`publish_gauges` turns its
end state into the gauges.
Unlabeled series sum every suspicion label; the ``{detector=...}``
copies keep them apart for the lattice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.intervals import IntervalMachine
    from repro.types import Time


def publish_gauges(machine: "IntervalMachine", end_time: "Time") -> None:
    """The end-of-run gauges of ``machine``'s registry."""
    from repro.obs.intervals import HUNGRY

    reg = machine.registry
    open_by: dict[str, int] = {}
    for key, (_, wrongful) in machine.open.items():
        if wrongful:
            open_by[str(key[2])] = open_by.get(str(key[2]), 0) + 1
    n_open = sum(open_by.values())
    reg.gauge("oracle.wrongful_open").set(n_open)
    reg.gauge("oracle.last_wrongful_onset").set(machine.last_wrongful_onset)
    if n_open == 0:
        reg.gauge("oracle.converged_at").set(machine.converged_at)
    # Per-label convergence: a label converged iff none of *its* wrongful
    # intervals are still open — the per-detector verdict the lattice
    # matrix reads even when another label in the same run (e.g. a
    # substrate) is still wrong.
    labels = (set(machine.wrongful_by) | set(machine.converged_by)
              | set(open_by))
    for label in sorted(labels):
        n = open_by.get(label, 0)
        reg.gauge("oracle.wrongful_open", detector=label).set(n)
        if n == 0:
            reg.gauge("oracle.converged_at", detector=label).set(
                machine.converged_by.get(label, 0.0))
    for owner in sorted(machine.stabilized_at):
        reg.gauge("oracle.stabilized_at", process=str(owner)).set(
            machine.stabilized_at[owner])
    hungry = sum(1 for _, phase in machine.phases.values() if phase == HUNGRY)
    reg.gauge("dining.hungry_pending").set(hungry + machine.hungry_crashed)
    reg.gauge("core.pings_outstanding").set(len(machine.pings))
    reg.gauge("run.end_time").set(float(end_time))
