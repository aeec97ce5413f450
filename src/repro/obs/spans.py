"""Span-level run tracing: typed intervals materialized from the trace stream.

Scalar metrics (:mod:`repro.obs.probes`) answer *how much*; spans answer
*when*.  The paper's refutation is interval-shaped — the flawed
extraction wrongfully suspects infinitely often while the corrected ◇P
construction's mistakes are finite — so the interesting evidence is the
interval structure itself: when each pair's suspicion opened and closed,
when each dining instance was hungry vs. eating, and where convergence
landed.  The run's :class:`~repro.obs.intervals.IntervalMachine` keeps
exactly those intervals; with the ``spans`` knob on it also keeps them
as rows, and :func:`span_dicts` turns its end state into the span list.

Span kinds
----------

``suspicion``
    One maximal interval during which ``pid`` suspected ``target``
    (per ``detector``).  Tagged ``wrongful`` when the target had not
    crashed at onset — the oracle's "mistakes" in the paper's sense.
    A target crash *splits* an open wrongful interval: the wrongful
    span closes at the crash and a justified (``wrongful=False``) span
    opens from it.
``phase``
    One dining phase interval (``thinking`` / ``hungry`` / ``eating``)
    of ``pid`` in dining ``instance``, from ``"state"`` trace rows.
``crash``
    A zero-length span marking a process crash.
``convergence``
    A zero-length run-global span (``pid="*"``) at the end of the last
    wrongful-suspicion interval — present only when the run converged
    (no wrongful suspicion still open at the horizon).

Truncation semantics
--------------------

A span still open when the run ends is closed at the horizon with
``truncated=True``: its ``end`` is the horizon, not an observed close.
A run that never converged therefore exports truncated wrongful
suspicion spans and *no* ``convergence`` span.

The machine folds the trace *record stream*
(:meth:`repro.sim.trace.Trace.subscribe`) as it is written, so spans
are exact under a ``counters`` trace, which keeps no rows, and — being pure
arithmetic over the deterministic event stream — bit-identical between
serial and parallel campaign execution.

The stable on-disk form is the ``repro.span.v1`` JSONL record
(:func:`span_records` + :func:`repro.obs.exporters.write_jsonl`); see
docs/observability.md for the schema and ``repro timeline`` for the
renderer that consumes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.intervals import IntervalMachine
    from repro.types import Time

#: Schema tag stamped on every span JSONL record.
SPAN_SCHEMA = "repro.span.v1"

#: Deterministic ordering of span kinds at equal (start, end).
_KIND_ORDER = {"suspicion": 0, "phase": 1, "crash": 2, "convergence": 3}


#: The fixed key set of a span dict — the ``span`` block of the JSONL
#: record; absent facts are explicit ``None``s, so consumers never need
#: key-existence checks.  ``target`` / ``detector`` / ``wrongful`` (the
#: onset was a mistake: target still live) belong to suspicion spans,
#: ``instance`` / ``phase`` to phase spans; ``truncated`` marks a span
#: closed at the horizon rather than by an observed transition.  The
#: machine accumulates rows as plain tuples in this order — constructing
#: an object per trace record is measurable at campaign rates — and they
#: become dicts once, in :func:`span_dicts`.
_KEYS = ("kind", "start", "end", "pid", "target", "detector", "wrongful",
         "instance", "phase", "truncated")


def _sort_key(row: tuple) -> tuple:
    # (start, end, kind order, pid, target, detector, instance, phase)
    return (row[1], row[2], _KIND_ORDER.get(row[0], 9), str(row[3]),
            str(row[4] or ""), str(row[5] or ""),
            str(row[7] or ""), str(row[8] or ""))


def span_dicts(machine: "IntervalMachine",
               end_time: "Time") -> list[dict[str, Any]]:
    """The run's spans as plain dicts, sorted by start time: the rows
    ``machine`` closed, then its still-open intervals closed at the
    horizon (``truncated=True``) and the convergence marker."""
    rows = machine.span_rows
    end = float(end_time)
    for key, (start, wrongful) in machine.open.items():
        rows.append(("suspicion", start, end, key[0], key[1], key[2],
                     wrongful, None, None, True))
    for pkey, (start, phase) in sorted(machine.phases.items(),
                                       key=lambda kv: str(kv[0])):
        rows.append(("phase", start, end, pkey[0], None, None, None,
                     pkey[1], phase, True))
    if machine.converged:
        rows.append(("convergence", machine.converged_at,
                     machine.converged_at, "*", None, None, None, None,
                     None, False))
    rows.sort(key=_sort_key)
    return [dict(zip(_KEYS, row)) for row in rows]


def span_records(name: str, seed: int, end_time: float,
                 spans: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """The ``repro.span.v1`` JSONL records for one run's spans.

    Each record carries the run context (name, seed, horizon) so a file
    can hold many runs (a whole campaign) and still be sliced per run by
    the timeline renderer.  Serialize with
    :func:`repro.obs.exporters.dumps_record` /
    :func:`~repro.obs.exporters.write_jsonl` — records are emitted in
    run order with sorted keys, so campaign span files are byte-identical
    between ``--workers N`` and serial execution.
    """
    run = {"name": name, "seed": int(seed), "end_time": float(end_time)}
    return [{"schema": SPAN_SCHEMA, "run": dict(run), "span": dict(span)}
            for span in spans]
