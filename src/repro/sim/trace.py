"""Structured run traces and queries over them.

Everything observable about a run — diner state transitions, oracle output
changes, crashes, optionally every message — is appended to a single
:class:`Trace` as :class:`TraceRecord` rows.  Trace checkers (exclusion,
wait-freedom, completeness, accuracy, fairness) operate purely on these
rows, never on live simulator state, so a trace can be saved and re-checked.

Record kinds used across the library (by convention):

``"state"``     diner phase change: ``instance``, ``role``, ``state`` (str)
``"suspect"``   oracle output change: ``target``, ``suspected`` (bool)
``"crash"``     process crash
``"send"``      message sent (only when ``record_messages`` is on)
``"deliver"``   message delivered (only when ``record_messages`` is on)
plus algorithm-specific kinds (``"ping"``, ``"decide"``, ``"duty"``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.types import ProcessId, Time


@dataclass(frozen=True, slots=True, init=False)
class TraceRecord:
    """One observed event: ``(time, kind, pid, data)``.

    A row is written once and then read tens of times by the checkers, so
    the fields stay plain slots (the cheapest attribute read there is);
    only the generated ``__init__``, which pays one ``object.__setattr__``
    per field, is replaced by one that fills the slots directly.
    """

    time: Time
    kind: str
    pid: ProcessId
    data: Mapping[str, Any]

    def __init__(self, time: Time, kind: str, pid: ProcessId,
                 data: Mapping[str, Any] | None = None) -> None:
        _set_time(self, time)
        _set_kind(self, kind)
        _set_pid(self, pid)
        _set_data(self, {} if data is None else data)

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)


_set_time = TraceRecord.time.__set__
_set_kind = TraceRecord.kind.__set__
_set_pid = TraceRecord.pid.__set__
_set_data = TraceRecord.data.__set__


#: The trace retention modes: ``full`` keeps every row, ``counters``
#: keeps none (the aggregate views stay exact either way).
TRACE_MODES = ("full", "counters")


def validate_retention(mode: str) -> str:
    """``mode`` when it is one of :data:`TRACE_MODES`, else a
    :class:`~repro.errors.ConfigurationError`."""
    if mode not in TRACE_MODES:
        raise ConfigurationError(
            f"unknown trace sink {mode!r} (use full | counters)")
    return mode


class Trace:
    """An append-only sequence of :class:`TraceRecord` rows, time-ordered.

    ``mode`` is ``"full"`` (the default: every row is kept) or
    ``"counters"`` (no row is kept; long perf runs use it to bound
    memory).  Aggregate views — the kind histogram, crash times, total
    record count, and last record time — are maintained out-of-band, so
    they stay exact in both modes; row-level queries (:meth:`records`,
    :meth:`series`) see nothing under ``counters``.
    """

    def __init__(self, mode: str = "full") -> None:
        #: Every row, or None when the trace keeps none.
        self._rows: Optional[list[TraceRecord]] = (
            [] if validate_retention(mode) == "full" else None)
        self._now_fn: Optional[Callable[[], Time]] = None
        self._kind_counts: dict[str, int] = {}
        self._crash_times: dict[ProcessId, Time] = {}
        self._last_time: Time = 0.0
        self._total = 0
        self._observers: list[
            tuple[Callable[[TraceRecord], None], Optional[frozenset]]
        ] = []
        # Union of all subscribed kind filters; None once any subscriber
        # wants everything.  When no rows are kept, records whose kind is
        # outside this set are never constructed (lazy fast path).
        self._needed_kinds: Optional[set[str]] = set()
        # The query index over the rows (see records()): None until a
        # kind-filtered query builds it, dropped by every append.
        self._index: Optional[dict[Any, list[TraceRecord]]] = None

    def bind_clock(self, now_fn: Callable[[], Time]) -> None:
        self._now_fn = now_fn

    def subscribe(self, observer: Callable[[TraceRecord], None],
                  kinds: Optional[Iterable[str]] = None) -> None:
        """Observe every record as it is appended.

        Subscribers (e.g. :class:`repro.obs.intervals.IntervalMachine`)
        see the full record stream in both modes, so anything computed
        from the stream stays exact under ``counters``.  Observers are
        run-local and are not pickled with the trace.

        ``kinds``, when given, restricts delivery to records of those
        kinds.  Declaring the filter matters beyond skipping callbacks:
        when every subscriber is filtered and the trace keeps no rows
        (``counters``), records of unwanted kinds are never even built.
        """
        ks = None if kinds is None else frozenset(kinds)
        self._observers.append((observer, ks))
        if ks is None:
            self._needed_kinds = None
        elif self._needed_kinds is not None:
            self._needed_kinds |= ks

    # -- retention ----------------------------------------------------------

    @property
    def mode(self) -> str:
        """The retention mode: ``full`` or ``counters``."""
        return "counters" if self._rows is None else "full"

    @property
    def evicted(self) -> int:
        """Records not kept: none under ``full``, all under ``counters``."""
        return self._total if self._rows is None else 0

    @property
    def truncated(self) -> bool:
        """True when row-level queries do not see the whole history."""
        return self.evicted > 0

    @property
    def total_recorded(self) -> int:
        """Total records ever appended, retained or not."""
        return self._total

    # -- pickling (results cross process boundaries in parallel campaigns) ---

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state["_now_fn"] = None   # bound clock closures don't pickle
        state["_observers"] = []  # run-local; may close over live objects
        state["_needed_kinds"] = set()
        state["_index"] = None    # rebuilt on the first query
        return state

    # -- writing ------------------------------------------------------------

    def record(self, kind: str, pid: ProcessId,
               **data: Any) -> Optional[TraceRecord]:
        """Append one record; returns it, or None when it was elided.

        Elision (the lazy fast path) happens only when the trace keeps no
        rows *and* no subscriber asked for this ``kind`` — the
        aggregate views (totals, kind histogram, crash times, last time)
        are still maintained exactly, so nothing observable about the
        trace changes besides the saved construction cost.
        """
        t = self._now_fn() if self._now_fn is not None else 0.0
        needed = self._needed_kinds
        if (needed is not None and kind not in needed
                and self._rows is None):
            self._total += 1
            self._last_time = t
            counts = self._kind_counts
            counts[kind] = counts.get(kind, 0) + 1
            if kind == "crash":
                self._crash_times[pid] = t
            return None
        rec = TraceRecord(t, kind, pid, data)
        self._append(rec)
        return rec

    def _append(self, rec: TraceRecord) -> None:
        """Keep a prebuilt record and maintain the exact aggregate views."""
        if self._rows is not None:
            self._rows.append(rec)
            self._index = None
        self._total += 1
        self._last_time = rec.time
        kind = rec.kind
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        if kind == "crash":
            self._crash_times[rec.pid] = rec.time
        for observer, kinds in self._observers:
            if kinds is None or kind in kinds:
                observer(rec)

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._kept())

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._kept())

    def _kept(self) -> Sequence[TraceRecord]:
        return () if self._rows is None else self._rows

    def records(
        self,
        kind: str | None = None,
        pid: ProcessId | None = None,
        where: Callable[[TraceRecord], bool] | None = None,
    ) -> list[TraceRecord]:
        """All kept records matching the given filters, in time order.

        A query naming ``kind`` is served from an index ``{kind: rows,
        (kind, pid): rows}`` instead of a scan of the whole trace.  The
        first such query for a kind after an append builds that kind's
        entries in one pass over the rows; the next append drops
        the index, so a mid-run query sees exactly what a scan would.  The
        index is never pickled.  The returned list is the caller's own.
        """
        if kind is None:
            rows: Sequence[TraceRecord] = self._kept()
            if pid is not None:
                rows = [r for r in rows if r.pid == pid]
        else:
            index = self._index
            if index is None:
                index = self._index = {}
            rows = index.get(kind)
            if rows is None:
                rows = self._index_kind(index, kind)
            if pid is not None:
                rows = index.get((kind, pid), ())
        if where is None:
            return list(rows)
        return [r for r in rows if where(r)]

    def _index_kind(self, index: dict[Any, list[TraceRecord]],
                    kind: str) -> list[TraceRecord]:
        """Add ``kind``'s rows, whole and per pid, to ``index``."""
        rows = [r for r in self._kept() if r.kind == kind]
        index[kind] = rows
        for r in rows:
            bucket = index.get((kind, r.pid))
            if bucket is None:
                index[(kind, r.pid)] = [r]
            else:
                bucket.append(r)
        return rows

    def series(
        self,
        kind: str,
        field_name: str,
        pid: ProcessId | None = None,
        where: Callable[[TraceRecord], bool] | None = None,
    ) -> list[tuple[Time, Any]]:
        """``(time, value)`` pairs of ``data[field_name]`` for matching rows."""
        return [
            (r.time, r.data[field_name])
            for r in self.records(kind=kind, pid=pid, where=where)
        ]

    def last_time(self) -> Time:
        """Time of the final record (0.0 for an empty trace).

        Exact in both modes: maintained as records are appended, not
        recovered from the rows.
        """
        return self._last_time

    def crash_times(self) -> dict[ProcessId, Time]:
        """Map of crashed process -> crash time.

        Ground truth for trace checkers, so it is kept out-of-band and
        survives a ``counters`` trace, which keeps no rows.
        """
        return dict(self._crash_times)

    def kinds(self) -> dict[str, int]:
        """Histogram of record kinds — exact in both modes."""
        return dict(self._kind_counts)


def state_intervals(
    events: Sequence[tuple[Time, str]],
    state: str,
    end_time: Time,
) -> list[tuple[Time, Time]]:
    """Convert a state-change series into closed intervals spent in ``state``.

    ``events`` is a time-ordered ``(time, new_state)`` series.  An interval
    still open at the end of the run is closed at ``end_time`` (a diner that
    crashed or never exited is 'in state' until then, which is exactly what
    exclusion checkers need: a crashed eater stops conflicting only once
    crashed — callers clip by crash time separately if required).
    """
    out: list[tuple[Time, Time]] = []
    start: Optional[Time] = None
    for t, s in events:
        if s == state and start is None:
            start = t
        elif s != state and start is not None:
            out.append((start, t))
            start = None
    if start is not None:
        out.append((start, max(end_time, start)))
    return out


def intervals_overlap(a: tuple[Time, Time], b: tuple[Time, Time]) -> bool:
    """True when two closed-open intervals genuinely overlap (not merely touch)."""
    return a[0] < b[1] and b[0] < a[1]
