"""Live campaign progress: a stderr status line plus a heartbeat JSONL.

Long campaigns (hundreds of seeds, n=1000 topologies) used to run silent
until they finished.  :class:`ProgressReporter` plugs into the
``on_result`` hooks the executors already expose
(:meth:`repro.runtime.executor.SupervisedExecutor.map`,
:func:`repro.runtime.store.resumable_map`) and turns each landing result
into

* a throttled, self-overwriting **stderr line** — runs done/total (cache
  hits counted separately), cumulative events/sec, running
  wrongful-suspicion and convergence aggregates, and an ETA — emitted
  only when stderr is a TTY (or forced with ``--progress``), and
* an append-only **heartbeat JSONL** (``--progress-out``): one
  ``repro.progress.v1`` record per landed run, flushed immediately.
  Because the file is opened in append mode, a resumed campaign extends
  the same file — the trailing record's ``done``/``total``/``wall_time``
  is a liveness signal an external watcher can poll to tell a hung
  campaign from a slow one (docs/reliability.md).

Everything here writes to stderr or the heartbeat file only: stdout
stays byte-comparable between runs with and without progress reporting,
which is what the resume byte-identity suite pins.

Determinism note: progress output is inherently wall-clock-flavored
(rates, ETA, completion order under a pool) and is *not* part of any
determinism surface.  The run results it observes are untouched — the
reporter is a pure consumer.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Mapping, Optional, TextIO

#: Schema tag stamped on every heartbeat record.
PROGRESS_SCHEMA = "repro.progress.v1"

#: Minimum elapsed wall-clock (seconds) before rates and ETA are
#: reported.  A first result can land with ~0 elapsed time (cache hits
#: are served synchronously at load), and dividing by a near-zero
#: elapsed produces absurd rates and a bogus 0s ETA; below this floor
#: both are reported as unknown (``None``) instead.
MIN_RATE_ELAPSED = 1e-6


def progress_sample(value: Any) -> dict[str, Any]:
    """Flat ``{ok, events, convergence_time, wrongful_suspicions}`` view
    of one landed result.

    Duck-types everything the campaign executors hand back: a chaos
    ``RunVerdict`` (via ``run_record()``), bare ``RunResult``-likes (via
    ``summary()``), and ``repro.result.v1`` envelopes from sweeps and
    the service (the ``record`` block).
    Unknown shapes degrade to an empty sample rather than raising —
    progress reporting must never kill a campaign.
    """
    rec: Any = None
    if isinstance(value, Mapping):
        rec = value.get("record", value)
    elif hasattr(value, "run_record"):
        try:
            rec = value.run_record()
        except Exception:
            rec = None
    elif hasattr(value, "summary"):
        try:
            rec = {"summary": value.summary()}
        except Exception:
            rec = None
    if not isinstance(rec, Mapping):
        return {}
    summary = rec.get("summary") or {}
    verdict = rec.get("verdict") or {}
    ok = verdict.get("ok", summary.get("ok"))
    return {
        "ok": ok,
        "events": int(summary.get("events_processed") or 0),
        "convergence_time": summary.get("convergence_time"),
        "wrongful_suspicions": int(summary.get("wrongful_suspicions") or 0),
    }


class ProgressReporter:
    """Running campaign aggregates, rendered live.

    Wire :meth:`update` as the campaign's ``on_result`` hook (the
    ``cached`` flag distinguishes store-served results from fresh
    simulation); call :meth:`start` before the fan-out and
    :meth:`finish` in a ``finally`` so the heartbeat file is closed and
    the final line is terminated even on interrupt.

    ``live=None`` auto-detects: the stderr line is drawn only on a TTY,
    so redirected logs don't fill with carriage returns.  ``clock`` and
    ``wall_clock`` are injectable for deterministic tests.
    """

    def __init__(self, total: int, label: str = "campaign",
                 stream: Optional[TextIO] = None,
                 heartbeat_path: Optional[str] = None,
                 live: Optional[bool] = None,
                 min_interval: float = 0.25,
                 clock: Callable[[], float] = time.monotonic,
                 wall_clock: Callable[[], float] = time.time) -> None:
        self.total = int(total)
        self.label = label
        self.stream = sys.stderr if stream is None else stream
        self.heartbeat_path = heartbeat_path
        if live is None:
            isatty = getattr(self.stream, "isatty", None)
            live = bool(isatty()) if callable(isatty) else False
        self.live = live
        self.min_interval = float(min_interval)
        self._clock = clock
        self._wall_clock = wall_clock
        self.done = 0
        self.cached = 0
        self.failed = 0
        self.events = 0
        self.wrongful = 0
        self.converged = 0
        self._t0: Optional[float] = None
        self._last_draw: float = float("-inf")
        self._last_width = 0
        self._heartbeat: Optional[TextIO] = None
        self._finished = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Open the heartbeat file (append: resumed campaigns extend it)
        and start the rate clock."""
        self._t0 = self._clock()
        if self.heartbeat_path is not None and self._heartbeat is None:
            self._heartbeat = open(self.heartbeat_path, "a",
                                   encoding="utf-8")
        self._emit_heartbeat()
        self._draw(force=True)

    def update(self, index: int, value: Any, cached: bool = False) -> None:
        """Fold one landed result (``on_result`` contract: fires once per
        item; ``index`` identifies the run but order is completion order
        under a pool)."""
        if self._t0 is None:
            self.start()
        sample = progress_sample(value)
        self.done += 1
        if cached:
            self.cached += 1
        if sample.get("ok") is False:
            self.failed += 1
        self.events += sample.get("events", 0)
        self.wrongful += sample.get("wrongful_suspicions", 0)
        if sample.get("convergence_time") is not None:
            self.converged += 1
        self._emit_heartbeat()
        self._draw(force=self.done >= self.total)

    def finish(self) -> None:
        """Terminate the live line and close the heartbeat file.
        Idempotent; safe to call before :meth:`start`."""
        if self._finished:
            return
        self._finished = True
        if self._t0 is not None:
            self._draw(force=True)
            if self.live:
                self.stream.write("\n")
                self.stream.flush()
        if self._heartbeat is not None:
            self._heartbeat.close()
            self._heartbeat = None

    # -- aggregates ----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The running aggregates as one heartbeat-record body."""
        elapsed = 0.0 if self._t0 is None else self._clock() - self._t0
        rate = self.done / elapsed if elapsed > MIN_RATE_ELAPSED else None
        events_per_sec = (self.events / elapsed
                          if elapsed > MIN_RATE_ELAPSED else None)
        eta = (None if not rate or self.done >= self.total
               else (self.total - self.done) / rate)
        return {
            "schema": PROGRESS_SCHEMA,
            "label": self.label,
            "done": self.done,
            "total": self.total,
            "cached": self.cached,
            "failed": self.failed,
            "events": self.events,
            "events_per_sec": (None if events_per_sec is None
                               else round(events_per_sec, 1)),
            "wrongful_suspicions": self.wrongful,
            "converged": self.converged,
            "unconverged": self.done - self.converged,
            "elapsed_seconds": round(elapsed, 3),
            "eta_seconds": None if eta is None else round(eta, 1),
            "wall_time": round(self._wall_clock(), 3),
        }

    # -- output --------------------------------------------------------------

    def _emit_heartbeat(self) -> None:
        if self._heartbeat is None:
            return
        self._heartbeat.write(
            json.dumps(self.snapshot(), sort_keys=True,
                       separators=(",", ":")) + "\n")
        self._heartbeat.flush()

    def render_line(self) -> str:
        """The one-line human progress summary (the stderr live line)."""
        snap = self.snapshot()
        bits = [f"{self.label}: {self.done}/{self.total} runs"]
        if self.cached:
            bits.append(f"{self.cached} cached")
        if self.failed:
            bits.append(f"{self.failed} FAILED")
        if snap["events_per_sec"] is not None:
            bits.append(f"{snap['events_per_sec']:,.0f} ev/s")
        bits.append(f"wrongful {self.wrongful}")
        bits.append(f"converged {self.converged}/{self.done}")
        if snap["eta_seconds"] is not None:
            bits.append(f"eta {snap['eta_seconds']:.0f}s")
        return " | ".join(bits)

    def _draw(self, force: bool = False) -> None:
        if not self.live:
            return
        now = self._clock()
        if not force and now - self._last_draw < self.min_interval:
            return
        self._last_draw = now
        line = self.render_line()
        pad = max(0, self._last_width - len(line))
        self._last_width = len(line)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()
