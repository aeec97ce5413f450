"""Journal-backed restart recovery for the campaign service.

The journal is an append-only JSONL file recording every job submission
and every state transition (``repro.job.v1`` records).  It is the
service's only persistent job state: on startup the journal is replayed,
terminal jobs come back as read-only history, and jobs that were queued
or running when the previous process died (crash, SIGKILL, drain
timeout) are **re-enqueued** with their original ids and specs — the
content-addressed :class:`~repro.runtime.store.ResultStore` then serves
whatever those jobs had already computed, so recovery re-simulates only
the genuinely lost tail (docs/service.md).

Durability is the store's: one record per line through
:func:`~repro.runtime.store.durable_append` (single ``O_APPEND`` write +
fsync per record, never welded onto a crashed writer's fragment), and
torn-fragment tolerance on load.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.runtime.store import durable_append, is_torn_fragment
from repro.service.jobs import JOB_SCHEMA, QUEUED, TERMINAL, Job


#: How ``_append``'s key-sorted records open: a state record with its
#: ``error`` member, a submission with ``event``.
_RECORD_HEADS = ('{"error":', '{"event":"submit",')


class JobJournal:
    """Append-only job event log (submissions + state transitions)."""

    def __init__(self, path: "str | pathlib.Path") -> None:
        self.path = pathlib.Path(path)
        if self.path.is_dir():
            raise ConfigurationError(
                f"journal path {self.path} is a directory")
        if not self.path.parent.is_dir():
            raise ConfigurationError(
                f"journal directory {self.path.parent} does not exist")

    def _append(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        durable_append(self.path, (line + "\n").encode("utf-8"))

    def record_submit(self, job: Job) -> None:
        self._append({
            "schema": JOB_SCHEMA,
            "event": "submit",
            "id": job.id,
            "kind": job.kind,
            "specs": job.specs,
            "spec_keys": job.spec_keys,
            "wall_time": round(time.time(), 3),
        })

    def record_state(self, job: Job) -> None:
        self._append({
            "schema": JOB_SCHEMA,
            "event": "state",
            "id": job.id,
            "state": job.state,
            "error": job.error,
            "wall_time": round(time.time(), 3),
        })

    def replay(self) -> "list[RecoveredJob]":
        """Submission-order job history from the journal (empty when the
        file does not exist yet)."""
        if not self.path.exists():
            return []
        text = self.path.read_text(encoding="utf-8")
        lines = text.splitlines()
        jobs: dict[str, RecoveredJob] = {}
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                event = rec["event"]
                job_id = rec["id"]
            except (json.JSONDecodeError, KeyError, TypeError):
                if ((i == len(lines) - 1 and not text.endswith("\n"))
                        or is_torn_fragment(line, _RECORD_HEADS)):
                    # Torn append — the tail, or a fragment the next
                    # append terminated; that event is lost.
                    continue
                raise ConfigurationError(
                    f"{self.path}:{i + 1}: corrupt journal line (not a "
                    f"{JOB_SCHEMA} record); move the file aside") from None
            if event == "submit":
                jobs[job_id] = RecoveredJob(
                    job_id=job_id, kind=rec.get("kind", "run"),
                    specs=list(rec.get("specs") or []),
                    spec_keys=list(rec.get("spec_keys") or []))
            elif event == "state" and job_id in jobs:
                jobs[job_id].state = rec.get("state", QUEUED)
                jobs[job_id].error = rec.get("error")
        return list(jobs.values())


class RecoveredJob:
    """One journal-replayed job: terminal history, or work to re-enqueue."""

    __slots__ = ("job_id", "kind", "specs", "spec_keys", "state", "error")

    def __init__(self, job_id: str, kind: str, specs: list,
                 spec_keys: list, state: str = QUEUED,
                 error: Optional[str] = None) -> None:
        self.job_id = job_id
        self.kind = kind
        self.specs = specs
        self.spec_keys = spec_keys
        self.state = state
        self.error = error

    @property
    def incomplete(self) -> bool:
        """True when the previous process died before finishing this job."""
        return self.state not in TERMINAL
