"""The campaign service: a persistent HTTP front door over the runtime.

``repro serve`` turns the library's ``RunSpec → RunResult`` pipeline
into a long-running daemon:

* **Submission** — ``POST /v1/runs`` accepts one canonical-JSON
  :class:`~repro.runtime.spec.RunSpec`; ``POST /v1/campaigns`` accepts a
  base spec plus a seed fan-out.  Submissions become
  :class:`~repro.service.jobs.Job` entries on a bounded queue.
* **Caching** — every spec is content-addressed
  (:func:`~repro.runtime.store.spec_hash`) into the shared
  :class:`~repro.runtime.store.ResultStore`.  A re-submitted spec is a
  cache hit: served straight from the store, no job scheduled, hit
  counters surfaced on ``/metrics``, its result bytes encoded once per
  stored payload and shared with the ``GET`` that follows.
  ``GET /v1/runs/<spec_key>`` returns the stored payload as
  deterministic JSON bytes — byte-equal to what a local ``repro.run()``
  of the same spec encodes to (:mod:`repro.service.encoding`).
* **Execution** — one dispatcher drains the queue; each job runs on the
  existing :class:`~repro.runtime.executor.SupervisedExecutor` pool via
  :func:`~repro.runtime.store.resumable_map`, which serves per-seed
  cache hits and checkpoints fresh results the moment they land.
* **Observation** — ``GET /v1/jobs/<id>`` is the job status document;
  ``GET /v1/jobs/<id>/events`` streams its ``repro.progress.v1``
  heartbeats as Server-Sent Events; ``GET /metrics`` renders the
  service's own :class:`~repro.obs.registry.MetricsRegistry` through the
  existing Prometheus exporter (queue depth, jobs by state, cache hit
  ratio, events/sec).
* **Lifecycle** — SIGTERM/SIGINT triggers a graceful drain (stop
  accepting, finish queued work within ``drain_grace``); the
  :class:`~repro.service.journal.JobJournal` re-enqueues incomplete
  jobs on restart.

Everything is stdlib: ``asyncio.start_server`` plus a minimal
HTTP/1.1 reader.  The connection, not the request, is the unit of the
wire protocol: one handler answers request after request on the same
socket (``Connection: keep-alive``) until the peer closes or asks
``Connection: close``, speaks HTTP/1.0, sends a request that cannot be
framed, takes the SSE stream (close-delimited), idles past
``REQUEST_TIMEOUT``, or the service drains — a drain closes the idle
connections itself and answers the ones in flight ``Connection: close``.
All job state lives on the event-loop thread; the executor thread
marshals results in with ``call_soon_threadsafe``, so handlers never
see a half-updated job.  See docs/service.md for the protocol.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError, ReproError
from repro.obs.exporters import prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.runtime.executor import SupervisedExecutor
from repro.runtime.progress import progress_sample
from repro.runtime.seeds import fanout_seeds
from repro.runtime.spec import RunSpec
from repro.runtime.store import (
    ResultStore,
    canonical_spec,
    resumable_map,
    spec_hash,
)
from repro.service import jobs as jobstates
from repro.service.encoding import execute_spec_payload, payload_bytes
from repro.service.jobs import Job, next_job_id
from repro.service.journal import JobJournal

#: Hard cap on one HTTP request (start line + headers + body).
MAX_REQUEST_BYTES = 4 * 1024 * 1024

#: Seconds a connection may sit idle, or take to deliver one request,
#: before the service closes it.
REQUEST_TIMEOUT = 30.0

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error",
            503: "Service Unavailable"}


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` needs to run one service instance."""

    store_path: str
    host: str = "127.0.0.1"
    port: int = 8642
    journal_path: Optional[str] = None  # default: <store_path>.jobs
    workers: int = 1
    queue_max: int = 64
    task_timeout: Optional[float] = None
    drain_grace: float = 60.0
    #: Default fan-out for campaigns submitted without runs/seeds.
    default_runs: int = 8

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError(
                f"workers must be non-negative, got {self.workers}")
        if self.queue_max < 1:
            raise ConfigurationError(
                f"queue-max must be >= 1, got {self.queue_max}")
        if self.drain_grace < 0:
            raise ConfigurationError(
                f"drain-grace must be non-negative, got {self.drain_grace}")

    @property
    def journal(self) -> str:
        return self.journal_path or self.store_path + ".jobs"


@dataclass(eq=False)
class _Connection:
    """One accepted socket and where its handler stands."""

    writer: asyncio.StreamWriter
    task: asyncio.Task
    #: Parked waiting for a request head: a drain may close it.
    idle: bool = False
    #: The response being built may leave the connection open.
    keep: bool = False


class CampaignService:
    """One service instance: HTTP server + job queue + dispatcher."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.registry = MetricsRegistry()
        self.store = ResultStore(config.store_path, metrics=self.registry)
        self.journal = JobJournal(config.journal)
        self.jobs: dict[str, Job] = {}
        self.draining = False
        self._running: Optional[Job] = None
        self._connections: set[_Connection] = set()
        self._t0 = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self.queue: Optional[asyncio.Queue] = None
        self._shutdown: Optional[asyncio.Event] = None
        #: key -> (stored payload, its payload_bytes), kept at a key's
        #: first POST hit; see :meth:`_result_bytes`.
        self._encoded: dict[str, tuple[dict, bytes]] = {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "tuple[str, int]":
        """Recover the journal, start the dispatcher and the listener;
        returns the bound ``(host, port)`` (port 0 picks a free one)."""
        self.queue = asyncio.Queue()
        self._shutdown = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-exec")
        self._recover()
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-service-dispatch")
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port,
            limit=MAX_REQUEST_BYTES)
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    def _recover(self) -> None:
        """Replay the journal: terminal jobs become history, incomplete
        jobs are re-enqueued with their original ids."""
        for rec in self.journal.replay():
            job = Job(rec.job_id, rec.kind, rec.specs, rec.spec_keys)
            self.jobs[job.id] = job
            if rec.incomplete and rec.specs:
                self.queue.put_nowait(job)
                self.registry.counter("service.jobs_recovered").inc()
            else:
                # Read-only history: per-run progress did not survive the
                # restart, but the outcome did.
                job.state = rec.state
                job.error = rec.error
                if rec.state == jobstates.DONE:
                    job.reporter.done = len(rec.specs)

    def request_shutdown(self) -> None:
        """Begin a graceful drain (signal-handler safe on the loop)."""
        if self._shutdown is not None:
            self._shutdown.set()

    async def run_until_drained(self) -> bool:
        """Block until shutdown is requested, then drain.

        Returns True when every queued/running job finished within
        ``drain_grace``; False when incomplete jobs remain (they stay in
        the journal and are re-enqueued on the next start).
        """
        await self._shutdown.wait()
        self.draining = True
        if self._server is not None:
            self._server.close()
        self._close_idle_connections()
        drained = await self._wait_idle(self.config.drain_grace)
        if drained:
            self.queue.put_nowait(None)
            await self._dispatcher
        else:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
        self._pool.shutdown(wait=drained)
        # again: a connection accepted just before the listener closed,
        # or mid-write when the drain began, parked after the first sweep
        self._close_idle_connections()
        if self._connections:
            await asyncio.wait([conn.task for conn in self._connections],
                               timeout=1.0)
        if self._server is not None:
            with contextlib.suppress(Exception):
                await asyncio.wait_for(self._server.wait_closed(), 1.0)
        return drained

    def _close_idle_connections(self) -> None:
        """Hang up on every connection parked between requests.  Left
        alone they would sit out the drain and be cancelled mid-read
        when the loop exits; the ones in flight end themselves, because
        a draining response says ``Connection: close``."""
        for conn in self._connections:
            if conn.idle:
                conn.writer.close()

    async def _wait_idle(self, grace: float) -> bool:
        deadline = time.monotonic() + grace
        while True:
            if self.queue.qsize() == 0 and self._running is None:
                return True
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.05)

    # -- dispatch / execution ------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self.queue.get()
            if job is None:
                return
            self._running = job
            job.mark_running()
            self.journal.record_state(job)
            try:
                await loop.run_in_executor(
                    self._pool, self._execute_job, job, loop)
            except Exception as exc:
                job.mark_failed(f"{type(exc).__name__}: {exc}")
                self.registry.counter("service.jobs_failed").inc()
            else:
                job.mark_done()
                self.registry.counter("service.jobs_done").inc()
            self.journal.record_state(job)
            self._running = None

    def _execute_job(self, job: Job, loop: asyncio.AbstractEventLoop) -> None:
        """Executor-thread body: run the job's specs with per-seed cache
        hits served from the store and fresh results checkpointed into
        it (exactly the CLI's ``--store --resume`` machinery, and the
        same stored envelope: either side's entries are hits here)."""
        def on_result(index: int, payload: dict, cached: bool) -> None:
            loop.call_soon_threadsafe(
                self._record_result, job, index, payload, cached)

        resumable_map(
            execute_spec_payload, job.specs, keys=job.spec_keys,
            encode=lambda payload: payload,
            decode=lambda payload, i, item: payload,
            store=self.store, resume=True,
            executor=SupervisedExecutor(workers=self.config.workers,
                                        timeout=self.config.task_timeout),
            on_result=on_result)

    def _record_result(self, job: Job, index: int, payload: dict,
                       cached: bool) -> None:
        job.record_result(index, payload, cached)
        if cached:
            self.registry.counter("service.runs_cached").inc()
        else:
            self.registry.counter("service.runs_executed").inc()
            events = progress_sample(payload).get("events") or 0
            self.registry.counter("service.events_processed").inc(events)

    # -- HTTP plumbing -------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """One connection: answer request after request until the peer
        or the protocol ends it (the closed list is in docs/service.md)."""
        self.registry.counter("service.connections_accepted").inc()
        conn = _Connection(writer, asyncio.current_task())
        self._connections.add(conn)
        try:
            while True:
                request = await self._read_request(reader, conn)
                if request is None:
                    break
                await self._route(conn, *request)
                if not conn.keep:
                    break
        except ConnectionError:
            pass
        except Exception as exc:  # no request may kill the service
            self.registry.counter("service.errors").inc()
            conn.keep = False  # the response may be half-written
            with contextlib.suppress(Exception):
                await self._respond(
                    conn, 500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            self._connections.discard(conn)
            with contextlib.suppress(Exception):
                writer.close()

    async def _read_request(self, reader: asyncio.StreamReader,
                            conn: _Connection
                            ) -> "Optional[tuple[str, str, bytes]]":
        """The next ``(method, path, body)`` on this connection, or None
        when it ended: the peer closed, ``REQUEST_TIMEOUT`` passed, a
        drain closed it idle, or the request could not be framed (that
        one is answered 400 first — the next request's start is lost)."""
        timer = asyncio.get_running_loop().call_later(
            REQUEST_TIMEOUT, conn.writer.close)
        conn.idle = True
        try:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            finally:
                conn.idle = False
            method, target, conn.keep, length = _parse_head(head)
            body = await reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        except ValueError as exc:
            conn.keep = False
            await self._respond(conn, 400, {"error": str(exc)})
            return None
        finally:
            timer.cancel()
        return method, target.split("?", 1)[0], body

    async def _route(self, conn, method: str, path: str,
                     body: bytes) -> None:
        self.registry.counter("service.requests",
                              route=f"{method} {_route_label(path)}").inc()
        if path == "/healthz" and method == "GET":
            await self._respond(conn, 200, self._health())
        elif path == "/metrics" and method == "GET":
            await self._respond_raw(
                conn, 200, self._metrics_text().encode("utf-8"),
                "text/plain; version=0.0.4")
        elif path == "/v1/runs" and method == "POST":
            await self._post_run(conn, body)
        elif path == "/v1/campaigns" and method == "POST":
            await self._post_campaign(conn, body)
        elif path.startswith("/v1/runs/") and method == "GET":
            await self._get_run(conn, path[len("/v1/runs/"):])
        elif path == "/v1/jobs" and method == "GET":
            await self._respond(conn, 200, {
                "jobs": [job.snapshot() for job in self.jobs.values()]})
        elif path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                await self._stream_events(conn, rest[:-len("/events")])
            else:
                job = self.jobs.get(rest)
                if job is None:
                    await self._respond(conn, 404,
                                        {"error": f"no such job {rest!r}"})
                else:
                    await self._respond(conn, 200, job.snapshot())
        elif path in ("/v1/runs", "/v1/campaigns", "/v1/jobs", "/metrics",
                      "/healthz"):
            await self._respond(conn, 405,
                                {"error": f"{method} not allowed on {path}"})
        else:
            await self._respond(conn, 404,
                                {"error": f"no such endpoint {path!r}"})

    # -- endpoints -----------------------------------------------------------

    def _health(self) -> dict:
        return {"ok": True, "draining": self.draining,
                "jobs": len(self.jobs),
                "queue_depth": 0 if self.queue is None else self.queue.qsize()}

    async def _post_run(self, conn, body: bytes) -> None:
        try:
            spec = RunSpec.from_dict(_json_object(body))
        except (ReproError, ValueError, TypeError) as exc:
            await self._respond(conn, 400, {"error": str(exc)})
            return
        key = spec_hash(spec)
        # Cache hit: served synchronously, no job scheduled.  The counted
        # get keeps /metrics hit accounting exact; a miss is counted when
        # the job's resumable_map looks the key up.
        payload = self.store.get(key) if key in self.store else None
        if payload is not None:
            self.registry.counter("service.cache_served").inc()
            # Byte for byte what _respond would write for {"cached": True,
            # "job": None, "result": payload, "spec_key": key} (sorted
            # keys, compact separators), around bytes encoded once.
            await self._respond_raw(conn, 200, b"".join((
                b'{"cached":true,"job":null,"result":',
                self._result_bytes(key, payload, keep=True),
                b',"spec_key":', json.dumps(key).encode("utf-8"), b"}\n")),
                "application/json")
            return
        job = self._make_job("run", [canonical_spec(spec)], [key])
        if job is None:
            await self._respond_busy(conn)
            return
        await self._respond(conn, 202, {
            "cached": False, "spec_key": key, "job": job.id})

    async def _post_campaign(self, conn, body: bytes) -> None:
        try:
            data = _json_object(body)
            base = RunSpec.from_dict(dict(data.get("spec") or {}))
            if "seeds" in data and data["seeds"] is not None:
                seeds = [int(s) for s in data["seeds"]]
                if not seeds:
                    raise ConfigurationError("seeds must be non-empty")
            else:
                runs = int(data.get("runs", self.config.default_runs))
                if runs < 1:
                    raise ConfigurationError(f"runs must be >= 1, got {runs}")
                seeds = fanout_seeds(base.seed, runs)
        except (ReproError, ValueError, TypeError) as exc:
            await self._respond(conn, 400, {"error": str(exc)})
            return
        shards = [dataclasses.replace(base, seed=int(s)) for s in seeds]
        keys = [spec_hash(s) for s in shards]
        cached_hint = sum(1 for k in keys if k in self.store)
        job = self._make_job("campaign",
                             [canonical_spec(s) for s in shards], keys)
        if job is None:
            await self._respond_busy(conn)
            return
        await self._respond(conn, 202, {
            "job": job.id, "total": len(shards), "cached_hint": cached_hint,
            "spec_keys": keys})

    async def _get_run(self, conn, key: str) -> None:
        payload = self.store.get(key)
        if payload is None:
            await self._respond(conn, 404, {
                "error": "result not cached", "spec_key": key})
            return
        await self._respond_raw(conn, 200,
                                self._result_bytes(key, payload, keep=False),
                                "application/json")

    def _result_bytes(self, key: str, payload: dict, keep: bool) -> bytes:
        """``payload_bytes(payload)``, encoded at most once per stored
        payload object that a POST hits.

        The kept bytes are tied to the identity of the object
        ``store.get`` returned: ``put`` replaces a key's object, so the
        next hit re-encodes, and the kept reference stops the old object
        from being freed and its id reused.  ``keep`` is False for a bare
        GET, so fetching a result no POST has hit (every miss's fetch)
        keeps nothing.
        """
        kept = self._encoded.get(key)
        if kept is not None and kept[0] is payload:
            return kept[1]
        body = payload_bytes(payload)
        if keep:
            self._encoded[key] = (payload, body)
        return body

    def _make_job(self, kind: str, specs: list, keys: list) -> Optional[Job]:
        """Enqueue a new job, or None when draining / queue full."""
        if self.draining or self.queue.qsize() >= self.config.queue_max:
            return None
        job = Job(next_job_id(self.jobs.keys()), kind, specs, keys)
        self.jobs[job.id] = job
        self.journal.record_submit(job)
        self.queue.put_nowait(job)
        self.registry.counter("service.jobs_submitted").inc()
        return job

    async def _respond_busy(self, conn) -> None:
        reason = "draining" if self.draining else "job queue full"
        await self._respond(conn, 503, {"error": reason})

    async def _stream_events(self, conn, job_id: str) -> None:
        """SSE: replay this job's heartbeats, then follow it live until
        it reaches a terminal state."""
        job = self.jobs.get(job_id)
        if job is None:
            await self._respond(conn, 404,
                                {"error": f"no such job {job_id!r}"})
            return
        conn.keep = False  # the stream has no length: EOF delimits it
        writer = conn.writer
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-store\r\n"
                     b"Connection: close\r\n\r\n")
        sent = 0
        while True:
            changed = job.changed()  # capture before scanning: no lost wakeup
            while sent < len(job.heartbeats):
                record = json.dumps(job.heartbeats[sent], sort_keys=True,
                                    separators=(",", ":"))
                writer.write(f"data: {record}\n\n".encode("utf-8"))
                sent += 1
            await writer.drain()
            if job.terminal:
                break
            await changed.wait()
        final = json.dumps(job.snapshot(), sort_keys=True,
                           separators=(",", ":"))
        writer.write(f"event: end\ndata: {final}\n\n".encode("utf-8"))
        await writer.drain()

    # -- metrics -------------------------------------------------------------

    def _metrics_text(self) -> str:
        """Render the service registry, refreshing the point-in-time
        gauges (queue depth, jobs by state, hit ratio, rates) at scrape."""
        reg = self.registry
        reg.gauge("service.queue_depth").set(
            0 if self.queue is None else self.queue.qsize())
        reg.gauge("service.connections_open").set(len(self._connections))
        by_state = {state: 0 for state in jobstates.STATES}
        for job in self.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        for state, count in by_state.items():
            reg.gauge("service.jobs", state=state).set(count)
        snap = reg.snapshot()
        hits = snap.counter_value("store.hits")
        misses = snap.counter_value("store.misses")
        reg.gauge("service.cache_hit_ratio").set(
            hits / (hits + misses) if hits + misses else 0.0)
        uptime = max(time.monotonic() - self._t0, 1e-9)
        reg.gauge("service.uptime_seconds").set(round(uptime, 3))
        reg.gauge("service.events_per_sec").set(
            round(snap.counter_value("service.events_processed") / uptime, 3))
        reg.gauge("service.draining").set(1.0 if self.draining else 0.0)
        return prometheus_text(reg.snapshot())

    # -- response helpers ----------------------------------------------------

    async def _respond(self, conn, status: int, payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True, separators=(",", ":"))
                + "\n").encode("utf-8")
        await self._respond_raw(conn, status, body, "application/json")

    async def _respond_raw(self, conn, status: int, body: bytes,
                           content_type: str) -> None:
        self.registry.counter("service.responses", code=str(status)).inc()
        conn.keep = conn.keep and not self.draining
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if conn.keep else 'close'}"
                "\r\n\r\n")
        conn.writer.write(head.encode("utf-8") + body)
        await conn.writer.drain()


def _parse_head(head: bytes) -> "tuple[str, str, bool, int]":
    """``(method, target, keep_alive, content_length)`` of one request
    head; ``ValueError(<the 400's error text>)`` when the request
    cannot be framed."""
    request_line, *header_lines = head.decode("latin-1").split("\r\n")
    parts = request_line.split(" ", 2)
    if len(parts) != 3:
        raise ValueError("malformed HTTP request")
    method, target, version = parts
    headers: dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError("malformed HTTP request")
        headers[name.strip().lower()] = value.strip()
    digits = headers.get("content-length") or "0"
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("malformed HTTP request")
    length = int(digits)
    if length > MAX_REQUEST_BYTES:
        raise ValueError("request body too large")
    keep_alive = (version == "HTTP/1.1"
                  and headers.get("connection", "").lower() != "close")
    return method.upper(), target, keep_alive, length


def _route_label(path: str) -> str:
    """Collapse per-resource paths to one label value (bounded cardinality)."""
    for prefix, label in (("/v1/runs/", "/v1/runs/<key>"),
                          ("/v1/jobs/", "/v1/jobs/<id>")):
        if path.startswith(prefix):
            return label + ("/events" if path.endswith("/events") else "")
    return path


def _json_object(body: bytes) -> dict:
    try:
        data = json.loads(body.decode("utf-8") or "null")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"request body is not valid JSON: {exc}") \
            from exc
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"expected a JSON object body, got {type(data).__name__}")
    return data


# -- entry points ------------------------------------------------------------


def serve_forever(config: ServiceConfig) -> int:
    """Run a service until SIGTERM/SIGINT, drain, and return an exit code
    (0 = drained clean; 1 = drain grace expired with work outstanding —
    the journal re-enqueues it on the next start)."""

    async def _main() -> bool:
        service = CampaignService(config)
        loop = asyncio.get_running_loop()
        host, port = await service.start()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(sig, service.request_shutdown)
        print(f"repro serve: listening on http://{host}:{port} "
              f"(store={config.store_path}, journal={config.journal}, "
              f"workers={config.workers})", file=sys.stderr, flush=True)
        drained = await service.run_until_drained()
        outcome = ("drained clean" if drained
                   else f"drain grace ({config.drain_grace:g}s) expired; "
                        "incomplete jobs remain journaled")
        print(f"repro serve: {outcome}; {len(service.jobs)} job(s) this "
              f"session, store {config.store_path} has {len(service.store)} "
              "result(s)", file=sys.stderr, flush=True)
        return drained

    try:
        drained = asyncio.run(_main())
    except KeyboardInterrupt:  # signal handler unavailable (rare platforms)
        return 130
    if not drained:
        # A stuck executor thread would block interpreter exit; the
        # journal and store are already fsynced per record.
        sys.stderr.flush()
        os._exit(1)
    return 0


class EmbeddedService:
    """A service on a background thread — tests and programmatic embedding.

    .. code-block:: python

        from repro.service import Client, EmbeddedService, ServiceConfig

        with EmbeddedService(ServiceConfig(store_path="store.jsonl",
                                           port=0)) as (host, port):
            client = Client(host, port)
            job = client.submit_campaign({"graph": "ring:3"}, runs=4)
            client.wait(job["job"])

    ``port=0`` binds an ephemeral port; :meth:`start` returns the real
    address.  :meth:`shutdown` requests the same graceful drain SIGTERM
    would and joins the thread.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.service: Optional[CampaignService] = None
        self.address: "tuple[str, int] | None" = None
        self.drained: Optional[bool] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = None
        self._started = None
        self._error: Optional[BaseException] = None

    def start(self) -> "tuple[str, int]":
        import threading

        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service")
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ConfigurationError("service failed to start within 30s")
        if self._error is not None:
            raise self._error
        return self.address

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup/runtime failures
            self._error = exc
            self._started.set()

    async def _main(self) -> None:
        self.service = CampaignService(self.config)
        self._loop = asyncio.get_running_loop()
        self.address = await self.service.start()
        self._started.set()
        self.drained = await self.service.run_until_drained()

    def shutdown(self, timeout: float = 30.0) -> bool:
        """Graceful drain; returns True when the drain completed clean."""
        if self._loop is not None and self.service is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(
                    self.service.request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        return bool(self.drained)

    def __enter__(self) -> "tuple[str, int]":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
