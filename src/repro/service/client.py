"""Programmatic client for the campaign service (stdlib sockets).

:class:`Client` wraps the service's HTTP protocol one method per
endpoint, raising :class:`ServiceError` (with the HTTP status) on error
responses.  ``repro submit`` is a thin CLI shim over this class; tests
and notebooks use it directly::

    from repro.service import Client

    client = Client("127.0.0.1", 8642)
    sub = client.submit_run({"graph": "ring:4", "seed": 7})
    if not sub["cached"]:
        client.wait(sub["job"])
    payload = client.result(sub["spec_key"])

A client keeps one persistent HTTP/1.1 connection to its service and
sends every call down it (request head and body in one write, behind a
lock, so an object shared by threads stays correct).  The service idles
connections out: a *reused* connection that dies before the first
response byte is re-dialled and the request re-sent once — submissions
are content-addressed, so a duplicated ``POST`` is at worst a second job
made of cache hits — while a *fresh* connection that fails raises
:class:`ServiceError`.  :meth:`Client.events` dials a connection of its
own, because the SSE stream is close-delimited and long-lived.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import time
from typing import Any, Iterator, Mapping, Optional

from repro.errors import ReproError
from repro.service.jobs import TERMINAL

#: Longest status or header line accepted from the service.
_MAX_LINE = 65536


class ServiceError(ReproError):
    """An error response (or transport failure) from the service."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class _Connection:
    """One dialled socket and its buffered read side."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile: io.BufferedReader = self.sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class Client:
    """One campaign service, as Python methods."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._conn: Optional[_Connection] = None

    def close(self) -> None:
        """Close the persistent connection (the next call re-dials)."""
        with self._lock:
            self._drop()

    # -- transport -----------------------------------------------------------

    def _encode(self, method: str, path: str,
                body: "Mapping[str, Any] | None" = None) -> bytes:
        """One request as the bytes of a single write."""
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
        if body is None:
            return (head + "\r\n").encode("latin-1")
        payload = json.dumps(body).encode("utf-8")
        return (f"{head}Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
                ).encode("latin-1") + payload

    def _unreachable(self, exc: Exception) -> ServiceError:
        return ServiceError(
            f"service at {self.host}:{self.port} unreachable: {exc}")

    def _drop(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _exchange(self, request: bytes) -> "tuple[int, bytes]":
        """Send one request down the persistent connection and read its
        response (caller holds the lock)."""
        reused = self._conn is not None
        while True:
            try:
                if self._conn is None:
                    self._conn = _Connection(self.host, self.port,
                                             self.timeout)
                conn = self._conn
                conn.sock.sendall(request)
                if not conn.rfile.peek(1):
                    raise ConnectionResetError(
                        "connection closed before any response byte")
            except OSError as exc:
                self._drop()
                # The service idled the connection out (or restarted)
                # since the last call; a timeout is a slow service, not
                # a stale socket, and is never re-sent.
                if reused and not isinstance(exc, TimeoutError):
                    reused = False
                    continue
                raise self._unreachable(exc) from exc
            try:
                status, headers = _read_head(conn.rfile)
                length = int(headers["content-length"])
                data = conn.rfile.read(length)
                if len(data) != length:
                    raise ValueError("response body truncated")
            except (OSError, ValueError, KeyError) as exc:
                self._drop()
                raise self._unreachable(exc) from exc
            if headers.get("connection", "").lower() == "close":
                self._drop()
            return status, data

    def _request(self, method: str, path: str,
                 body: "Mapping[str, Any] | None" = None,
                 expect: "tuple[int, ...]" = (200, 202)) -> "tuple[int, bytes]":
        request = self._encode(method, path, body)
        with self._lock:
            status, data = self._exchange(request)
        if status not in expect:
            raise ServiceError(
                f"{method} {path} -> {status}: {_error_text(data)}",
                status=status)
        return status, data

    def _json(self, method: str, path: str,
              body: "Mapping[str, Any] | None" = None,
              expect: "tuple[int, ...]" = (200, 202)) -> dict[str, Any]:
        _, data = self._request(method, path, body, expect)
        return json.loads(data)

    # -- endpoints -----------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._json("GET", "/healthz")

    def metrics(self) -> str:
        """The raw ``/metrics`` Prometheus textfile body."""
        _, data = self._request("GET", "/metrics", expect=(200,))
        return data.decode("utf-8")

    def submit_run(self, spec: Mapping[str, Any]) -> dict[str, Any]:
        """Submit one RunSpec dict.  Returns ``{"cached", "spec_key",
        "job", ...}`` — ``cached`` True means the result rode back in
        the response and no job was scheduled."""
        return self._json("POST", "/v1/runs", body=dict(spec))

    def submit_campaign(self, spec: Mapping[str, Any],
                        runs: Optional[int] = None,
                        seeds: "Optional[list[int]]" = None) -> dict[str, Any]:
        """Submit a seed fan-out of one base spec (``runs`` derived seeds,
        or an explicit ``seeds`` list)."""
        body: dict[str, Any] = {"spec": dict(spec)}
        if runs is not None:
            body["runs"] = int(runs)
        if seeds is not None:
            body["seeds"] = [int(s) for s in seeds]
        return self._json("POST", "/v1/campaigns", body=body)

    def result(self, spec_key: str) -> dict[str, Any]:
        """The cached ``repro.result.v1`` payload for a spec key."""
        return json.loads(self.result_bytes(spec_key))

    def result_bytes(self, spec_key: str) -> bytes:
        """The exact cached payload bytes (the byte-identity surface:
        equal to ``payload_bytes(result_payload(repro.run(spec)))``)."""
        _, data = self._request("GET", f"/v1/runs/{spec_key}",
                                expect=(200,))
        return data

    def job(self, job_id: str) -> dict[str, Any]:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> "list[dict[str, Any]]":
        return self._json("GET", "/v1/jobs")["jobs"]

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.1) -> dict[str, Any]:
        """Poll until the job reaches done/failed; returns the final
        snapshot (raises :class:`ServiceError` on timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            snap = self.job(job_id)
            if snap["state"] in TERMINAL:
                return snap
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {snap['state']!r} after "
                    f"{timeout:g}s")
            time.sleep(poll)

    def events(self, job_id: str,
               timeout: float = 300.0) -> Iterator[dict[str, Any]]:
        """Stream the job's SSE feed: yields each ``repro.progress.v1``
        heartbeat as a dict, then the terminal job snapshot (tagged
        ``"event": "end"``), then returns."""
        path = f"/v1/jobs/{job_id}/events"
        conn = None
        try:
            try:
                conn = _Connection(self.host, self.port, timeout)
                conn.sock.sendall(self._encode("GET", path))
                status, headers = _read_head(conn.rfile)
                if status != 200:
                    data = conn.rfile.read(
                        int(headers.get("content-length", 0)))
                    raise ServiceError(
                        f"GET {path} -> {status}: {_error_text(data)}",
                        status=status)
            except (OSError, ValueError) as exc:
                raise self._unreachable(exc) from exc
            event_name = None
            for raw in conn.rfile:
                line = raw.decode("utf-8").rstrip("\n").rstrip("\r")
                if line.startswith("event:"):
                    event_name = line.split(":", 1)[1].strip()
                elif line.startswith("data:"):
                    record = json.loads(line.split(":", 1)[1].strip())
                    if event_name == "end":
                        record["event"] = "end"
                        yield record
                        return
                    yield record
                elif not line:
                    event_name = None
        finally:
            if conn is not None:
                conn.close()


def _read_head(rfile: io.BufferedReader) -> "tuple[int, dict[str, str]]":
    """``(status, headers)`` of one response head — the mirror of the
    server's ``_parse_head``; ``ValueError`` when it is not HTTP."""
    parts = rfile.readline(_MAX_LINE).decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ValueError(f"malformed status line {parts!r}")
    headers: dict[str, str] = {}
    while True:
        line = rfile.readline(_MAX_LINE)
        if line in (b"\r\n", b"\n"):
            return int(parts[1]), headers
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()


def _error_text(data: bytes) -> str:
    try:
        return json.loads(data).get("error", data.decode("utf-8", "replace"))
    except (json.JSONDecodeError, AttributeError, UnicodeDecodeError):
        return data.decode("utf-8", "replace")[:200]
