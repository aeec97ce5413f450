"""The service's connection contract (docs/service.md, "Connections").

Raw sockets unless a test says otherwise: the point is what goes over
the wire — which responses say ``Connection: keep-alive``, what ends a
connection, what a drain does to the idle ones — not what ``Client``
makes of it.  The ``Client`` tests pin its half: one socket reused
across calls, one transparent re-dial when the service idled it out,
correctness when threads share it.
"""

import json
import socket
import sys
import threading
import time

import pytest

from repro.service import Client, EmbeddedService, ServiceConfig
from repro.service import server as server_module
from repro.service.encoding import execute_spec_payload, payload_bytes

SPEC = {"graph": "ring:3", "seed": 23, "max_time": 200.0}


@pytest.fixture()
def service(tmp_path):
    config = ServiceConfig(store_path=str(tmp_path / "store.jsonl"), port=0)
    embedded = EmbeddedService(config)
    address = embedded.start()
    yield address, embedded
    assert embedded.shutdown() is True, "service must drain clean"


def request(method="GET", path="/healthz", body=b"", version="HTTP/1.1",
            headers=()):
    lines = [f"{method} {path} {version}", "Host: test", *headers]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body


def read_response(rfile):
    """``(status, headers, body)`` of the next response on the stream."""
    status = int(rfile.readline().split()[1])
    headers = {}
    for line in iter(rfile.readline, b"\r\n"):
        assert line, "EOF inside a response head"
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = rfile.read(int(headers["content-length"]))
    return status, headers, body


def series(metrics_text, name):
    for line in metrics_text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[-1])
    raise AssertionError(f"{name} not in /metrics")


def store_spec(address, spec=SPEC):
    """Run ``spec`` through the service so it is a hit from now on."""
    client = Client(*address)
    try:
        sub = client.submit_run(spec)
        assert client.wait(sub["job"], timeout=120)["state"] == "done"
        return sub["spec_key"]
    finally:
        client.close()


# -- what keeps a connection open, what ends it ------------------------------


def test_sequential_requests_share_one_connection(service):
    address, _ = service
    with socket.create_connection(address, timeout=10) as sock:
        rfile = sock.makefile("rb")
        for path in ("/healthz", "/v1/jobs", "/v1/runs/nope"):
            sock.sendall(request(path=path))
            status, headers, body = read_response(rfile)
            assert headers["connection"] == "keep-alive"
            assert status == (404 if path.endswith("nope") else 200)
            json.loads(body)
        metrics = Client(*address)
        try:
            text = metrics.metrics()
        finally:
            metrics.close()
    # this socket and the scraping client's: two connections, four requests
    assert series(text, "repro_service_connections_accepted") == 2
    assert series(text, "repro_service_connections_open") == 2


def test_pipelined_requests_are_answered_in_order(service):
    address, _ = service
    with socket.create_connection(address, timeout=10) as sock:
        rfile = sock.makefile("rb")
        sock.sendall(request(path="/v1/jobs")
                     + request("POST", "/v1/runs", body=b"[]"))
        first = read_response(rfile)
        second = read_response(rfile)
    assert first[0] == 200 and json.loads(first[2]) == {"jobs": []}
    assert second[0] == 400 and "JSON object" in json.loads(second[2])["error"]
    assert first[1]["connection"] == second[1]["connection"] == "keep-alive"


@pytest.mark.parametrize("raw", [
    request(headers=("Connection: close",)),
    request(headers=("connection: Close",)),
    request(version="HTTP/1.0"),
    request(version="HTTP/1.0", headers=("Connection: keep-alive",)),
], ids=["close", "close-any-case", "http10", "http10-keep-alive"])
def test_close_and_http10_requests_end_the_connection(service, raw):
    address, _ = service
    with socket.create_connection(address, timeout=10) as sock:
        rfile = sock.makefile("rb")
        sock.sendall(raw)
        status, headers, body = read_response(rfile)
        assert status == 200 and json.loads(body)["ok"] is True
        assert headers["connection"] == "close"
        assert rfile.read() == b""  # EOF, not a parked connection


@pytest.mark.parametrize("value", ["abc", "-5", "1e3", "\xb2"])
def test_unframeable_content_length_is_a_400_and_closes(service, value):
    """A client's framing error is the client's (400), is not booked as
    a service fault, and ends the connection — where the next request
    starts is unknowable."""
    address, embedded = service
    with socket.create_connection(address, timeout=10) as sock:
        rfile = sock.makefile("rb")
        sock.sendall(request("POST", "/v1/runs",
                             headers=(f"Content-Length: {value}",))
                     + request())
        status, headers, body = read_response(rfile)
        assert status == 400
        assert json.loads(body) == {"error": "malformed HTTP request"}
        assert headers["connection"] == "close"
        assert rfile.read() == b""  # the pipelined second request is dropped
    snap = embedded.service.registry.snapshot()
    assert snap.counter_value("service.errors") == 0
    assert snap.counter_value('service.responses{code="400"}') == 1


def test_oversize_and_malformed_heads_still_answer_400_and_close(service):
    address, _ = service
    too_large = server_module.MAX_REQUEST_BYTES + 1
    for raw, error in (
            (request("POST", "/v1/runs",
                     headers=(f"Content-Length: {too_large}",)),
             "request body too large"),
            (b"GET /healthz\r\n\r\n", "malformed HTTP request"),
            (b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n",
             "malformed HTTP request")):
        with socket.create_connection(address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(raw)
            status, headers, body = read_response(rfile)
            assert (status, json.loads(body)) == (400, {"error": error})
            assert headers["connection"] == "close"
            assert rfile.read() == b""


def test_idle_connection_is_closed_after_request_timeout(service, monkeypatch):
    address, _ = service
    monkeypatch.setattr(server_module, "REQUEST_TIMEOUT", 0.2)
    with socket.create_connection(address, timeout=10) as sock:
        rfile = sock.makefile("rb")
        sock.sendall(request())
        assert read_response(rfile)[1]["connection"] == "keep-alive"
        t0 = time.monotonic()
        assert rfile.read() == b""  # the service hangs up, unprompted
        assert 0.1 < time.monotonic() - t0 < 5.0


# -- the SSE stream stays close-delimited ------------------------------------


def test_sse_stream_ends_in_eof_and_the_client_carries_on(service):
    address, _ = service
    client = Client(*address)
    try:
        job = client.submit_run(SPEC)["job"]
        with socket.create_connection(address, timeout=120) as sock:
            sock.sendall(request(path=f"/v1/jobs/{job}/events"))
            stream = sock.makefile("rb").read()  # returns only on EOF
        head, _, events = stream.partition(b"\r\n\r\n")
        assert b"Connection: close" in head
        assert b"Content-Length" not in head
        assert events.rstrip().splitlines()[-2] == b"event: end"

        records = list(client.events(job))  # the client's own SSE dial
        assert records[-1]["event"] == "end"
        assert client.job(job)["state"] == "done"  # its connection lives on
        assert client.health()["ok"] is True
    finally:
        client.close()


# -- the client's half ------------------------------------------------------


def test_client_reuses_one_connection_across_calls(service):
    address, _ = service
    client = Client(*address)
    try:
        before = series(client.metrics(), "repro_service_connections_accepted")
        for _ in range(5):
            client.health()
            client.jobs()
        text = client.metrics()
    finally:
        client.close()
    assert series(text, "repro_service_connections_accepted") == before == 1
    assert series(text, "repro_service_connections_open") == 1


def test_client_redials_once_when_the_service_idled_it_out(service,
                                                           monkeypatch):
    address, _ = service
    monkeypatch.setattr(server_module, "REQUEST_TIMEOUT", 0.2)
    client = Client(*address)
    try:
        client.health()
        before = series(client.metrics(), "repro_service_connections_accepted")
        time.sleep(0.5)  # the service closes the idle connection meanwhile
        assert client.health()["ok"] is True  # transparently
        after = series(client.metrics(), "repro_service_connections_accepted")
    finally:
        client.close()
    assert after == before + 1


def test_client_shared_by_threads_gets_every_body_right(service):
    address, _ = service
    specs = [dict(SPEC, seed=seed) for seed in (1, 2, 3)]
    keys = [store_spec(address, spec) for spec in specs]
    expected = [payload_bytes(execute_spec_payload(spec)) for spec in specs]
    client = Client(*address)
    wrong: list = []

    def worker(offset: int) -> None:
        for i in range(50):
            n = (offset + i) % len(specs)
            try:
                if i % 2:
                    body = client.result_bytes(keys[n])
                else:
                    sub = client.submit_run(specs[n])
                    assert sub["cached"] is True and sub["spec_key"] == keys[n]
                    body = payload_bytes(sub["result"])
                if body != expected[n]:
                    wrong.append((offset, i, "bytes differ"))
            except Exception as exc:  # surfaced by the assert below
                wrong.append((offset, i, repr(exc)))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        client.close()
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


# -- drain --------------------------------------------------------------------


def _quiet_shutdown(embedded, capfd, caplog):
    t0 = time.monotonic()
    assert embedded.shutdown() is True
    assert time.monotonic() - t0 < 1.0
    assert capfd.readouterr().err == ""
    # under pytest asyncio's "Exception in callback" goes to the log
    # capture, not to stderr
    assert [r.getMessage() for r in caplog.records] == []


def test_drain_with_an_idle_client_is_prompt_and_silent(tmp_path, capfd,
                                                        caplog):
    embedded = EmbeddedService(ServiceConfig(
        store_path=str(tmp_path / "store.jsonl"), port=0))
    client = Client(*embedded.start())
    try:
        client.health()
        client.jobs()
        _quiet_shutdown(embedded, capfd, caplog)
        assert embedded.service._connections == set()
    finally:
        client.close()


@pytest.mark.parametrize("warm", [True, False],
                         ids=["after-a-request", "before-any-request"])
def test_drain_with_a_parked_raw_socket_is_prompt_and_silent(
        tmp_path, capfd, caplog, warm):
    embedded = EmbeddedService(ServiceConfig(
        store_path=str(tmp_path / "store.jsonl"), port=0))
    address = embedded.start()
    with socket.create_connection(address, timeout=10) as sock:
        rfile = sock.makefile("rb")
        if warm:
            sock.sendall(request())
            assert read_response(rfile)[1]["connection"] == "keep-alive"
        else:
            probe = Client(*address)  # returns once the socket is accepted
            probe.health()
            probe.close()
        _quiet_shutdown(embedded, capfd, caplog)
        assert rfile.read() == b""  # the drain closed it, not the peer


def test_request_during_drain_is_answered_connection_close(service):
    address, embedded = service

    def set_draining(value: bool) -> None:
        # on the loop, as request_shutdown does it: a handler never sees
        # the flag flip between writing a response and parking
        flipped = threading.Event()
        embedded._loop.call_soon_threadsafe(
            lambda: (setattr(embedded.service, "draining", value),
                     flipped.set()))
        assert flipped.wait(timeout=10)

    with socket.create_connection(address, timeout=10) as sock:
        rfile = sock.makefile("rb")
        sock.sendall(request())
        assert read_response(rfile)[1]["connection"] == "keep-alive"
        set_draining(True)
        try:
            sock.sendall(request())
            status, headers, body = read_response(rfile)
            assert status == 200 and json.loads(body)["draining"] is True
            assert headers["connection"] == "close"
            assert rfile.read() == b""
        finally:
            set_draining(False)
