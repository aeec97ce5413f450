"""Client-side behavior that doesn't need a live service."""

import socket
import threading

import pytest

from repro.errors import ReproError
from repro.service.client import Client, ServiceError, _error_text


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_unreachable_service_raises_service_error():
    client = Client("127.0.0.1", free_port(), timeout=2.0)
    with pytest.raises(ServiceError, match="unreachable"):
        client.health()


def test_service_error_is_a_repro_error_with_status():
    err = ServiceError("boom", status=503)
    assert isinstance(err, ReproError)
    assert err.status == 503
    assert ServiceError("transport").status is None


def test_error_text_prefers_the_json_error_field():
    assert _error_text(b'{"error": "queue full"}') == "queue full"
    assert _error_text(b"plain text") == "plain text"
    assert _error_text(b"\xff\xfe") != ""  # degrades, never raises


class ScriptedServer:
    """A listener that answers each accepted connection per a script:
    ``"answer"`` serves one keep-alive ``/healthz``-shaped response and
    then hangs up, ``"hangup"`` closes without a byte."""

    BODY = b'{"ok":true}\n'

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        for action in self.script:
            conn, _ = self.sock.accept()
            with conn:
                if action == "answer":
                    self.requests.append(conn.recv(65536))
                    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                                 b"Connection: keep-alive\r\n\r\n%s"
                                 % (len(self.BODY), self.BODY))
                    # block until the client sends its next request, so
                    # the hang-up lands on a reused connection
                    self.requests.append(conn.recv(65536))
        self.sock.close()


def test_stale_connection_is_redialled_and_the_request_resent_once():
    server = ScriptedServer(["answer", "answer"])
    client = Client("127.0.0.1", server.port, timeout=5.0)
    try:
        assert client.health() == {"ok": True}
        # the first connection dies under the second call: one re-dial,
        # the same request again, and the caller never notices
        assert client.health() == {"ok": True}
    finally:
        client.close()
    server.thread.join(timeout=5)
    assert not server.thread.is_alive()
    heads = [r.split(b"\r\n")[0] for r in server.requests if r]
    assert heads == [b"GET /healthz HTTP/1.1"] * 3  # call 1, lost, re-sent


def test_a_redial_that_also_fails_raises_instead_of_looping():
    server = ScriptedServer(["answer", "hangup"])
    client = Client("127.0.0.1", server.port, timeout=5.0)
    try:
        assert client.health() == {"ok": True}
        with pytest.raises(ServiceError, match="unreachable"):
            client.health()
    finally:
        client.close()
    server.thread.join(timeout=5)
    assert not server.thread.is_alive()  # two accepts, not three


def test_fresh_connection_that_gets_no_answer_is_not_retried():
    server = ScriptedServer(["hangup"])
    client = Client("127.0.0.1", server.port, timeout=5.0)
    with pytest.raises(ServiceError, match="unreachable"):
        client.health()
    server.thread.join(timeout=5)
    assert not server.thread.is_alive()


def test_garbage_response_is_a_service_error():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b"SSH-2.0-not-http\r\n\r\n")
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        client = Client("127.0.0.1", listener.getsockname()[1], timeout=5.0)
        with pytest.raises(ServiceError, match="malformed status line"):
            client.health()
        thread.join(timeout=5)
