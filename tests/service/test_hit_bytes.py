"""A cache hit serves bytes encoded once per stored payload.

``POST /v1/runs`` answered from the store splices the stored result's
``payload_bytes`` into its body, and the ``GET /v1/runs/<key>`` that
follows sends the same bytes.  Pinned here: the spliced body is byte for
byte what encoding the whole response would give, the encode happens
once per stored payload object a POST hits, a fetch no POST has hit
keeps nothing, a ``put`` that replaces a key's payload is served at the
next hit, and every hit still counts on ``/metrics``.
"""

import json

import pytest

from repro.runtime.spec import RunSpec
from repro.runtime.store import spec_hash
from repro.service import Client, EmbeddedService, ServiceConfig
from repro.service import server as server_module
from repro.service.encoding import execute_spec_payload, payload_bytes

SPEC = {"graph": "ring:3", "seed": 23, "max_time": 200.0}


@pytest.fixture()
def service(tmp_path):
    config = ServiceConfig(store_path=str(tmp_path / "store.jsonl"), port=0)
    embedded = EmbeddedService(config)
    client = Client(*embedded.start())
    yield client, embedded
    assert embedded.shutdown() is True, "service must drain clean"
    client.close()


@pytest.fixture()
def encodes(monkeypatch):
    """Count the service's calls of its module-global ``payload_bytes``."""
    calls = []

    def spy(payload):
        calls.append(payload)
        return payload_bytes(payload)

    monkeypatch.setattr(server_module, "payload_bytes", spy)
    return calls


def store(embedded, spec, payload=None) -> str:
    """Put ``spec``'s result (or ``payload``) under its key; a hit from now."""
    key = spec_hash(RunSpec.from_dict(spec))
    embedded.service.store.put(
        key, execute_spec_payload(spec) if payload is None else payload)
    return key


def post_body(client, spec) -> bytes:
    status, body = client._request("POST", "/v1/runs", dict(spec))
    assert status == 200
    return body


def expected_hit(key, payload) -> bytes:
    return (json.dumps({"cached": True, "spec_key": key, "job": None,
                        "result": payload},
                       sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


@pytest.mark.parametrize("spec", [
    SPEC,
    dict(SPEC, spans=True),
    dict(SPEC, name="ε-ring ☃"),  # escaped the same way on both paths
], ids=["plain", "spans", "non-ascii"])
def test_hit_body_is_the_whole_response_encoded(service, spec):
    client, embedded = service
    key = store(embedded, spec)
    payload = embedded.service.store.get(key)
    for _ in range(2):  # the encoding hit and the kept-bytes hit
        assert post_body(client, spec) == expected_hit(key, payload)
    assert client.result_bytes(key) == payload_bytes(payload)


def test_fifty_hit_round_trips_encode_once(service, encodes):
    client, embedded = service
    key = store(embedded, SPEC)
    served = payload_bytes(embedded.service.store.get(key))
    for _ in range(50):
        assert client.submit_run(SPEC)["cached"] is True
        assert client.result_bytes(key) == served
    assert len(encodes) == 1


def test_a_miss_fetch_keeps_nothing(service, encodes):
    client, embedded = service
    sub = client.submit_run(SPEC)
    assert sub["cached"] is False
    assert client.wait(sub["job"], timeout=120)["state"] == "done"
    first = client.result_bytes(sub["spec_key"])
    assert client.result_bytes(sub["spec_key"]) == first
    assert len(encodes) == 2  # nothing kept, so each fetch encodes
    assert embedded.service._encoded == {}


def test_a_replaced_payload_is_served_at_the_next_hit(service):
    client, embedded = service
    key = store(embedded, SPEC)
    old = client.submit_run(SPEC)["result"]
    new = dict(old, note="replaced")
    embedded.service.store.put(key, new)
    for _ in range(2):
        assert post_body(client, SPEC) == expected_hit(key, new)
        assert client.result_bytes(key) == payload_bytes(new)


def test_every_hit_round_trip_counts_two_store_hits(service):
    client, embedded = service
    key = store(embedded, SPEC)

    def hits():
        for line in client.metrics().splitlines():
            if line.startswith("repro_store_hits "):
                return float(line.split()[-1])
        return 0.0

    for _ in range(3):
        before = hits()
        assert client.submit_run(SPEC)["cached"] is True
        client.result_bytes(key)
        assert hits() - before == 2
