"""Detector-addressable specs through the campaign service.

The service needed zero code for the detector registry: a submitted
spec's ``detector`` / ``detector_params`` fields ride through the same
``RunSpec.from_dict`` validation and ``spec_hash`` content addressing as
every other field.  These tests pin that contract — non-default
detectors execute, cache independently per detector, and bad names are
rejected at submission time with the registry's error message.
"""

import pytest

import repro
from repro.service import Client, EmbeddedService, ServiceConfig, ServiceError
from repro.service.encoding import payload_bytes, result_payload

BASE = {"graph": "ring:3", "seed": 23, "max_time": 200.0}


@pytest.fixture()
def service(tmp_path):
    config = ServiceConfig(store_path=str(tmp_path / "store.jsonl"), port=0)
    embedded = EmbeddedService(config)
    client = Client(*embedded.start())
    yield client, embedded
    # the client's keep-alive connection is still open and idle here
    assert embedded.shutdown() is True, "service must drain clean"
    client.close()


def test_detector_spec_executes_byte_identically(service):
    client, _ = service
    spec = dict(BASE, detector="trusting")
    sub = client.submit_run(spec)
    assert sub["cached"] is False
    final = client.wait(sub["job"], timeout=120)
    assert final["state"] == "done" and final["done"] == 1

    served = client.result_bytes(sub["spec_key"])
    local = payload_bytes(result_payload(repro.run(spec)))
    assert served == local


def test_detectors_cache_independently(service):
    # Same scenario, different detectors: distinct spec keys, no false
    # cache hit between them — and the default-detector submission keys
    # identically to a spec that never mentions the field.
    client, _ = service
    keys = {}
    for detector in ("eventually_perfect", "perfect"):
        sub = client.submit_run(dict(BASE, detector=detector))
        assert sub["cached"] is False
        client.wait(sub["job"], timeout=120)
        keys[detector] = sub["spec_key"]
    assert keys["eventually_perfect"] != keys["perfect"]

    legacy = client.submit_run(dict(BASE))
    assert legacy["cached"] is True
    assert legacy["spec_key"] == keys["eventually_perfect"]


def test_unknown_detector_rejected_at_submission(service):
    client, _ = service
    with pytest.raises(ServiceError) as exc:
        client.submit_run(dict(BASE, detector="psychic"))
    assert "registered detectors" in str(exc.value)
