"""End-to-end campaign service acceptance (repro.service.server).

Each test boots an :class:`EmbeddedService` on an ephemeral port and
drives it through the real HTTP surface with :class:`Client` — the same
wire path ``repro serve`` / ``repro submit`` use.  The two acceptance
invariants from the service's contract are pinned here:

* the bytes ``GET /v1/runs/<spec_key>`` serves are identical to what a
  local ``repro.run()`` of the same spec encodes to, and
* re-submitting an identical spec is a cache hit — answered from the
  store, hit counter incremented, **no job scheduled**.
"""

import json

import pytest

import repro
from repro.runtime.spec import RunSpec
from repro.runtime.store import canonical_spec, spec_hash
from repro.service import (
    Client,
    EmbeddedService,
    ServiceConfig,
    ServiceError,
)
from repro.service.encoding import payload_bytes, result_payload
from repro.service.jobs import Job
from repro.service.journal import JobJournal

SPEC = {"graph": "ring:3", "seed": 23, "max_time": 200.0}


@pytest.fixture()
def service(tmp_path):
    config = ServiceConfig(store_path=str(tmp_path / "store.jsonl"), port=0)
    embedded = EmbeddedService(config)
    client = Client(*embedded.start())
    yield client, embedded
    # the client's keep-alive connection is still open and idle here
    assert embedded.shutdown() is True, "service must drain clean"
    client.close()


def test_submit_wait_fetch_byte_identical(service):
    client, _ = service
    sub = client.submit_run(SPEC)
    assert sub["cached"] is False and sub["job"] == "j1"
    final = client.wait(sub["job"], timeout=120)
    assert final["state"] == "done"
    assert final["done"] == 1 and final["cached"] == 0

    served = client.result_bytes(sub["spec_key"])
    local = payload_bytes(result_payload(repro.run(SPEC)))
    assert served == local  # the acceptance invariant, byte for byte


def test_resubmit_is_cache_hit_without_a_job(service):
    client, embedded = service
    first = client.submit_run(SPEC)
    client.wait(first["job"], timeout=120)
    jobs_before = len(client.jobs())
    hits_before = _metric(client, "repro_store_hits")

    again = client.submit_run(SPEC)
    assert again["cached"] is True and again["job"] is None
    assert again["spec_key"] == first["spec_key"]
    assert again["result"]["schema"] == "repro.result.v1"
    assert len(client.jobs()) == jobs_before  # no job scheduled
    assert _metric(client, "repro_store_hits") == hits_before + 1


def test_campaign_fanout_then_full_cache_replay(service):
    client, _ = service
    sub = client.submit_campaign(SPEC, runs=3)
    assert sub["total"] == 3 and sub["cached_hint"] == 0
    assert len(sub["spec_keys"]) == len(set(sub["spec_keys"])) == 3
    final = client.wait(sub["job"], timeout=240)
    assert final["state"] == "done"
    assert final["done"] == 3 and final["cached"] == 0

    replay = client.submit_campaign(SPEC, runs=3)
    assert replay["cached_hint"] == 3
    assert replay["spec_keys"] == sub["spec_keys"]
    refinal = client.wait(replay["job"], timeout=60)
    assert refinal["done"] == 3 and refinal["cached"] == 3


def test_explicit_seeds_campaign(service):
    client, _ = service
    sub = client.submit_campaign(SPEC, seeds=[5, 6])
    final = client.wait(sub["job"], timeout=240)
    assert final["state"] == "done" and final["total"] == 2
    expected = [spec_hash(RunSpec.from_dict(dict(SPEC, seed=s)))
                for s in (5, 6)]
    assert sub["spec_keys"] == expected


def test_events_stream_heartbeats_then_end(service):
    client, _ = service
    sub = client.submit_campaign(SPEC, runs=2)
    events = list(client.events(sub["job"], timeout=240))
    assert events[-1].get("event") == "end"
    assert events[-1]["state"] == "done"
    beats = [e for e in events if e.get("schema") == "repro.progress.v1"]
    assert len(beats) == 2
    assert beats[-1]["done"] == 2 and beats[-1]["total"] == 2


def test_metrics_surface(service):
    client, _ = service
    sub = client.submit_campaign(SPEC, runs=2)
    client.wait(sub["job"], timeout=240)
    text = client.metrics()
    assert 'repro_service_jobs{state="done"} 2' not in text  # one job only
    assert 'repro_service_jobs{state="done"} 1' in text
    assert "repro_service_queue_depth 0" in text
    assert "repro_service_cache_hit_ratio" in text
    assert "repro_service_events_per_sec" in text
    assert _metric(client, "repro_service_runs_executed") == 2
    assert _metric(client, "repro_store_puts") == 2


def test_bad_requests(service):
    client, _ = service
    for bad in ({"max_time": -1.0}, {"algorithm": "nope"},
                {"algorithm": "deferred:abc"},
                {"detector": "flawed_cm", "detector_params": {"box": "bogus"}}):
        with pytest.raises(ServiceError) as err:
            client.submit_run({"graph": "ring:3", **bad})
        assert err.value.status == 400
    with pytest.raises(ServiceError) as err:
        client.submit_campaign(SPEC, runs=0)
    assert err.value.status == 400
    with pytest.raises(ServiceError) as err:
        client.result("deadbeef" * 8)
    assert err.value.status == 404
    with pytest.raises(ServiceError) as err:
        client.job("j999")
    assert err.value.status == 404
    with pytest.raises(ServiceError) as err:
        client._request("GET", "/v1/nothing-here")
    assert err.value.status == 404
    with pytest.raises(ServiceError) as err:
        client._request("DELETE", "/v1/jobs")
    assert err.value.status == 405
    with pytest.raises(ServiceError) as err:
        client._request("POST", "/v1/runs", body={"spec": []})
    assert err.value.status == 400
    assert client.health()["ok"] is True


def test_draining_service_refuses_submissions(service):
    import threading

    client, embedded = service

    def flip(value, flipped=None):
        embedded.service.draining = value
        if flipped is not None:
            flipped.set()

    flipped = threading.Event()
    embedded._loop.call_soon_threadsafe(flip, True, flipped)
    assert flipped.wait(5)
    with pytest.raises(ServiceError) as err:
        client.submit_run(SPEC)
    assert err.value.status == 503 and "draining" in str(err.value)
    # undo so the fixture's drain assertion still holds
    flipped = threading.Event()
    embedded._loop.call_soon_threadsafe(flip, False, flipped)
    assert flipped.wait(5)


def test_restart_reenqueues_incomplete_journaled_jobs(tmp_path):
    """A job that was submitted but never finished (previous process
    died) is re-enqueued on start with its original id and completed —
    served from the store where the first life already checkpointed.
    One journaled by an older release, whose spec the current
    ``RunSpec.from_dict`` rejects (the removed ``oracle`` key), fails
    cleanly with a one-line error and the daemon keeps serving."""
    store_path = tmp_path / "store.jsonl"
    config = ServiceConfig(store_path=str(store_path), port=0)

    spec = RunSpec.from_dict(dict(SPEC))
    stale = {**canonical_spec(spec), "oracle": "hb"}
    journal = JobJournal(config.journal)  # no terminal state for either
    journal.record_submit(Job("j3", "run", [stale], [spec_hash(spec)]))
    journal.record_submit(
        Job("j7", "run", [canonical_spec(spec)], [spec_hash(spec)]))

    embedded = EmbeddedService(config)
    client = Client(*embedded.start())
    try:
        failed = client.wait("j3", timeout=60)
        assert failed["state"] == "failed" and "\n" not in failed["error"]
        assert "unknown scenario keys: ['oracle']" in failed["error"]
        final = client.wait("j7", timeout=120)
        assert final["state"] == "done" and final["done"] == 1
        assert "repro_service_jobs_recovered 2" in client.metrics()
    finally:
        assert embedded.shutdown() is True
        client.close()

    # Second restart: j7 is terminal in the journal now — history, not work.
    embedded = EmbeddedService(config)
    client = Client(*embedded.start())
    try:
        snap = client.job("j7")
        assert snap["state"] == "done" and snap["done"] == 1
        # and new ids continue past recovered ones
        sub = client.submit_campaign(SPEC, runs=2)
        assert sub["job"] == "j8"
        client.wait(sub["job"], timeout=60)
    finally:
        assert embedded.shutdown() is True
        client.close()


# The CLI and the service store the same repro.result.v1 envelope under the
# same spec_hash, so what either surface computed is a hit for the other.
SWEPT = {"name": "svc", "graph": "ring:3", "seed": 7, "max_time": 200.0}

#: Knobs that change what an envelope holds: spans ride along iff
#: ``spans``; a ``counters`` run is unchecked, so every verdict field in
#: its summary is None.  Only ``spans`` is also a ChaosConfig knob: chaos
#: runs always keep their rows and are judged.
CONFIGS = {"default": {}, "spans": {"spans": True},
           "counters": {"trace": "counters"}}
cross_surface = pytest.mark.parametrize("knobs", CONFIGS.values(),
                                        ids=CONFIGS)


def _sweep(tmp_path, capsys, spec, *extra):
    """``repro sweep`` over two seeds: (stdout, stderr, metrics, spans)."""
    from repro.cli import main

    path, metrics, spans = (tmp_path / name for name in
                            ("spec.json", "metrics.jsonl", "spans.jsonl"))
    path.write_text(json.dumps(spec))
    if spec.get("spans"):
        extra += ("--spans-out", str(spans))
    capsys.readouterr()
    assert main(["sweep", str(path), "--seed", "7", "--seeds", "2",
                 "--metrics-out", str(metrics), *extra]) == 0
    captured = capsys.readouterr()
    return (captured.out, captured.err, metrics.read_text(),
            spans.read_text() if spec.get("spans") else None)


def _chaos_cfg(knobs):
    from repro.chaos import ChaosConfig

    return ChaosConfig(campaigns=2, seed=3, max_time=200.0,
                       spans=knobs.get("spans", False))


def _chaos_specs(cfg) -> list:
    from repro.chaos import build_run, fanout_seeds

    return [canonical_spec(build_run(seed, cfg))
            for seed in fanout_seeds(cfg.seed, cfg.campaigns)]


def _assert_one_shape(store_path, knobs) -> int:
    """Every entry is the one envelope; returns how many there are."""
    from repro.runtime.store import ResultStore

    keys = {"record", "schema", "spec_key"}
    if knobs.get("spans"):
        keys.add("spans")
    items = ResultStore(store_path).items()
    for key, payload in items:
        assert set(payload) == keys
        assert payload["schema"] == "repro.result.v1"
        assert payload["spec_key"] == key
        assert "verdict" not in payload["record"]
    return len(items)


@cross_surface
def test_service_written_entries_are_hits_for_cli_resume(tmp_path, capsys,
                                                         knobs):
    from repro.chaos import run_campaign
    from repro.runtime.store import ResultStore

    store_path = str(tmp_path / "store.jsonl")
    spec, cfg = dict(SWEPT, **knobs), _chaos_cfg(knobs)
    with EmbeddedService(ServiceConfig(store_path=store_path,
                                       port=0)) as (host, port):
        client = Client(host, port)
        jobs = [client.submit_campaign(spec, runs=2)["job"]]
        jobs += [client.submit_run(s)["job"] for s in _chaos_specs(cfg)]
        for job in jobs:
            assert client.wait(job, timeout=120)["state"] == "done"
        client.close()
    assert _assert_one_shape(store_path, knobs) == 4

    out, _, metrics, spans = _sweep(tmp_path, capsys, spec)
    resumed = _sweep(tmp_path, capsys, spec, "--store", store_path,
                     "--resume")
    assert (resumed[0], resumed[2], resumed[3]) == (out, metrics, spans)
    assert "2 cache hit(s), 0 new result(s), 4 total" in resumed[1]

    store = ResultStore(store_path)
    campaign = run_campaign(cfg, store=store, resume=True)
    fresh = run_campaign(cfg)
    # dumps: `chaos --json` prints it unsorted, so key order is output too
    assert json.dumps(campaign.to_json()) == json.dumps(fresh.to_json())
    assert campaign.run_records() == fresh.run_records()
    assert campaign.span_records() == fresh.span_records()
    assert bool(fresh.span_records()) == ("spans" in knobs)
    stats = store.stats()
    assert stats["store.hits"] == 2 and "store.puts" not in stats


@cross_surface
def test_cli_written_entries_are_hits_for_the_service(tmp_path, capsys,
                                                      knobs):
    from repro.chaos import run_campaign
    from repro.runtime.store import ResultStore

    store_path = str(tmp_path / "store.jsonl")
    spec, cfg = dict(SWEPT, **knobs), _chaos_cfg(knobs)
    _sweep(tmp_path, capsys, spec, "--store", store_path)
    run_campaign(cfg, store=ResultStore(store_path))
    assert _assert_one_shape(store_path, knobs) == 4
    shards = [dict(spec, seed=int(seed)) for seed in repro.fanout_seeds(7, 2)]

    with EmbeddedService(ServiceConfig(store_path=store_path,
                                       port=0)) as (host, port):
        client = Client(host, port)
        for shard in shards + _chaos_specs(cfg):
            key = spec_hash(RunSpec.from_dict(shard))
            assert client.result_bytes(key) == \
                payload_bytes(result_payload(repro.run(shard)))
            sub = client.submit_run(shard)
            assert sub["cached"] is True and sub["job"] is None
            assert sub["spec_key"] == key
        assert client.jobs() == []
        assert _metric(client, "repro_store_misses") == 0
        client.close()


def _metric(client: Client, name: str) -> float:
    """One /metrics sample value; absent means the counter was never
    incremented (the registry creates them lazily), which reads as 0."""
    for line in client.metrics().splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            return float(line.rsplit(" ", 1)[1])
    return 0.0
