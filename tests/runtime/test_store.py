"""Content-addressed store: hashing, durability, and resumable_map."""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ExecutionError
from repro.runtime import RunSpec, SupervisedExecutor
from repro.runtime.store import (
    SPEC_HASH_VERSION,
    ResultStore,
    resumable_map,
    spec_hash,
)

_pids = st.sampled_from(["p0", "p1", "p2", "p3"])
_times = st.floats(min_value=0.0, max_value=900.0, allow_nan=False)
_specs = st.builds(
    RunSpec,
    name=st.text(max_size=8),
    graph=st.sampled_from(["ring:4", "clique:4", "grid:2x2"]),
    seed=st.integers(min_value=0, max_value=2**63),
    crashes=st.dictionaries(_pids, _times, max_size=3),
    drop=st.floats(min_value=0.0, max_value=1.0),
    partition=st.none() | st.fixed_dictionaries({
        "side": st.lists(_pids, min_size=1, max_size=3, unique=True),
        "start": _times, "end": _times}),
    transport=st.none() | st.booleans() | st.fixed_dictionaries({
        "rto_initial": _times, "rto_max": _times}),
    slow=st.none() | st.fixed_dictionaries({
        "endpoint": _pids, "factor": st.floats(min_value=1.0, max_value=4.0),
        "extra_max": _times, "until": _times}),
    spans=st.booleans(),
    detector_params=st.fixed_dictionaries({}, optional={
        "heartbeat_period": st.integers(min_value=1, max_value=9),
        "initial_timeout": st.integers(min_value=1, max_value=40),
        "backoff": st.floats(min_value=1.0, max_value=3.0)}),
)


class TestSpecHash:
    def test_equal_specs_hash_equal(self):
        a = RunSpec(graph="ring:4", seed=7, max_time=500.0)
        b = RunSpec(graph="ring:4", seed=7, max_time=500.0)
        assert spec_hash(a) == spec_hash(b)

    def test_construction_path_does_not_matter(self):
        kwargs = RunSpec(graph="ring:4", seed=7, crashes={"p1": 100.0})
        roundtrip = RunSpec.from_dict(json.loads(json.dumps(
            {"graph": "ring:4", "seed": 7, "crashes": {"p1": 100.0}})))
        assert spec_hash(kwargs) == spec_hash(roundtrip)

    def test_any_field_change_changes_the_hash(self):
        base = RunSpec(graph="ring:4", seed=7)
        assert spec_hash(base) != spec_hash(RunSpec(graph="ring:4", seed=8))
        assert spec_hash(base) != spec_hash(RunSpec(graph="ring:5", seed=7))
        assert spec_hash(base) != spec_hash(
            RunSpec(graph="ring:4", seed=7, trace="counters"))

    def test_hash_is_stable_across_sessions(self):
        h = spec_hash(RunSpec(graph="ring:3", seed=1, max_time=100.0))
        assert len(h) == 64 and h == spec_hash(
            RunSpec(graph="ring:3", seed=1, max_time=100.0))

    def test_chaos_built_spec_keeps_its_key(self):
        # The one pinned digest (salt repro.spec.v7): a changed canonical
        # encoding silently invalidates every existing store, so it must
        # show up as a test diff, not a mystery cache miss.
        from repro.chaos import ChaosConfig, build_run
        spec = build_run(2885616951, ChaosConfig(max_time=400.0))
        assert spec_hash(spec) == ("dfdac18a91827b313fc8c9b298cf009e"
                                   "28555d123b2a1ff9868d605e4c3c635d")

    @settings(max_examples=200, deadline=None)
    @given(_specs)
    def test_field_walk_hashes_as_the_deep_copy_did(self, spec):
        # spec_hash no longer deep-copies the spec through asdict; the
        # bytes it hashes must be the ones asdict's encoding produced.
        blob = json.dumps(
            {"version": SPEC_HASH_VERSION, "spec": dataclasses.asdict(spec)},
            sort_keys=True, separators=(",", ":"), default=str)
        assert spec_hash(spec) == hashlib.sha256(
            blob.encode("utf-8")).hexdigest()

    def test_non_default_detector_changes_the_key(self):
        base = RunSpec(graph="ring:4", seed=7)
        omega = RunSpec(graph="ring:4", seed=7, detector="omega")
        tuned = RunSpec(graph="ring:4", seed=7,
                        detector_params={"initial_timeout": 20})
        assert len({spec_hash(base), spec_hash(omega),
                    spec_hash(tuned)}) == 3

    def test_explicit_default_detector_is_the_default_key(self):
        # Spelling the default out must not fork the cache.
        assert spec_hash(RunSpec(detector="eventually_perfect")) == \
            spec_hash(RunSpec())


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        assert store.get("k") is None
        store.put("k", {"b": 2, "a": 1})
        assert store.get("k") == {"b": 2, "a": 1}
        assert "k" in store and len(store) == 1

    def test_payload_key_order_survives_reload(self, tmp_path):
        # Byte-identical resume depends on dict insertion order
        # round-tripping through the store (no sort_keys on payloads).
        path = tmp_path / "s.jsonl"
        ResultStore(path).put("k", {"zeta": 1, "alpha": 2})
        assert list(ResultStore(path).get("k")) == ["zeta", "alpha"]

    def test_last_write_wins_on_duplicate_keys(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.put("k", {"v": 1})
        store.put("k", {"v": 2})
        assert ResultStore(path).get("k") == {"v": 2}

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.put("k1", {"v": 1})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro.store.v1", "key": "k2", "pay')
        reopened = ResultStore(path)
        assert reopened.get("k1") == {"v": 1}
        assert "k2" not in reopened
        assert reopened.metrics.snapshot().counters[
            "store.corrupt_lines"] == 1

    def test_corrupt_interior_line_is_an_error(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.put("k1", {"v": 1})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
        store.put("k2", {"v": 2})  # the corruption is now interior
        with pytest.raises(ExecutionError, match="corrupt store line"):
            ResultStore(path)

    def test_put_after_a_torn_tail_does_not_weld(self, tmp_path):
        # A writer crashed mid-append; the next put must land on a line of
        # its own, so the open after that holds the old and the new entry.
        path = tmp_path / "s.jsonl"
        ResultStore(path).put("k1", {"v": 1})
        whole = path.read_bytes()
        with open(path, "ab") as fh:
            fh.write(whole[:-9])  # k1's line again, minus its tail
        survivor = ResultStore(path)
        survivor.put("k2", {"v": 2})
        reopened = ResultStore(path)
        assert reopened.get("k1") == {"v": 1}
        assert reopened.get("k2") == {"v": 2}
        assert len(reopened) == 2
        assert reopened.stats()["store.corrupt_lines"] == 1

    def test_a_tail_torn_anywhere_is_survived(self, tmp_path):
        # Every cut point of a record, including the ones that leave a
        # fragment ending in "}}" (which a bare-newline terminator would
        # turn into a well-framed line with a damaged body).
        payload = {"a": {"b": {"c": 1}}, "d": [2]}
        record = (json.dumps({"schema": "repro.store.v1", "key": "torn",
                              "payload": payload},
                             separators=(",", ":")) + "\n").encode()
        path = tmp_path / "s.jsonl"
        for cut in range(1, len(record)):
            path.write_bytes(record.replace(b"torn", b"kept") + record[:cut])
            ResultStore(path).put("next", {"v": cut})
            reopened = ResultStore(path)
            want = {"kept": payload, "next": {"v": cut}}
            # cut just before the newline: the record itself was whole
            lost = 0 if cut == len(record) - 1 else 1
            if not lost:
                want["torn"] = payload
            assert dict(reopened.items()) == want, cut
            assert reopened.stats().get("store.corrupt_lines", 0) == lost, cut

    def test_directory_path_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="is a directory"):
            ResultStore(tmp_path)

    def test_missing_parent_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            ResultStore(tmp_path / "nope" / "s.jsonl")

    def test_hit_miss_counters(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.put("k", {"v": 1})
        store.get("k")
        store.get("absent")
        stats = store.stats()
        assert stats["store.hits"] == 1
        assert stats["store.misses"] == 1
        assert stats["store.puts"] == 1


def _double(x):
    return {"value": 2 * x}


def _explode(x):
    raise AssertionError(f"cached item {x} must not be re-executed")


class TestResumableMap:
    def test_checkpoints_every_result(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        keys = [f"k{i}" for i in range(4)]
        out = resumable_map(_double, list(range(4)), keys,
                            encode=lambda r: r,
                            decode=lambda payload, i, item: payload,
                            store=store)
        assert out == [{"value": 2 * x} for x in range(4)]
        assert len(store) == 4

    def test_resume_serves_cached_without_executing(self, tmp_path):
        path = tmp_path / "s.jsonl"
        keys = [f"k{i}" for i in range(3)]
        resumable_map(_double, list(range(3)), keys,
                      encode=lambda r: r,
                      decode=lambda payload, i, item: payload,
                      store=ResultStore(path))
        store = ResultStore(path)
        out = resumable_map(_explode, list(range(3)), keys,
                            encode=lambda r: r,
                            decode=lambda payload, i, item: payload,
                            store=store, resume=True)
        assert out == [{"value": 2 * x} for x in range(3)]
        assert store.stats()["store.hits"] == 3

    def test_partial_store_executes_only_the_gap(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.put("k1", {"value": 2})
        executed = []

        def fn(x):
            executed.append(x)
            return {"value": 2 * x}

        out = resumable_map(fn, [0, 1, 2], ["k0", "k1", "k2"],
                            encode=lambda r: r,
                            decode=lambda payload, i, item: payload,
                            store=store, resume=True,
                            executor=SupervisedExecutor(workers=1))
        assert out == [{"value": 0}, {"value": 2}, {"value": 4}]
        assert executed == [0, 2]
        assert len(store) == 3 and store.get("k2") == {"value": 4}

    def test_key_item_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="keys"):
            resumable_map(_double, [1, 2], ["k1"],
                          encode=lambda r: r,
                          decode=lambda payload, i, item: payload)

    def test_resume_requires_a_store(self):
        with pytest.raises(ConfigurationError, match="requires"):
            resumable_map(_double, [1], ["k1"],
                          encode=lambda r: r,
                          decode=lambda payload, i, item: payload,
                          resume=True)
