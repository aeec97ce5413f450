"""Smoke test of the ledger (run explicitly; not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger_smoke.py

Drives every workload at ``--scale tiny`` through both passes and checks
the harness against BENCHMARK.json — names, verification, span tree.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys

import pytest

from benchmarks.ledger import harness

harness.bootstrap_paths()

from benchmarks.ledger.workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((harness.ROOT / "BENCHMARK.json").read_text("utf-8"))
PINS = json.loads((harness.HERE / "pins.json").read_text("utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _measure(name: str, pins: dict = PINS, trace: bool = True) -> dict:
    return harness.measure(WORKLOADS[name], seed=7, seconds=0.2, trace=trace,
                           scale=harness.SCALES["tiny"], pins=pins,
                           import_s=0.0)


@pytest.fixture(scope="module")
def docs() -> dict:
    return {name: _measure(name) for name in WORKLOADS}


def test_names_match_benchmark_json(docs):
    assert list(WORKLOADS) == [w["name"] for w in BENCH["workloads"]]
    end_to_end = [m["name"] for m in BENCH["end_to_end"]]
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for doc in docs.values():
        assert sorted(doc["end_to_end"]) == sorted(end_to_end)
        assert sorted(doc["per_layer"]) == sorted(per_layer)
        for name, metric in doc["end_to_end"].items():
            unit = next(m["unit"] for m in BENCH["end_to_end"]
                        if m["name"] == name)
            assert metric["unit"] == unit
            assert metric["value"] > 0
    names = list(WORKLOADS) + end_to_end + list(per_layer)
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names), names


def test_every_output_verified(docs):
    for name, doc in docs.items():
        assert doc["correct"] and doc["failed"] == 0, (name, doc["failures"])
        assert doc["attempted"] >= 1


def test_layers_show_where_predicted(docs):
    sparse, hit = docs["sparse_scale"]["per_layer"], docs[
        "service_hit"]["per_layer"]
    assert sparse["engine.events"] > 0 and sparse["builder.judge_s"] == 0
    assert 0 < sparse["scale_ratio"] and sparse["events_per_s_n16"] > 0
    assert hit["engine.events"] == 0 and hit["store.hits"] > 0
    assert hit["service.post_ack_ms"] > 0 and hit["service.hit_ratio"] > 0.5
    assert docs["lattice_matrix"]["per_layer"]["core.step_s"] > 0
    w2 = docs["chaos_campaign_w2"]["per_layer"]
    assert w2["executor.map_s"] > 0 and w2["executor.spawn_s"] > 0
    resume = docs["store_resume"]
    assert resume["per_layer"]["store.decode_s"] > 0
    assert resume["exact"]["store.hits"] == harness.SCALES["tiny"].campaigns
    assert docs["service_miss"]["per_layer"]["store.put_s"] > 0
    assert docs["store_open"]["per_layer"]["store.open_s_per_k_entries"] > 0
    for doc in docs.values():
        assert doc["per_layer"]["trace.attributed_share"] >= 0.9


def test_span_tree_has_one_root_and_self_times_fit(docs):
    for name in docs:
        trace = json.loads((harness.RESULTS_DIR / f"trace_{name}.json")
                           .read_text("utf-8"))
        roots = [s for s in trace["spans"] if s["parent"] is None]
        assert [r["name"] for r in roots] == [f"workload:{name}"]
        assert all(s["workload"] == name for s in trace["spans"])
        by_id = {s["id"]: s for s in trace["spans"]}
        children_of = {i: [] for i in by_id}
        for span in trace["spans"]:
            if span["parent"] is not None:
                children_of[span["parent"]].append(span)
        self_s = {}
        for span in trace["spans"]:
            children = children_of[span["id"]]
            for child in children:
                assert span["start"] <= child["start"]
                assert child["end"] <= span["end"] + 1e-9
            self_s[span["id"]] = (span["end"] - span["start"]) - sum(
                c["end"] - c["start"] for c in children
                if c["thread"] == span["thread"])
        # Same-thread children never overlap, so self time is non-negative
        # and all self times below a root sum to at most the root.
        assert min(self_s.values()) >= -1e-9
        on_root_thread = sum(v for i, v in self_s.items()
                             if by_id[i]["thread"] == roots[0]["thread"])
        assert on_root_thread <= (roots[0]["end"] - roots[0]["start"]) + 1e-6


def test_corrupted_expectation_flips_failed():
    pins = copy.deepcopy(PINS)
    pins["sparse_scale"]["tiny"]["counts"]["events"] += 1
    doc = _measure("sparse_scale", pins, trace=False)
    assert not doc["correct"] and doc["failed"] > 0
    assert "pinned" in doc["failures"][0]


def test_contract_line_and_exit_code():
    done = subprocess.run(
        [sys.executable, str(harness.HERE / "run.py"), "--workload",
         "store_open", "--scale", "tiny", "--seed", "3", "--seconds", "0.2",
         "--trace", "0"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert sorted(line["metrics"]) == sorted(
        m["name"] for m in BENCH["end_to_end"])
