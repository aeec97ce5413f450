"""A run's verdicts do not depend on what its trace sink retained.

The interval machine judges the record stream before any sink evicts a
row, so a ``ring:N`` run, and a ``counters`` run judged with
``check=True``, report exactly the verdicts of the same run under a full
sink; only the sink-describing fields differ.
"""

import dataclasses
import io
import json
from contextlib import redirect_stdout

import repro
from repro import cli
from repro.chaos import ChaosConfig, build_run
from repro.runtime import RunSpec, execute, fanout_seeds

SEED, RUNS = 7, 8

#: The summary fields that describe the sink rather than the run.
SINK_FIELDS = {"trace_mode", "trace_evicted"}


def verdict_fields(summary):
    return {k: v for k, v in summary.items() if k not in SINK_FIELDS}


def test_ring_run_keeps_the_full_verdict():
    spec = RunSpec(graph="ring:4", seed=7, max_time=600.0,
                   crashes={"p1": 200.0})
    full = repro.run(spec)
    ring = repro.run(dataclasses.replace(spec, trace="ring:50"))
    assert ring.trace_evicted > 0
    assert full.exclusion.count == 1 and full.violations_justified
    assert full.oracle_accuracy_ok and full.oracle_completeness_ok
    assert verdict_fields(ring.summary()) == verdict_fields(full.summary())
    assert ring.wait_freedom == full.wait_freedom
    assert ring.fairness.samples == full.fairness.samples


def test_counters_runs_checked_on_request_match_full():
    cfg = ChaosConfig(campaigns=RUNS, seed=SEED)
    for run_seed in fanout_seeds(SEED, RUNS):
        spec = build_run(run_seed, cfg)
        full = execute(spec)
        counters = execute(dataclasses.replace(spec, trace="counters"),
                           check=True)
        assert counters.checked and counters.trace_mode == "counters"
        assert verdict_fields(counters.summary()) == \
            verdict_fields(full.summary())


def chaos_json(*flags):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["chaos", "--campaigns", str(RUNS), "--seed",
                         str(SEED), "--json", *flags])
    return code, json.loads(out.getvalue())


def test_ring_campaign_judges_like_full():
    code, ring = chaos_json("--trace-sink", "ring:256")
    full_code, full = chaos_json()
    assert code == full_code == 0
    assert [verdict_fields(r) for r in ring["runs"]] == \
        [verdict_fields(r) for r in full["runs"]]
