"""A run's verdicts do not depend on whether its trace keeps rows.

The interval machine judges the record stream as it is written, so a
``counters`` run judged with ``check=True`` reports exactly the summary
of the same run under a ``full`` trace, field for field.
"""

import dataclasses

from repro.chaos import ChaosConfig, build_run
from repro.runtime import execute, fanout_seeds

SEED, RUNS = 7, 8


def test_counters_runs_checked_on_request_match_full():
    cfg = ChaosConfig(campaigns=RUNS, seed=SEED)
    for run_seed in fanout_seeds(SEED, RUNS):
        spec = build_run(run_seed, cfg)
        full = execute(spec)
        counters = execute(dataclasses.replace(spec, trace="counters"),
                           check=True)
        assert counters.checked and counters.trace.mode == "counters"
        assert counters.summary() == full.summary()
