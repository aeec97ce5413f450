"""Experiment harnesses: one module per paper artifact (see DESIGN.md §4).

Each experiment exposes ``run(**params) -> ExperimentResult`` and is invoked
by the CLI (``python -m repro run e4``) and by ``tests/test_experiments.py``,
which pins its table to ``benchmarks/results/eN.txt``.  Results carry
paper-style table rows plus an overall ``ok`` verdict asserting the paper's
qualitative claim.
"""

from repro.experiments import (
    e01_figure1,
    e02_completeness,
    e03_accuracy,
    e04_flawed_cm,
    e05_liveness,
    e06_fairness,
    e07_trusting,
    e08_consensus,
    e09_wsn,
    e10_stm,
    e11_native_oracle,
    e12_overhead,
    e13_fair_wrapper,
    e14_adversary,
    e15_statistics,
    e16_locality,
    e17_replication,
    e18_dstm,
    e19_asynchrony,
    e20_preliminary,
)
from repro.experiments.common import ExperimentResult

REGISTRY = {
    "e1": e01_figure1,
    "e2": e02_completeness,
    "e3": e03_accuracy,
    "e4": e04_flawed_cm,
    "e5": e05_liveness,
    "e6": e06_fairness,
    "e7": e07_trusting,
    "e8": e08_consensus,
    "e9": e09_wsn,
    "e10": e10_stm,
    "e11": e11_native_oracle,
    "e12": e12_overhead,
    "e13": e13_fair_wrapper,
    "e14": e14_adversary,
    "e15": e15_statistics,
    "e16": e16_locality,
    "e17": e17_replication,
    "e18": e18_dstm,
    "e19": e19_asynchrony,
    "e20": e20_preliminary,
}

__all__ = ["ExperimentResult", "REGISTRY"]
