"""Integration: every experiment harness passes its paper claim.

Each test runs an experiment at its defaults, the exact code the
benchmarks run, and pins its table to the committed
``benchmarks/results/eN.txt`` byte for byte.  The table carries the
verdict, so a green run here means EXPERIMENTS.md's verdict column is
reproducible, and any change to a run's draws shows up as a table diff.
"""

import pathlib

import pytest

from repro.experiments import REGISTRY
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

RESULTS = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"


def assert_committed_table(module):
    """Run ``module`` at its defaults; its table must equal the archive."""
    r = module.run()
    assert r.ok, r.render()
    committed = (RESULTS / f"{r.exp_id.lower()}.txt").read_text(
        encoding="utf-8")
    assert r.render() + "\n" == committed


def test_registry_is_complete():
    assert list(REGISTRY) == [f"e{i}" for i in range(1, 21)]
    for mod in REGISTRY.values():
        assert hasattr(mod, "run") and hasattr(mod, "TITLE")


def test_e1_figure1():
    assert_committed_table(e01_figure1)


def test_e2_completeness():
    assert_committed_table(e02_completeness)


def test_e3_accuracy():
    assert_committed_table(e03_accuracy)


def test_e4_flawed_cm():
    assert_committed_table(e04_flawed_cm)


def test_e5_liveness():
    assert_committed_table(e05_liveness)


def test_e6_fairness():
    assert_committed_table(e06_fairness)


def test_e7_trusting():
    assert_committed_table(e07_trusting)


def test_e8_consensus():
    assert_committed_table(e08_consensus)


def test_e9_wsn():
    assert_committed_table(e09_wsn)


def test_e10_stm():
    assert_committed_table(e10_stm)


def test_e11_native_oracle():
    assert_committed_table(e11_native_oracle)


def test_e12_overhead():
    assert_committed_table(e12_overhead)


def test_e13_fair_wrapper():
    assert_committed_table(e13_fair_wrapper)


def test_e14_adversary():
    assert_committed_table(e14_adversary)


def test_e15_statistics():
    assert_committed_table(e15_statistics)


def test_e16_locality():
    assert_committed_table(e16_locality)


def test_e17_replication():
    assert_committed_table(e17_replication)


def test_e18_dstm():
    assert_committed_table(e18_dstm)


def test_e19_asynchrony():
    assert_committed_table(e19_asynchrony)


def test_e20_preliminary():
    assert_committed_table(e20_preliminary)


def test_results_render_cleanly():
    r = e01_figure1.run()
    text = r.render()
    assert "[E1]" in text and "PASS" in text
