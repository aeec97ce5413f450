"""Integration: every experiment harness passes its paper claim.

These reuse the exact code the benchmarks run (with default parameters
scaled down where the default is slow), so a green run here means
EXPERIMENTS.md's verdict column is reproducible.  The reduction
experiments are cheap at their defaults, so their tables are pinned to
the committed ``benchmarks/results/eN.txt`` byte for byte.
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
    r = e06_fairness.run()
    assert r.ok, r.render()


def test_e7_trusting():
    assert_committed_table(e07_trusting)


def test_e8_consensus():
    r = e08_consensus.run()
    assert r.ok, r.render()


def test_e9_wsn():
    r = e09_wsn.run(seeds=(901,), max_time=1200.0)
    assert r.ok, r.render()


def test_e10_stm():
    r = e10_stm.run(client_counts=(2, 4), tx_target=8)
    assert r.ok, r.render()


def test_e11_native_oracle():
    r = e11_native_oracle.run(gsts=(100.0, 400.0), max_time=2000.0)
    assert r.ok, r.render()


def test_e12_overhead():
    r = e12_overhead.run(ns=(2, 3), max_time=800.0)
    assert r.ok, r.render()


def test_e13_fair_wrapper():
    r = e13_fair_wrapper.run(ks=(1, 2), max_time=2000.0)
    assert r.ok, r.render()


def test_e14_adversary():
    r = e14_adversary.run(adversaries=("none", "slow-pingack"),
                          max_time=3000.0)
    assert r.ok, r.render()


def test_e15_statistics():
    assert_committed_table(e15_statistics)


def test_e16_locality():
    r = e16_locality.run(n=4, max_time=1800.0)
    assert r.ok, r.render()


def test_e17_replication():
    r = e17_replication.run()
    assert r.ok, r.render()


def test_e18_dstm():
    r = e18_dstm.run(client_counts=(2, 4), tx_target=8)
    assert r.ok, r.render()


def test_e19_asynchrony():
    r = e19_asynchrony.run(horizons=(1500.0, 4000.0))
    assert r.ok, r.render()


def test_e20_preliminary():
    assert_committed_table(e20_preliminary)


def test_results_render_cleanly():
    r = e01_figure1.run()
    text = r.render()
    assert "[E1]" in text and "PASS" in text
