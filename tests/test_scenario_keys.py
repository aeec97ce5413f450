"""Scenario-key pins: ``build_run`` and ``spec_hash`` are byte-stable.

Every stored chaos or lattice run is addressed by
``spec_hash(build_run(run_seed, cfg))``, so a changed draw order, a
changed draw, or a changed canonical encoding silently turns every
existing store into misses.  These digests cover 600 run seeds over
three configs that between them take every branch of ``build_run``:
several graphs (string and grid process ids), algorithms and clients;
partitions and the slow endpoint drawn on most runs; up to three
crashes; and a lattice row's tamer config.  A moved digest means every
store written before the change re-runs on resume: move it only on
purpose, never as a side effect of making ``build_run`` faster.
"""

import hashlib

import pytest

from repro.chaos import ChaosConfig, build_run
from repro.lattice.compare import lattice_config
from repro.runtime import fanout_seeds
from repro.runtime.store import spec_hash

RUNS_PER_CONFIG = 200

CONFIGS = {
    "default": ChaosConfig(seed=7),
    "hostile": ChaosConfig(
        seed=11,
        graphs=("ring:5", "pair:a,b", "grid:2x3", "clique:4",
                "rgg:12:0.5:3"),
        algorithms=("wf-ewx", "hygienic", "manager"),
        clients=("eager:2", "periodic", "eager:1"),
        drop_max=0.45, duplicate_max=0.2, partition_prob=0.9,
        partition_max_len=90.0, max_faulty=3, slow_prob=0.8,
        gst=60.0, max_time=400.0),
    "lattice": lattice_config(
        "eventually_perfect", graphs=("ring:4", "path:5"), seeds=1,
        seed=13, max_time=600.0, client="eager:2", drop_max=0.1,
        pairs="neighbors", max_faulty=2),
}

#: ``config -> (sha256 over the keys, sha256 over the RunSpec reprs)``.
PINS = {
    "default": (
        "ef14ae94ac4754440ee4407689661dab"
        "ec7b80c4600aef555384e53795955a8e",
        "8e5f1e47a37d722ebd411440f914a906"
        "a92f8dd304233257ae0c214a3f77fa93",
    ),
    "hostile": (
        "3bf0c80478644716d54f5436da8e16c6"
        "a6784c6a6a0a760fb9437198dc6e11dc",
        "8d66d49c949a008d0360fd2b38c6f916"
        "4782e8db8167727b98c018c4f31a136f",
    ),
    "lattice": (
        "fd15c2f0bb444d5344fcd90dfa8cb11b"
        "84d0c0ba7f0de86f78037c789a95e9ea",
        "6b02a377ea2b6895b472d87d4e02cf4e"
        "c446ec8ce831a0f5b7021dcc8c1bd518",
    ),
}


def _scenarios(cfg):
    return [build_run(s, cfg) for s in fanout_seeds(cfg.seed,
                                                   RUNS_PER_CONFIG)]


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_scenario_keys_and_reprs_are_pinned(name):
    specs = _scenarios(CONFIGS[name])
    keys, reprs = PINS[name]
    assert _digest(spec_hash(spec) for spec in specs) == keys
    assert _digest(repr(spec) for spec in specs) == reprs


def test_the_configs_reach_every_draw_branch():
    specs = [spec for cfg in CONFIGS.values() for spec in _scenarios(cfg)]
    assert any(spec.partition for spec in specs)
    assert any(spec.slow for spec in specs)
    assert any(len(spec.crashes) >= 2 for spec in specs)
    assert any(spec.graph == "pair:a,b" and spec.slow for spec in specs)
    assert len({spec.algorithm for spec in specs}) == 3
    assert any(spec.pairs == "neighbors" for spec in specs)


def test_an_inverted_draw_range_is_refused_as_numpy_refuses_it():
    import numpy as np

    cfg = ChaosConfig(graphs=("ring:4",), partition_prob=1.0,
                      partition_max_len=20.0)
    with pytest.raises(ValueError, match="high - low < 0"):
        np.random.default_rng(0).uniform(30.0, 20.0)
    with pytest.raises(ValueError, match="high - low < 0"):
        build_run(0, cfg)
