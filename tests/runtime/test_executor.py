"""Determinism suite: parallel execution must reproduce serial, per seed."""

import pytest

import repro
from repro.chaos import ChaosConfig, run_campaign
from repro.runtime import RunSpec, SupervisedExecutor, execute
from repro.runtime.executor import _execute_detached

#: Pinned campaign for the determinism contract: small enough to run four
#: times in the suite, hostile enough (drops, partitions, crash, slow
#: processes) that any nondeterminism in the parallel path would surface.
PINNED = ChaosConfig(campaigns=4, seed=13, max_time=400.0)


def _square(x):
    return x * x


class TestParallelExecutor:
    """Parallel execution through ``SupervisedExecutor`` (the class keeps
    its name: it is part of six pinned test ids)."""

    def test_serial_map_matches_python(self):
        assert SupervisedExecutor(workers=1).map(_square, range(5)) == \
            [0, 1, 4, 9, 16]

    def test_parallel_map_preserves_order(self):
        assert SupervisedExecutor(workers=3).map(_square, range(8)) == \
            [x * x for x in range(8)]

    def test_single_item_skips_the_pool(self):
        assert SupervisedExecutor(workers=4).map(_square, [7]) == [49]

    def test_run_specs_parallel_matches_serial(self):
        specs = [RunSpec(name=f"s{seed}", graph="ring:3", seed=seed,
                         max_time=300.0) for seed in (1, 2, 3, 4)]
        parallel = SupervisedExecutor(workers=4).map(_execute_detached, specs)
        assert [execute(s).summary() for s in specs] == \
            [r.summary() for r in parallel]

    def test_parallel_results_come_back_trace_detached(self):
        spec = RunSpec(graph="ring:3", max_time=200.0)
        for r in repro.sweep(spec, seeds=(1, 2), workers=2):
            assert r.trace is None
        for r in repro.sweep(spec, seeds=(1, 2), workers=1):
            assert r.trace is not None

    def test_detached_worker_is_a_pure_function(self):
        spec = RunSpec(graph="ring:3", seed=9, max_time=300.0)
        assert _execute_detached(spec).summary() == \
            _execute_detached(spec).summary()


class TestCampaignDeterminism:
    def test_workers_4_reproduces_workers_1_per_seed(self):
        """The acceptance contract: a pinned chaos campaign run with
        ``--workers 4`` reproduces the serial run's per-seed verdicts
        exactly — summaries (verdicts, metrics, failures) byte-equal."""
        serial = run_campaign(PINNED, workers=1)
        parallel = run_campaign(PINNED, workers=4)
        assert [v.summary() for v in serial.verdicts] == \
            [v.summary() for v in parallel.verdicts]
        assert [v.failures for v in serial.verdicts] == \
            [v.failures for v in parallel.verdicts]

    def test_negative_campaign_failures_also_deterministic(self):
        """Invariant *failures* (raw lossy links) must replay identically
        across worker counts too — replay commands point at real runs."""
        cfg = ChaosConfig(campaigns=3, seed=1, transport=False,
                          drop_max=0.3, max_time=400.0)
        serial = run_campaign(cfg, workers=1)
        parallel = run_campaign(cfg, workers=3)
        assert serial.failed, "pinned negative campaign should fail"
        assert [v.summary() for v in serial.verdicts] == \
            [v.summary() for v in parallel.verdicts]

    def test_worker_count_does_not_leak_into_output(self):
        result = run_campaign(PINNED, workers=2)
        payload = result.to_json()
        assert payload["seed"] == PINNED.seed
        assert len(payload["runs"]) == PINNED.campaigns


class TestChaosCliWorkers:
    def test_workers_flag_runs_and_tallies(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--campaigns", "2", "--seed", "3",
                     "--workers", "2"]) == 0
        assert "2/2 passed" in capsys.readouterr().out


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_cli_workers(workers, capsys, tmp_path):
    import json

    from repro.cli import main

    path = tmp_path / "s.json"
    path.write_text(json.dumps({"name": "w", "graph": "ring:3",
                                "max_time": 400.0, "grace": 150.0}))
    assert main(["sweep", str(path), "--seeds", "2",
                 "--workers", str(workers)]) == 0
    assert "(n=2)" in capsys.readouterr().out
