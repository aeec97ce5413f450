"""Tests for the seeded chaos campaign runner (:mod:`repro.chaos`)."""

import json
import shlex

import pytest

from repro.chaos import (
    ChaosConfig,
    build_run,
    check_invariants,
    fanout_seeds,
    run_campaign,
    run_one,
)
from repro.cli import main
from repro.errors import ConfigurationError
from repro.lattice import lattice_config
from repro.runtime import RunSpec, execute
from repro.runtime.store import canonical_spec

#: Run seeds that once exposed real defects (clean-fork priority-cycle
#: deadlock; finite-run grace/deadline artifacts).  Pinned so the fixes
#: stay fixed — each replays the *exact* scenario that failed.
REGRESSION_SEEDS = (321059914, 3503041500, 1647092370)


class TestSeedFanout:
    def test_deterministic(self):
        assert fanout_seeds(7, 5) == fanout_seeds(7, 5)

    def test_prefix_stable(self):
        """Raising --campaigns keeps earlier run seeds unchanged, so run
        indices stay meaningful across campaign sizes."""
        assert fanout_seeds(7, 10)[:5] == fanout_seeds(7, 5)

    def test_distinct_across_bases(self):
        assert set(fanout_seeds(1, 4)).isdisjoint(fanout_seeds(2, 4))

    def test_empty(self):
        assert fanout_seeds(3, 0) == []


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"detector": "flawed_cm", "detector_params": {"box": "bogus"}},
        {"detector": "extracted", "detector_params": {"box": "deferred:x"}},
        {"algorithms": ("wf-ewx", "nope")},
    ])
    def test_malformed_box_refused_at_construction(self, kwargs):
        with pytest.raises(ConfigurationError, match="malformed dining box"):
            ChaosConfig(**kwargs)

    def test_legal_box_accepted(self):
        cfg = ChaosConfig(detector="extracted",
                          detector_params={"box": "manager"})
        assert build_run(7, cfg).detector_params == {"box": "manager"}


class TestBuildRun:
    def test_pure_function_of_seed(self):
        cfg = ChaosConfig()
        assert build_run(42, cfg) == build_run(42, cfg)

    def test_seed_changes_scenario(self):
        cfg = ChaosConfig()
        assert build_run(41, cfg) != build_run(43, cfg)

    def test_knobs_respected(self):
        cfg = ChaosConfig(drop_max=0.05, partition_prob=0.0, max_faulty=0)
        for seed in fanout_seeds(9, 8):
            sc = build_run(seed, cfg)
            assert sc.drop <= 0.05
            assert sc.partition is None
            assert sc.crashes == {}

    def test_pairs_and_graphs_thread_into_the_scenario(self):
        cfg = ChaosConfig(graphs=("rgg:30:0.3:7",), pairs="neighbors",
                          allow_disconnected=True, max_faulty=0)
        sc = build_run(5, cfg)
        assert sc.graph == "rgg:30:0.3:7"
        assert sc.pairs == "neighbors"
        assert sc.allow_disconnected is True

    def test_spans_thread_into_run_and_verdict(self):
        cfg = ChaosConfig(campaigns=1, seed=9, spans=True)
        sc = build_run(5, cfg)
        assert sc.spans is True
        result = run_campaign(cfg)
        (verdict,) = result.verdicts
        records = verdict.span_records()
        assert records and records[0]["schema"] == "repro.span.v1"
        assert result.span_records() == records
        # spans off by default: nothing collected, nothing exported
        plain = run_campaign(ChaosConfig(campaigns=1, seed=9))
        assert plain.span_records() == []


def _without_index(record):
    return {**record, "verdict": {k: v for k, v in record["verdict"].items()
                                  if k != "index"}}


#: Campaigns with failed rows, each with knobs that no ``repro chaos`` flag
#: sets (``gst``, ``clients``, ``detector_params``, ``rto_*`` ...): the
#: replay must not depend on the config that built the run.
REPLAY_CONFIGS = {
    "raw-links": ChaosConfig(campaigns=6, seed=7, transport=False),
    "raw-links-gst60": ChaosConfig(campaigns=6, seed=7, transport=False,
                                   gst=60.0),
    "lattice-flawed_cm": lattice_config(
        "flawed_cm", graphs=("ring:4",), seeds=4, seed=7, max_time=600.0,
        client="periodic", drop_max=0.1, pairs="all"),
}


@pytest.mark.parametrize("cfg", REPLAY_CONFIGS.values(), ids=REPLAY_CONFIGS)
def test_every_failed_row_replays_from_its_spec(cfg):
    """A failed row's replay handle is its RunSpec: the ``--json`` spec,
    through ``json`` and back, reproduces the row's failures and record
    (all but its campaign index), under whatever config built it."""
    result = run_campaign(cfg)
    doc = json.loads(json.dumps(result.to_json()))
    assert result.failed
    assert set(doc["replay"]) == {str(v.run_seed) for v in result.failed}
    for row in result.failed:
        spec = RunSpec.from_dict(doc["replay"][str(row.run_seed)])
        assert spec == row.scenario
        again = run_one(0, spec.seed, ChaosConfig(), spec)
        assert again.failures == row.failures
        assert _without_index(again.run_record()) == \
            _without_index(row.run_record())


class TestCampaign:
    def test_twenty_runs_all_invariants_hold(self):
        """The acceptance campaign: 20 seeded hostile runs (drops up to
        30%, partitions, a crash, slow processes), every invariant green."""
        result = run_campaign(ChaosConfig(campaigns=20, seed=0))
        assert len(result.verdicts) == 20
        assert result.ok, result.render()

    def test_regression_seeds_replay_clean(self):
        cfg = ChaosConfig()
        for seed in REGRESSION_SEEDS:
            verdict = run_one(0, seed, cfg)
            assert verdict.ok, f"seed {seed}: {verdict.failures}"

    def test_render_reports_tally(self):
        result = run_campaign(ChaosConfig(campaigns=2, seed=3))
        assert "2/2 passed" in result.render()


class TestInjectedViolationReproduces:
    """Negative path: raw lossy links (no transport) break the paper's
    channel assumptions, and every resulting failure must reproduce
    deterministically from its reported run seed."""

    CFG = ChaosConfig(campaigns=4, seed=1, transport=False, drop_max=0.3)

    def test_raw_links_violate_invariants(self):
        result = run_campaign(self.CFG)
        assert result.failed, "expected raw-lossy runs to break invariants"

    def test_failure_replays_bit_for_bit(self):
        result = run_campaign(self.CFG)
        first = result.failed[0]
        again = run_one(first.index, first.run_seed, self.CFG)
        assert again.failures == first.failures
        assert again.run_record() == first.run_record()


class TestChaosCli:
    def test_campaign_exit_zero_and_tally(self, capsys):
        assert main(["chaos", "--campaigns", "2", "--seed", "3"]) == 0
        assert "2/2 passed" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert main(["chaos", "--campaigns", "2", "--seed", "3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["passed"] == 2 and payload["failed"] == 0
        assert len(payload["runs"]) == 2

    def test_failing_campaign_exits_nonzero_with_replay(self, capsys):
        code = main(["chaos", "--campaigns", "2", "--seed", "1",
                     "--no-transport"])
        out = capsys.readouterr().out
        assert code == 1
        assert "python -m repro chaos --replay" in out

    def test_out_of_range_knob_is_a_clean_cli_error(self, capsys):
        code = main(["chaos", "--campaigns", "2", "--drop-max", "2.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "drop_max" in err and "2.5" in err

    def test_replay_exit_codes(self, capsys):
        cfg = ChaosConfig(campaigns=2, seed=1, transport=False)
        doc = run_campaign(cfg).to_json()
        bad = next(iter(doc["replay"].values()))
        assert main(["chaos", "--replay", json.dumps(bad)]) == 1
        capsys.readouterr()
        good = canonical_spec(build_run(REGRESSION_SEEDS[0], ChaosConfig()))
        assert main(["chaos", "--replay", json.dumps(good)]) == 0

    def test_printed_replay_line_runs_as_printed(self, capsys):
        """The line a failed row prints is a command: run as printed, it
        ends on the row's failures."""
        result = run_campaign(ChaosConfig(campaigns=2, seed=1,
                                          transport=False, gst=60.0))
        lines = [line for line in result.render().splitlines()
                 if line.startswith("replay run ")]
        assert result.failed and len(lines) == len(result.failed)
        for row, line in zip(result.failed, lines):
            argv = shlex.split(line.split(": ", 1)[1])
            assert argv[:4] == ["python", "-m", "repro", "chaos"]
            assert main(argv[3:]) == 1
            last = capsys.readouterr().out.rstrip().splitlines()[-1]
            assert last == (f"replay of run seed {row.run_seed}: "
                            + "; ".join(row.failures))


class TestRunSummary:
    def test_summary_is_json_serializable(self):
        verdict = run_one(0, fanout_seeds(3, 1)[0], ChaosConfig())
        summary = json.loads(json.dumps(verdict.summary()))
        assert summary["ok"] is True
        assert summary["run_seed"] == fanout_seeds(3, 1)[0]
        assert summary["messages_sent"] > 0


class TestLegalBoxes:
    """The battery's ◇WX clause ("unjustified violation") encodes wf-ewx's
    mechanism — a violation starts only under an oracle mistake — not
    ◇WX itself, so it convicts the legal deferred box (Section 3), whose
    run verdict holds."""

    GRAPHS = ("ring:3", "ring:5", "clique:3")

    @staticmethod
    def _deferred(graph):
        return execute(RunSpec(graph=graph, algorithm="deferred:150", seed=8,
                               max_time=800.0))

    @pytest.mark.parametrize("graph", GRAPHS)
    def test_deferred_run_verdict_holds(self, graph):
        assert self._deferred(graph).ok

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP items 8(b) and 13: the chaos battery's ◇WX clause "
        "convicts the legal deferred box"))
    @pytest.mark.parametrize("graph", GRAPHS)
    def test_battery_acquits_the_deferred_box(self, graph):
        assert check_invariants(self._deferred(graph).summary()) == []
