"""Tests for the seeded chaos campaign runner (:mod:`repro.chaos`)."""

import json
import shlex

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    ChaosConfig,
    build_run,
    fanout_seeds,
    replay,
    run_campaign,
    run_one,
)
from repro.cli import build_parser, main
from repro.oracles.registry import REGISTRY

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

    def test_cli_flags_round_trip_new_knobs(self):
        cfg = ChaosConfig(graphs=("rgg:30:0.3:7", "tree:20:3"),
                          pairs="neighbors:2", allow_disconnected=True)
        flags = cfg.cli_flags()
        assert "--graphs rgg:30:0.3:7 tree:20:3" in flags
        assert "--pairs neighbors:2" in flags
        assert "--allow-disconnected" in flags
        # Defaults stay silent so replay commands stay short.
        assert "--pairs" not in ChaosConfig().cli_flags()
        assert "--graphs" not in ChaosConfig().cli_flags()

    def test_cli_flags_round_trip_spans(self):
        assert "--spans" in ChaosConfig(spans=True).cli_flags()
        assert "--spans" not in ChaosConfig().cli_flags()

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


_probability = st.floats(0.0, 1.0)
#: Every config the replay flags can express (``campaigns`` and ``seed``
#: are not replay flags, so they keep their defaults).
flag_configs = st.builds(
    ChaosConfig,
    spans=st.booleans(),
    drop_max=_probability, duplicate_max=_probability,
    partition_prob=_probability, slow_prob=_probability,
    max_faulty=st.integers(0, 5), max_time=st.floats(1.0, 1e4),
    transport=st.booleans(),
    graphs=st.lists(st.sampled_from(["ring:3", "ring:4", "path:4", "star:3",
                                     "rgg:30:0.3:7", "tree:12:2"]),
                    min_size=1, max_size=4).map(tuple),
    detector=st.sampled_from(sorted(REGISTRY)),
    pairs=st.sampled_from(["all", "neighbors", "neighbors:2"]),
    allow_disconnected=st.booleans())


@settings(max_examples=200, deadline=None)
@given(flag_configs)
def test_replay_flags_parse_back_to_the_same_config(cfg):
    args = build_parser().parse_args(["chaos", *shlex.split(cfg.cli_flags())])
    assert ChaosConfig.from_args(args) == cfg


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
            verdict = replay(seed, cfg)
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
        again = replay(first.run_seed, self.CFG)
        assert again.failures == first.failures
        assert again.report.metrics.messages_sent == \
            first.report.metrics.messages_sent
        assert again.report.exclusion.count == first.report.exclusion.count

    def test_replay_command_carries_the_flags(self):
        result = run_campaign(self.CFG)
        cmd = result.failed[0].replay_command(self.CFG)
        assert "--replay" in cmd and "--no-transport" in cmd


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
        bad = run_campaign(cfg).failed[0].run_seed
        assert main(["chaos", "--replay", str(bad), "--no-transport"]) == 1
        capsys.readouterr()
        assert main(["chaos", "--replay",
                     str(REGRESSION_SEEDS[0])]) == 0


class TestRunSummary:
    def test_summary_is_json_serializable(self):
        verdict = run_one(0, fanout_seeds(3, 1)[0], ChaosConfig())
        summary = json.loads(json.dumps(verdict.summary()))
        assert summary["ok"] is True
        assert summary["run_seed"] == fanout_seeds(3, 1)[0]
        assert summary["messages_sent"] > 0
