"""Declarative scenarios: ``RunSpec`` in, ``repro.run`` verdicts out."""

import json

import pytest

import repro
from repro import RunSpec
from repro.errors import ConfigurationError
from repro.runtime import parse_graph


class TestParseGraph:
    @pytest.mark.parametrize("spec,nodes,edges", [
        ("ring:4", 4, 4),
        ("clique:3", 3, 3),
        ("path:5", 5, 4),
        ("star:3", 4, 3),
        ("grid:2x3", 6, 7),
    ])
    def test_shapes(self, spec, nodes, edges):
        g = parse_graph(spec)
        assert g.number_of_nodes() == nodes
        assert g.number_of_edges() == edges

    def test_pair(self):
        g = parse_graph("pair:alice, bob")
        assert set(g.nodes) == {"alice", "bob"}

    def test_rgg_spec_deterministic(self):
        a = parse_graph("rgg:30:0.3:7")
        b = parse_graph("rgg:30:0.3:7")
        assert sorted(a.edges) == sorted(b.edges)
        assert a.number_of_nodes() == 30

    def test_rgg_seed_defaults_to_zero(self):
        assert (sorted(parse_graph("rgg:20:0.4").edges)
                == sorted(parse_graph("rgg:20:0.4:0").edges))

    def test_tree_spec(self):
        g = parse_graph("tree:15:3")
        assert g.number_of_nodes() == 15 and g.number_of_edges() == 14
        assert parse_graph("tree:15").degree["p0"] == 2  # arity default 2

    def test_rand_spec_deterministic(self):
        a = parse_graph("rand:25:0.2:9")
        assert sorted(a.edges) == sorted(parse_graph("rand:25:0.2:9").edges)
        assert a.number_of_nodes() == 25

    def test_unknown_kind_enumerates_supported(self):
        with pytest.raises(ConfigurationError) as err:
            parse_graph("torus:3")
        msg = str(err.value)
        for kind in ("ring", "clique", "grid", "rgg", "tree", "rand"):
            assert kind in msg

    @pytest.mark.parametrize("spec", [
        "ring:banana",
        "rgg:30",            # missing radius
        "rgg:30:x:1",        # non-numeric radius
        "tree:10:2:5",       # too many args
        "rand:10",           # missing probability
    ])
    def test_bad_arg_names_example(self, spec):
        with pytest.raises(ConfigurationError) as err:
            parse_graph(spec)
        assert "e.g." in str(err.value)


class TestScenarioConstruction:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec.from_dict({"graph": "ring:3", "typo_key": 1})

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            repro.run(RunSpec(graph="ring:3", algorithm="quantum",
                              max_time=10.0))

    def test_unknown_client_rejected(self):
        with pytest.raises(ConfigurationError):
            repro.run(RunSpec(graph="ring:3", client="lazy", max_time=10.0))

    def test_crash_of_unknown_process_rejected(self):
        with pytest.raises(ConfigurationError):
            repro.run(RunSpec(graph="ring:3", crashes={"ghost": 5.0}))

    def test_from_json_roundtrip(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"name": "x", "graph": "ring:3",
                                    "max_time": 300.0}))
        s = RunSpec.from_json(path)
        assert s.name == "x" and s.graph == "ring:3"


class TestScenarioRuns:
    def test_basic_run_reports(self):
        rep = repro.run(RunSpec(name="t", graph="ring:3", seed=5,
                                max_time=800.0))
        assert rep.ok
        assert rep.metrics.messages_sent > 0
        assert "wait-free" in rep.render()

    def test_crash_scenario_stays_wait_free(self):
        rep = repro.run(RunSpec(graph="ring:4", crashes={"p1": 300.0}, seed=6,
                                max_time=1500.0))
        assert rep.ok

    def test_hygienic_crash_scenario_fails_wait_freedom(self):
        rep = repro.run(RunSpec(graph="pair:a,b", algorithm="hygienic",
                                crashes={"a": 50.0}, seed=7, max_time=1000.0))
        assert not rep.ok
        assert "b" in rep.wait_freedom.starving

    @pytest.mark.parametrize("algorithm", ["deferred", "manager", "fair:2"])
    def test_all_algorithms_runnable(self, algorithm):
        rep = repro.run(RunSpec(graph="ring:3", algorithm=algorithm, seed=8,
                                max_time=800.0))
        assert rep.ok, rep.render()

    def test_perfect_oracle_scenario_perpetually_exclusive(self):
        rep = repro.run(RunSpec(graph="ring:3", detector="perfect",
                                crashes={"p1": 300.0}, seed=9,
                                max_time=1200.0))
        assert rep.ok and rep.exclusion.perpetual_ok

    def test_periodic_client(self):
        rep = repro.run(RunSpec(graph="ring:3", client="periodic", seed=10,
                                max_time=1000.0, grace=200.0))
        assert rep.ok

    def test_determinism(self):
        a = repro.run(RunSpec(graph="ring:3", seed=11, max_time=600.0))
        b = repro.run(RunSpec(graph="ring:3", seed=11, max_time=600.0))
        assert a.wait_freedom.sessions == b.wait_freedom.sessions
        assert a.metrics.messages_sent == b.metrics.messages_sent


class TestScenarioCLI:
    def test_cli_runs_shipped_scenarios(self, capsys):
        from repro.cli import main

        assert main(["scenario", "examples/scenarios/ring_one_crash.json"]) == 0
        out = capsys.readouterr().out
        assert "wait-free" in out


class TestSweepCLI:
    def test_sweep_aggregates_across_seeds(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "name": "sweep-test", "graph": "ring:3",
            "max_time": 600.0, "grace": 150.0,
        }))
        assert main(["sweep", str(path), "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "wait_free" in out and "(n=3)" in out

    def test_sweep_fails_on_broken_scenario(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "starver", "graph": "pair:a,b",
            "algorithm": "hygienic", "crashes": {"a": 50.0},
            "max_time": 600.0,
        }))
        assert main(["sweep", str(path), "--seeds", "2"]) == 1
