"""Tests for the CLI entry point."""

import json
import pstats

import pytest

from repro.cli import main


def _scenario_file(tmp_path, **overrides):
    spec = {"name": "cli-mini", "graph": "ring:3", "seed": 3,
            "max_time": 300.0}
    spec.update(overrides)
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "e1" in out and "e12" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "e99"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_run_single_experiment(capsys):
    assert main(["run", "e1"]) == 0
    out = capsys.readouterr().out
    assert "[E1]" in out and "PASS" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("command", [
    [], ["list"], ["run"], ["scenario"], ["sweep"], ["chaos"], ["lattice"],
    ["timeline"], ["report"], ["serve"], ["submit"], ["store"],
    ["store", "ls"]], ids=lambda command: " ".join(command) or "repro")
def test_every_parser_prints_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: repro")


# -- one error boundary: bad input exits 2 with one line, never a traceback ---


@pytest.mark.parametrize("argv, spec", [
    (["chaos", "--campaigns", "1", "--graphs", "bogus:1"], None),
    (["chaos", "--replay", '{"graph": "bogus:1"}'], None),
    (["chaos", "--replay", "{not json"], None),
    (["chaos", "--replay", "5"], None),
    (["scenario", "missing.json"], None),
    (["scenario", "mini.json"], {"bogus_key": 1}),
    (["sweep", "mini.json", "--seeds", "2"], {"algorithm": "wf-ewx:zz"}),
    (["run", "e99"], None),
    (["report", "empty.jsonl"], None),
], ids=["chaos-graph", "replay-graph", "replay-malformed", "replay-not-spec",
        "scenario-missing", "scenario-key", "sweep-algorithm", "run-unknown",
        "report-empty"])
def test_bad_input_is_one_error_line_and_exit_2(argv, spec, tmp_path,
                                                monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if spec is not None:
        _scenario_file(tmp_path, **spec)
    (tmp_path / "empty.jsonl").write_text("")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro {argv[0]}: error: ")
    assert err.count("\n") == 1


# -- the normalized flags, one case per subcommand ---------------------------


def test_scenario_normalized_flags(tmp_path, capsys):
    """scenario: --trace-sink/--metrics-out/--profile-out all take effect."""
    metrics = tmp_path / "m.jsonl"
    profile = tmp_path / "p.pstats"
    rc = main(["scenario", _scenario_file(tmp_path),
               "--trace-sink", "counters",
               "--metrics-out", str(metrics),
               "--profile-out", str(profile)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "metrics written to" in out
    (record,) = _read_jsonl(metrics)
    assert record["summary"]["name"] == "cli-mini"
    # counters sink = metrics-only run: no verdict in the record.
    assert record["summary"]["checked"] is False
    pstats.Stats(str(profile))  # valid cProfile dump


def test_sweep_normalized_flags(tmp_path, capsys):
    """sweep: --workers fanout is recorded per-seed in --metrics-out."""
    metrics = tmp_path / "m.jsonl"
    rc = main(["sweep", _scenario_file(tmp_path), "--seeds", "2",
               "--workers", "2", "--metrics-out", str(metrics)])
    assert rc == 0
    records = _read_jsonl(metrics)
    assert len(records) == 2
    assert len({r["summary"]["seed"] for r in records}) == 2
    assert "sweep: cli-mini" in capsys.readouterr().out


def test_chaos_normalized_flags(tmp_path, capsys):
    """chaos: shared flags compose with the campaign-specific ones."""
    metrics = tmp_path / "m.jsonl"
    profile = tmp_path / "p.pstats"
    # Chaos runs are judged, so the horizon must leave room for ◇P to
    # converge after GST (120).
    rc = main(["chaos", "--campaigns", "2", "--seed", "5",
               "--max-time", "400",
               "--workers", "1",
               "--metrics-out", str(metrics),
               "--profile-out", str(profile)])
    assert rc == 0
    assert len(_read_jsonl(metrics)) == 2
    pstats.Stats(str(profile))
    capsys.readouterr()


def test_chaos_topology_flags(capsys):
    """chaos: --graphs/--pairs/--allow-disconnected select the sparse path."""
    rc = main(["chaos", "--campaigns", "2", "--seed", "3",
               "--graphs", "rgg:16:0.4:7", "tree:12:2",
               "--pairs", "neighbors", "--allow-disconnected",
               "--max-faulty", "1", "--max-time", "400"])
    assert rc == 0
    assert "2/2 passed" in capsys.readouterr().out


def test_chaos_bad_pairs_is_a_clean_cli_error(capsys):
    rc = main(["chaos", "--campaigns", "1", "--pairs", "everyone"])
    assert rc == 2
    assert "pair selection" in capsys.readouterr().err


def test_run_normalized_flags(tmp_path, capsys):
    """run: --metrics-out writes experiment records."""
    metrics = tmp_path / "m.jsonl"
    rc = main(["run", "e1", "--metrics-out", str(metrics)])
    assert rc == 0
    (record,) = _read_jsonl(metrics)
    assert record["name"] == "e1" and record["ok"] is True


@pytest.mark.parametrize("command", [["run", "e1"],
                                     ["chaos", "--campaigns", "1"]])
def test_trace_sink_is_not_a_run_or_chaos_flag(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--trace-sink", "counters"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trace-sink" in capsys.readouterr().err


def test_scenario_rejects_a_ring_trace_sink(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scenario", _scenario_file(tmp_path), "--trace-sink", "ring:8"])
    assert exc.value.code == 2
    assert "invalid choice: 'ring:8'" in capsys.readouterr().err


# -- span export, timeline, and progress --------------------------------------


def test_scenario_spans_out_and_timeline(tmp_path, capsys):
    spans = tmp_path / "spans.jsonl"
    rc = main(["scenario", _scenario_file(tmp_path, crashes={"p1": 120.0}),
               "--spans-out", str(spans)])
    assert rc == 0
    assert "span records written to" in capsys.readouterr().out
    records = _read_jsonl(spans)
    assert records and all(r["schema"] == "repro.span.v1" for r in records)
    assert records[0]["run"]["seed"] == 3

    svg = tmp_path / "t.svg"
    assert main(["timeline", str(spans), "--svg-out", str(svg)]) == 0
    out = capsys.readouterr().out
    assert "timeline: cli-mini seed 3" in out
    assert "CDF |" in out
    assert svg.read_text().startswith("<svg")


def test_timeline_svg_byte_identical_between_renders(tmp_path, capsys):
    spans = tmp_path / "spans.jsonl"
    assert main(["chaos", "--campaigns", "2", "--seed", "5",
                 "--spans-out", str(spans)]) == 0
    capsys.readouterr()
    one, two = tmp_path / "one.svg", tmp_path / "two.svg"
    assert main(["timeline", str(spans), "--svg-out", str(one)]) == 0
    assert main(["timeline", str(spans), "--svg-out", str(two)]) == 0
    capsys.readouterr()
    assert one.read_bytes() == two.read_bytes()


def test_timeline_unknown_seed_is_clean_error(tmp_path, capsys):
    spans = tmp_path / "spans.jsonl"
    assert main(["scenario", _scenario_file(tmp_path),
                 "--spans-out", str(spans)]) == 0
    capsys.readouterr()
    assert main(["timeline", str(spans), "--seed", "999"]) == 2
    assert "available seeds" in capsys.readouterr().err


def test_timeline_empty_file_is_clean_error(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["timeline", str(empty)]) == 2
    assert "no repro.span.v1 records" in capsys.readouterr().err


def test_sweep_spans_out_collects_all_seeds(tmp_path, capsys):
    spans = tmp_path / "spans.jsonl"
    rc = main(["sweep", _scenario_file(tmp_path), "--seeds", "2",
               "--spans-out", str(spans)])
    assert rc == 0
    capsys.readouterr()
    seeds = {r["run"]["seed"] for r in _read_jsonl(spans)}
    assert len(seeds) == 2


def test_chaos_spans_out_identical_across_workers(tmp_path, capsys):
    serial, pooled = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
    assert main(["chaos", "--campaigns", "3", "--seed", "11",
                 "--spans-out", str(serial)]) == 0
    assert main(["chaos", "--campaigns", "3", "--seed", "11",
                 "--workers", "2", "--spans-out", str(pooled)]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == pooled.read_bytes()


def test_chaos_progress_out_heartbeat(tmp_path, capsys):
    hb = tmp_path / "hb.jsonl"
    rc = main(["chaos", "--campaigns", "2", "--seed", "3",
               "--progress-out", str(hb)])
    assert rc == 0
    capsys.readouterr()
    lines = _read_jsonl(hb)
    assert lines[0]["schema"] == "repro.progress.v1"
    assert lines[-1]["done"] == 2 and lines[-1]["total"] == 2
    assert lines[-1]["converged"] + lines[-1]["unconverged"] == 2


def test_chaos_resume_extends_heartbeat_and_keeps_spans(tmp_path, capsys):
    hb = tmp_path / "hb.jsonl"
    store = tmp_path / "store"
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    assert main(["chaos", "--campaigns", "2", "--seed", "3", "--spans",
                 "--store", str(store), "--progress-out", str(hb),
                 "--spans-out", str(first)]) == 0
    assert main(["chaos", "--campaigns", "2", "--seed", "3", "--spans",
                 "--store", str(store), "--resume", "--progress-out",
                 str(hb), "--spans-out", str(second)]) == 0
    capsys.readouterr()
    # resumed campaign: byte-identical spans, appended heartbeat with
    # the second campaign served entirely from cache
    assert first.read_bytes() == second.read_bytes()
    lines = _read_jsonl(hb)
    assert lines[-1]["done"] == 2 and lines[-1]["cached"] == 2


def test_sweep_progress_flag_draws_live_line(tmp_path, capsys):
    rc = main(["sweep", _scenario_file(tmp_path), "--seeds", "2",
               "--progress"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "\r" in err and "2/2 runs" in err


def test_spans_out_bad_path_fails_fast(tmp_path, capsys):
    rc = main(["chaos", "--campaigns", "1",
               "--spans-out", str(tmp_path)])   # a directory
    assert rc == 2
    assert "is a directory" in capsys.readouterr().err


def test_report_warns_on_records_without_metrics(tmp_path, capsys):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"schema": "repro.run.v1",
                                "summary": {"ok": True},
                                "metrics": None}) + "\n")
    assert main(["report", str(path)]) == 0
    captured = capsys.readouterr()
    assert "warning: 1 record(s) without a usable metrics block" \
        in captured.err


# -- the campaign service commands (serve / submit / store ls) ----------------


def test_submit_against_embedded_service(tmp_path, capsys):
    """`repro submit` round-trips through a live service: queue, wait,
    resubmit as a cache hit."""
    from repro.service import EmbeddedService, ServiceConfig

    spec_path = _scenario_file(tmp_path)
    config = ServiceConfig(store_path=str(tmp_path / "store.jsonl"), port=0)
    with EmbeddedService(config) as (host, port):
        rc = main(["submit", spec_path, "--host", host,
                   "--port", str(port), "--wait"])
        first = capsys.readouterr()
        assert rc == 0
        assert "job j1 queued (run)" in first.out
        assert "job j1: done — 1/1 runs (0 cached, 0 failed)" in first.out

        rc = main(["submit", spec_path, "--host", host,
                   "--port", str(port), "--json"])
        second = capsys.readouterr()
        assert rc == 0
        resp = json.loads(second.out)
        assert resp["cached"] is True and resp["job"] is None


def test_submit_campaign_resubmit_is_all_cached(tmp_path, capsys):
    from repro.service import EmbeddedService, ServiceConfig

    spec_path = _scenario_file(tmp_path)
    config = ServiceConfig(store_path=str(tmp_path / "store.jsonl"), port=0)
    with EmbeddedService(config) as (host, port):
        args = ["submit", spec_path, "--host", host, "--port", str(port),
                "--campaign", "2", "--wait", "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["final"]["done"] == 2 and first["final"]["cached"] == 0

        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cached_hint"] == 2
        assert second["final"]["cached"] == 2
        assert second["spec_keys"] == first["spec_keys"]


def test_submit_unreachable_service_fails_cleanly(tmp_path, capsys):
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    rc = main(["submit", _scenario_file(tmp_path), "--port", str(port)])
    assert rc == 2
    assert "unreachable" in capsys.readouterr().err


def test_submit_unreadable_spec_is_usage_error(tmp_path, capsys):
    rc = main(["submit", str(tmp_path / "missing.json")])
    assert rc == 2
    assert "cannot read spec" in capsys.readouterr().err


def test_store_ls_renders_table_and_counters(tmp_path, capsys):
    spec_path = _scenario_file(tmp_path)
    store = tmp_path / "store.jsonl"
    from repro.service import EmbeddedService, ServiceConfig

    with EmbeddedService(ServiceConfig(store_path=str(store),
                                       port=0)) as (host, port):
        assert main(["submit", spec_path, "--host", host,
                     "--port", str(port), "--wait"]) == 0
    capsys.readouterr()

    assert main(["store", "ls", str(store)]) == 0
    out = capsys.readouterr().out
    assert "store: " in out and "(1 result(s))" in out
    assert "cli-mini" in out
    assert "counters: hits 0, misses 0, puts 0, corrupt_lines 0" in out

    assert main(["store", "ls", str(store), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["entries"]) == 1
    entry = doc["entries"][0]
    assert entry["name"] == "cli-mini" and entry["ok"] is True
    assert len(entry["spec_key"]) == 64


def test_store_ls_reports_a_damaged_body_as_one_line(tmp_path, capsys):
    # Opening validates framing only; ls parses every payload, so damage
    # inside a well-framed line surfaces here — as the same one-line
    # error and exit code a failed open gives, not a traceback.
    from repro.runtime.store import ResultStore

    store = tmp_path / "store.jsonl"
    ResultStore(store).put("k1", {"record": {"summary": {"name": "x"}}})
    store.write_bytes(store.read_bytes().replace(b'"name":', b'"name"'))
    assert main(["store", "ls", str(store)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"repro store: error: {store}:1: corrupt store "
                            "line (not a repro.store.v1 record); move the "
                            "file aside or restart without --store\n")


def test_store_ls_missing_file_is_usage_error(tmp_path, capsys):
    rc = main(["store", "ls", str(tmp_path / "nope.jsonl")])
    assert rc == 2
    assert "no store at" in capsys.readouterr().err


def test_serve_rejects_bad_config(tmp_path, capsys):
    rc = main(["serve", "--store", str(tmp_path / "s.jsonl"),
               "--queue-max", "0"])
    assert rc == 2
    assert "queue-max" in capsys.readouterr().err


# -- the comparison lattice (repro lattice) -----------------------------------


def test_chaos_detector_flag(capsys):
    rc = main(["chaos", "--campaigns", "1", "--seed", "3",
               "--max-time", "300", "--detector", "perfect"])
    assert rc == 0
    assert "chaos campaign: 1 runs" in capsys.readouterr().out
    # The replay handle, the run's spec, carries the knob so failures
    # reproduce under the same detector.
    from repro.chaos import ChaosConfig, build_run
    assert build_run(3, ChaosConfig(detector="perfect")).detector == "perfect"


def test_chaos_unknown_detector_is_a_clean_cli_error(capsys):
    rc = main(["chaos", "--campaigns", "1", "--detector", "psychic"])
    assert rc == 2
    assert "registered detectors" in capsys.readouterr().err


def test_lattice_table_and_artifacts(tmp_path, capsys):
    out = tmp_path / "lattice.jsonl"
    svg = tmp_path / "grid.svg"
    rc = main(["lattice", "--graphs", "ring:4", "--seeds", "2",
               "--max-time", "400",
               "--detectors", "eventually_perfect", "flawed_cm",
               "--out", str(out), "--svg-out", str(svg)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "detector lattice" in text and "dominance" in text
    assert "VIOLATED" in text  # flawed_cm's accuracy verdict
    recs = _read_jsonl(out)
    assert all(r["schema"] == "repro.lattice.v1" for r in recs)
    rows = {r["detector"]: r for r in recs if r["kind"] == "detector"}
    assert rows["eventually_perfect"]["ewx_ok"]
    assert not rows["flawed_cm"]["ewx_ok"]
    assert rows["flawed_cm"]["exclusion_violations"] > 0
    assert svg.read_text().startswith("<svg")


def test_lattice_json_mode(capsys):
    rc = main(["lattice", "--graphs", "ring:4", "--seeds", "1",
               "--max-time", "300", "--detectors", "perfect", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.lattice.v1"
    assert {r["detector"] for r in doc["records"]} == {"perfect"}


def test_lattice_workers_output_is_byte_identical(tmp_path, capsys):
    args = ["lattice", "--graphs", "ring:4", "--seeds", "2",
            "--max-time", "400", "--detectors", "perfect", "trusting"]
    assert main(args) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--workers", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_lattice_unknown_detector_is_a_clean_cli_error(capsys):
    rc = main(["lattice", "--detectors", "psychic", "--seeds", "1"])
    assert rc == 2
    assert "registered detectors" in capsys.readouterr().err
