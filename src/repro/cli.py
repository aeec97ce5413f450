"""Command-line entry point: ``python -m repro --help`` lists the commands
and ``python -m repro <command> --help`` their flags; README.md ("Command
line") and docs/ describe each one.

Exit codes: 0 ok, 1 a verdict failed, 2 usage or config error, 130
interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import dataclasses
import json
import os
import pathlib
import sys
import time
from typing import Iterator, Sequence

from repro.chaos import CHAOS_FLAGS
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    ReproError,
    SimulationError,
    SpecificationViolation,
)
from repro.obs import (
    EXPERIMENT_SCHEMA,
    CampaignTelemetry,
    experiment_record,
    read_jsonl,
    run_record,
    write_jsonl,
    write_prometheus,
)
from repro.runtime import (
    ProgressReporter,
    ResultStore,
    RunSpec,
    SupervisedExecutor,
    execute,
    execute_payload,
    fanout_seeds,
    resumable_map,
    spec_hash,
)
from repro.sim.trace import TRACE_MODES


def _check_out_path(path: str, flag: str) -> None:
    """Refuse an output path that cannot work, before any run starts, so
    a typo fails in milliseconds instead of after a long campaign.
    Missing parent directories are created."""
    p = pathlib.Path(path)
    if p.is_dir():
        raise ConfigurationError(
            f"{flag} {path}: is a directory, expected a file path")
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"{flag} {path}: cannot create directory "
                                 f"{p.parent} ({exc})") from None
    if not os.access(p.parent, os.W_OK):
        raise ConfigurationError(
            f"{flag} {path}: directory {p.parent} is not writable")
    if p.exists() and not os.access(p, os.W_OK):
        raise ConfigurationError(f"{flag} {path}: file is not writable")


def _export(path: "str | None", records, notice: "str | None",
            stream=None) -> None:
    """Write ``records`` as JSONL to ``path``, when one was given, and
    print ``notice`` (formatted with the record count ``n`` and ``path``)."""
    if path is None:
        return
    n = write_jsonl(path, records)
    if notice is not None:
        print(notice.format(n=n, path=path), file=stream)


def _campaign(args, run, total: "int | None" = None, label: str = ""):
    """``run(store, on_result)`` as one ``--store``-backed campaign.

    Opens the store (refusing ``--resume`` without one), draws the
    progress line of a ``total``-run campaign, reports the store's counts
    on stderr (so stdout stays byte-comparable across fresh and resumed
    runs) and, on an interrupt, says what was kept before re-raising."""
    if args.resume and not args.store:
        raise ConfigurationError("--resume requires --store PATH")
    store = ResultStore(args.store) if args.store else None
    prog = f"repro {args.command}"
    progress = None
    if total is not None and (args.progress or args.progress_out
                              or sys.stderr.isatty()):
        progress = ProgressReporter(total, label=label,
                                    heartbeat_path=args.progress_out,
                                    live=True if args.progress else None)
        progress.start()
    try:
        result = run(store, None if progress is None else progress.update)
    except KeyboardInterrupt:
        if store is not None:
            print(f"{prog}: interrupted; {len(store)} result(s) checkpointed "
                  f"in {args.store} — rerun with --store {args.store} "
                  "--resume to continue", file=sys.stderr)
        else:
            print(f"{prog}: interrupted (no --store: partial results were "
                  "discarded)", file=sys.stderr)
        raise
    finally:
        if progress is not None:
            progress.finish()
    if store is not None:
        stats = store.stats()
        print(f"{prog}: store {args.store}: "
              f"{int(stats.get('store.hits', 0))} cache hit(s), "
              f"{int(stats.get('store.puts', 0))} new result(s), "
              f"{len(store)} total", file=sys.stderr)
    return result


def _registry():
    from repro.experiments import REGISTRY

    return REGISTRY


def cmd_list(args) -> int:
    print("available experiments (see DESIGN.md §4 / EXPERIMENTS.md):\n")
    for eid, mod in _registry().items():
        print(f"  {eid:<4} {mod.TITLE}")
    return 0


def _run_experiment(name: str) -> tuple:
    """One experiment by id, timed (module-level for worker pools)."""
    t0 = time.perf_counter()
    result = _registry()[name].run()
    return result, time.perf_counter() - t0


def cmd_run(args) -> int:
    registry = _registry()
    names = list(registry) if args.names == ["all"] else args.names
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise ConfigurationError(f"unknown experiment(s): "
                                 f"{', '.join(unknown)} (see 'repro list')")
    outcomes = SupervisedExecutor(workers=args.workers,
                                  timeout=args.task_timeout).map(
        _run_experiment, names)
    for result, dt in outcomes:
        print(result.render())
        print(f"\n({dt:.1f}s wall)\n{'=' * 72}")
    # Experiment harnesses drive their own engines, so there is no per-run
    # snapshot here — record name/verdict/wall time instead.
    _export(args.metrics_out,
            [experiment_record(name, result.ok, dt)
             for name, (result, dt) in zip(names, outcomes)],
            "experiment records written to {path}")
    return 0 if all(result.ok for result, _ in outcomes) else 1


def _load_spec(args) -> RunSpec:
    """The ``path`` scenario under the ``--trace-sink``/``--spans-out``
    overrides."""
    spec = RunSpec.from_json(args.path)
    if args.trace_sink is not None:
        spec = dataclasses.replace(spec, trace=args.trace_sink)
    if args.spans_out is not None:
        spec = dataclasses.replace(spec, spans=True)
    return spec


def cmd_scenario(args) -> int:
    report = execute(_load_spec(args))
    print(report.render())
    _export(args.metrics_out, [run_record(report)], "metrics written to {path}")
    _export(args.spans_out, report.span_records(),
            "{n} span records written to {path}")
    # A counters run is metrics-only: no verdict to gate the exit on.
    return 1 if report.checked and not report.ok else 0


def _sweep_stats(run: dict) -> dict:
    """One run's sweep statistics, read off its record's ``summary``."""
    stats = {"messages": float(run["messages_sent"])}
    if run["checked"]:
        stats.update({
            "wait_free": 1.0 if run["wait_free"] else 0.0,
            "max_wait": run["max_hungry_wait"],
            "violations": float(run["exclusion_violations"]),
            "last_violation": run["last_violation_end"],
            "worst_overtaking": float(run["worst_overtaking"]),
        })
    return stats


def cmd_sweep(args) -> int:
    """Run one scenario across a seed fanout and aggregate the verdicts."""
    from repro.analysis.report import Table
    from repro.analysis.stats import sweep_many

    base = _load_spec(args)
    seeds = fanout_seeds(args.seed, args.seeds)
    shards = [dataclasses.replace(base, seed=int(seed)) for seed in seeds]
    rows = _campaign(args, lambda store, on_result: resumable_map(
        execute_payload, shards,
        keys=[spec_hash(shard) for shard in shards],
        encode=lambda row: row,
        decode=lambda payload, i, item: payload,
        store=store, resume=args.resume,
        executor=SupervisedExecutor(workers=args.workers,
                                    timeout=args.task_timeout),
        on_result=on_result), total=len(shards), label="sweep")
    by_seed = {seed: _sweep_stats(row["record"]["summary"])
               for seed, row in zip(seeds, rows)}
    stats = sweep_many(lambda seed: by_seed[seed], seeds)
    table = Table(["metric", "mean ± std [min, max] (n)"],
                  title=f"sweep: {base.name} over {len(seeds)} seeds")
    for name, st in stats.items():
        table.add_row([name, st.summary()])
    print(table.render())
    records = [row["record"] for row in rows]
    tele = CampaignTelemetry.from_records(records)
    if tele.with_metrics:
        print(tele.render(title=f"sweep telemetry: {base.name}"))
    _export(args.metrics_out, records, "metrics written to {path}")
    _export(args.spans_out,
            [rec for row in rows for rec in (row.get("spans") or ())],
            "{n} span records written to {path}")
    if "wait_free" not in stats:
        return 0  # unchecked (counters) sweep: metrics-only
    return 0 if stats["wait_free"].mean == 1.0 else 1


def _replay_spec(text: str, spans: bool) -> RunSpec:
    """The ``--replay`` argument: one run's RunSpec JSON, as a failed
    campaign row prints it."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"--replay: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError("--replay: expected a RunSpec JSON object, "
                                 f"got {text!r}")
    spec = RunSpec.from_dict(data)
    return dataclasses.replace(spec, spans=True) if spans else spec


def cmd_chaos(args) -> int:
    """Run a seeded chaos campaign (or replay a single failed run)."""
    from repro.chaos import ChaosConfig, run_campaign, run_one

    args.spans = args.spans or args.spans_out is not None
    cfg = ChaosConfig.from_args(args)
    if args.replay is not None:
        spec = _replay_spec(args.replay, args.spans)
        outcome = run_one(0, spec.seed, cfg, spec)
        records = [outcome.run_record()]
        if args.json:
            print(json.dumps(outcome.summary(), indent=2))
        else:
            print(outcome.report.render())
            status = "ok" if outcome.ok else "; ".join(outcome.failures)
            print(f"\nreplay of run seed {spec.seed}: {status}")
    else:
        outcome = _campaign(args, lambda store, on_result: run_campaign(
            cfg, store=store, resume=args.resume,
            executor=SupervisedExecutor(workers=args.workers,
                                        timeout=args.task_timeout),
            on_result=on_result), total=cfg.campaigns, label="chaos")
        records = outcome.run_records()
        print(json.dumps(outcome.to_json(), indent=2) if args.json
              else outcome.render())
    # --json keeps stdout one JSON document: no export notices.
    _export(args.metrics_out, records,
            None if args.json else "{n} run records written to {path}")
    _export(args.spans_out, outcome.span_records(),
            None if args.json else "{n} span records written to {path}")
    return 0 if outcome.ok else 1


def cmd_lattice(args) -> int:
    """Run the selected detectors (by default every registered one but
    ``extracted``) through identical seeded chaos campaigns and print the
    cross-detector comparison matrix."""
    from repro.lattice import compare

    result = _campaign(args, lambda store, on_result: compare(
        graphs=tuple(args.graphs), seeds=args.seeds, seed=args.seed,
        detectors=args.detectors, workers=args.workers, store=store,
        resume=args.resume, max_time=args.max_time, client=args.client,
        drop_max=args.drop_max, pairs=args.pairs,
        quiet_fraction=args.quiet_fraction))
    if args.json:
        payload = {"schema": "repro.lattice.v1",
                   "graphs": list(result.graphs),
                   "seeds": result.seeds,
                   "seed": result.seed,
                   "quiet_fraction": result.quiet_fraction,
                   "records": result.to_records()}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(result.render())
    # Artifact notices go to stderr (the `repro timeline` convention) so
    # stdout is exactly the matrix — byte-comparable across worker counts
    # regardless of artifact paths.
    _export(args.out, result.to_records(),
            "{n} lattice records written to {path}", sys.stderr)
    if args.svg_out is not None:
        from repro.analysis.svg import save_svg

        save_svg(result.to_svg(), args.svg_out)
        print(f"dominance grid written to {args.svg_out}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    """Aggregate a ``--metrics-out`` JSONL file into campaign telemetry."""
    runs = [r for r in read_jsonl(args.path)
            if r.get("schema") != EXPERIMENT_SCHEMA]
    if not runs:
        raise ConfigurationError(f"no run records in {args.path}")
    tele = CampaignTelemetry.from_records(runs)
    if tele.skipped_no_metrics:
        print(f"repro report: warning: {tele.skipped_no_metrics} record(s) "
              "without a usable metrics block skipped (obs-disabled runs?)",
              file=sys.stderr)
    if args.json:
        print(json.dumps(tele.summary(), indent=2, sort_keys=True))
    else:
        print(tele.render(title=f"campaign telemetry: {args.path}"))
    if args.prom_out is not None:
        write_prometheus(args.prom_out, tele.merged_snapshot())
        if not args.json:
            print(f"prometheus textfile written to {args.prom_out}")
    return 0


def cmd_timeline(args) -> int:
    """Render ``repro.span.v1`` files into suspicion Gantt charts and a
    cross-seed convergence CDF (ASCII on stdout, SVG via ``--svg-out``)."""
    from repro.obs.timeline import (
        load_span_records,
        render_timeline_ascii,
        render_timeline_svg,
    )

    records = load_span_records(args.paths)
    print(render_timeline_ascii(records, seed=args.seed, width=args.width))
    if args.svg_out is not None:
        from repro.analysis.svg import save_svg

        save_svg(render_timeline_svg(records, seed=args.seed,
                                     width=args.svg_width), args.svg_out)
        # stderr, so stdout stays the render alone (diffable in CI).
        print(f"svg written to {args.svg_out}", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    """Run the persistent campaign service (docs/service.md)."""
    from repro.service.server import ServiceConfig, serve_forever

    return serve_forever(ServiceConfig(
        store_path=args.store, host=args.host, port=args.port,
        journal_path=args.journal, workers=args.workers,
        queue_max=args.queue_max, task_timeout=args.task_timeout,
        drain_grace=args.drain_grace))


def cmd_submit(args) -> int:
    """Submit a RunSpec JSON file to a running campaign service."""
    from repro.service.client import Client

    try:
        spec_data = json.loads(pathlib.Path(args.path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"cannot read spec {args.path}: {exc}") from None
    client = Client(args.host, args.port, timeout=args.timeout)
    if args.campaign is not None:
        out = dict(client.submit_campaign(spec_data, runs=args.campaign))
    else:
        out = dict(client.submit_run(spec_data))
    if args.wait and out.get("job"):
        out["final"] = client.wait(out["job"], timeout=args.timeout)
    final = out.get("final")
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        if out.get("cached"):
            print(f"cache hit: {out['spec_key']} (served from store, "
                  "no job scheduled)")
        else:
            label = (f"campaign of {out['total']} runs"
                     if args.campaign is not None else "run")
            print(f"job {out['job']} queued ({label})")
        if final is not None:
            print(f"job {final['id']}: {final['state']} — "
                  f"{final['done']}/{final['total']} runs "
                  f"({final['cached']} cached, "
                  f"{final['failed_runs']} failed)")
    if final is not None:
        return 0 if (final["state"] == "done"
                     and not final["failed_runs"]) else 1
    return 0


def cmd_store(args) -> int:
    """Inspect a content-addressed result store (``repro store ls``)."""
    from repro.analysis.report import Table

    if not pathlib.Path(args.path).exists():
        raise ConfigurationError(f"no store at {args.path}")
    store = ResultStore(args.path)
    # Opening checks each line's framing; items() parses every body.
    entries = [{"spec_key": key, **_store_digest(payload)}
               for key, payload in store.items()]
    counters = {name: int(value) for name, value in store.stats().items()}
    if args.json:
        print(json.dumps({"path": str(args.path), "entries": entries,
                          "counters": counters},
                         indent=2, sort_keys=True))
        return 0
    table = Table(["spec_key", "name", "seed", "ok", "events"],
                  title=f"store: {args.path} ({len(store)} result(s))")
    for entry in entries:
        table.add_row([entry["spec_key"], entry["name"],
                       entry["seed"], entry["ok"], entry["events"]])
    print(table.render())
    print("counters: " + ", ".join(
        f"{name.split('.', 1)[1]} {counters.get(name, 0)}"
        for name in ("store.hits", "store.misses", "store.puts",
                     "store.corrupt_lines")))
    return 0


def _store_digest(payload) -> dict:
    """Human row for one store payload: every writer stores the
    ``repro.result.v1`` envelope, whose ``record.summary`` block this
    reads; degrade to blanks on anything else rather than failing the
    listing."""
    record = payload.get("record") if isinstance(payload, dict) else None
    summary = record.get("summary") if isinstance(record, dict) else None
    if not isinstance(summary, dict):
        summary = {}
    return {"name": summary.get("name"), "seed": summary.get("seed"),
            "ok": summary.get("ok"), "events": summary.get("events_processed")}


def _flags(*rows) -> argparse.ArgumentParser:
    """A parent parser holding ``(flag, argparse keywords)`` rows, so a
    flag shared by several commands is declared once."""
    parser = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in rows:
        parser.add_argument(flag, **kwargs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser; each command sets ``func`` to its handler."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction experiments for 'The Weakest Failure "
                    "Detector for Wait-Free Dining under Eventual Weak "
                    "Exclusion'",
    )
    poolp = _flags(
        ("--workers", dict(type=int, default=1,
                           help="worker processes to fan runs over (default "
                                "1 = serial; per-seed results are "
                                "identical)")),
        ("--task-timeout", dict(type=float, default=None, metavar="SECONDS",
                                help="wall-clock budget per pooled run; a "
                                     "hung worker is killed and the run "
                                     "retried with seeded backoff "
                                     "(docs/reliability.md)")))
    outp = _flags(
        ("--metrics-out", dict(default=None, metavar="PATH",
                               help="write one JSONL metric record per run "
                                    "(deterministic: independent of "
                                    "--workers)")),
        ("--profile-out", dict(default=None, metavar="PATH",
                               help="profile the command with cProfile and "
                                    "dump pstats to PATH")))
    tracep = _flags(("--trace-sink", dict(
        default=None, choices=TRACE_MODES,
        help="trace retention override (counters keeps no rows: "
             "metrics-only, no verdict checking)")))
    spansp = _flags(("--spans-out", dict(
        default=None, metavar="PATH",
        help="export span-level tracing (suspicion intervals, dining "
             "phases, crashes, convergence) as repro.span.v1 JSONL for "
             "'repro timeline' (implies span collection)")))
    progp = _flags(
        ("--progress", dict(action="store_true",
                            help="force the live stderr progress line even "
                                 "when stderr is not a TTY")),
        ("--progress-out", dict(default=None, metavar="PATH",
                                help="append heartbeat JSONL snapshots per "
                                     "completed run (liveness signal for "
                                     "long/resumed campaigns)")))
    storep = _flags(
        ("--store", dict(default=None, metavar="PATH",
                         help="checkpoint per-run results to a "
                              "content-addressed JSONL store as they land "
                              "(docs/reliability.md)")),
        ("--resume", dict(action="store_true",
                          help="serve runs already in --store from the "
                               "store instead of re-executing them")))
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids and titles"
                   ).set_defaults(func=cmd_list)
    runp = sub.add_parser("run", parents=[poolp, outp],
                          help="run experiments by id ('all' for every one)")
    runp.set_defaults(func=cmd_run)
    runp.add_argument("names", nargs="+",
                      help="experiment ids, e.g. e1 e4, or 'all'")
    scen = sub.add_parser("scenario", parents=[outp, tracep, spansp],
                          help="run a declarative scenario from a JSON file")
    scen.set_defaults(func=cmd_scenario)
    scen.add_argument("path", help="path to the scenario JSON")
    swp = sub.add_parser("sweep",
                         parents=[poolp, outp, tracep, storep, spansp,
                                  progp],
                         help="run a scenario across a seed fanout and "
                              "aggregate statistics")
    swp.set_defaults(func=cmd_sweep)
    swp.add_argument("path", help="path to the scenario JSON")
    swp.add_argument("--seeds", type=int, default=8,
                     help="number of derived seeds (default 8)")
    swp.add_argument("--seed", type=int, default=0,
                     help="base seed the fanout derives from (default 0)")
    cha = sub.add_parser("chaos",
                         parents=[poolp, outp, storep, spansp, progp],
                         help="run a seeded randomized fault campaign and "
                              "check dining/oracle invariants per run")
    cha.set_defaults(func=cmd_chaos)
    for field, flag, kwargs in CHAOS_FLAGS:
        cha.add_argument(flag, dest=field, **kwargs)
    cha.add_argument("--json", action="store_true",
                     help="emit a machine-readable campaign summary")
    lat = sub.add_parser("lattice", parents=[storep],
                         help="compare the registered failure detectors "
                              "through identical seeded chaos campaigns "
                              "(◇WX verdicts, convergence, churn, message "
                              "cost, dominance grid; docs/detectors.md)")
    lat.set_defaults(func=cmd_lattice)
    lat.add_argument("--graphs", nargs="+", default=["ring:6"],
                     metavar="SPEC",
                     help="topology pool (graph spec strings; "
                          "default ring:6)")
    lat.add_argument("--seeds", type=int, default=4,
                     help="seeded runs per detector (default 4)")
    lat.add_argument("--seed", type=int, default=0,
                     help="base seed the run seeds derive from (default 0)")
    lat.add_argument("--detectors", nargs="+", default=None, metavar="NAME",
                     help="registry names to compare (default: every "
                          "registered detector but extracted, whose two "
                          "dining instances per monitored pair would "
                          "change the default lattice's output and cost; "
                          "name it to rank it)")
    lat.add_argument("--workers", type=int, default=1,
                     help="worker processes per campaign (default 1; "
                          "output is byte-identical to serial)")
    lat.add_argument("--max-time", type=float, default=600.0,
                     help="virtual horizon per run (default 600)")
    lat.add_argument("--client", default="periodic",
                     help="workload client spec (default periodic)")
    lat.add_argument("--drop-max", type=float, default=0.1,
                     help="max per-run message drop probability "
                          "(default 0.1)")
    lat.add_argument("--pairs", default="all",
                     help="detector pair selection: all | neighbors | "
                          "neighbors:<k>")
    lat.add_argument("--quiet-fraction", type=float, default=0.25,
                     help="final run fraction that must be violation-free "
                          "for the ◇WX verdict (default 0.25)")
    lat.add_argument("--json", action="store_true",
                     help="emit the full matrix as JSON")
    lat.add_argument("--out", default=None, metavar="PATH",
                     help="write repro.lattice.v1 JSONL records to PATH")
    lat.add_argument("--svg-out", default=None, metavar="PATH",
                     help="write the SVG dominance grid to PATH")
    tl = sub.add_parser("timeline",
                        help="render repro.span.v1 files (--spans-out) into "
                             "per-pair suspicion Gantt charts and a "
                             "cross-seed convergence CDF")
    tl.set_defaults(func=cmd_timeline)
    tl.add_argument("paths", nargs="+",
                    help="span JSONL files (from --spans-out)")
    tl.add_argument("--seed", type=int, default=None,
                    help="run seed to render lanes for (default: the first "
                         "run found; the CDF always covers every run)")
    tl.add_argument("--width", type=int, default=88,
                    help="ASCII lane width in columns (default 88)")
    tl.add_argument("--svg-out", default=None, metavar="PATH",
                    help="also write an SVG rendering to PATH")
    tl.add_argument("--svg-width", type=int, default=900,
                    help="SVG canvas width in px (default 900)")
    rep = sub.add_parser("report",
                         help="aggregate a --metrics-out JSONL file into "
                              "campaign telemetry (p50/p95/max convergence "
                              "time, latency histograms, message totals)")
    rep.set_defaults(func=cmd_report)
    rep.add_argument("path", help="path to the JSONL metrics file")
    rep.add_argument("--json", action="store_true",
                     help="emit the aggregate as JSON instead of a table")
    rep.add_argument("--prom-out", default=None, metavar="PATH",
                     help="also write the merged campaign snapshot as a "
                          "Prometheus textfile")
    srv = sub.add_parser("serve",
                         help="run the persistent campaign service: HTTP "
                              "RunSpec submissions, async job queue, "
                              "result-cache hits, live /metrics "
                              "(docs/service.md)")
    srv.set_defaults(func=cmd_serve)
    srv.add_argument("--store", required=True, metavar="PATH",
                     help="content-addressed result store backing the "
                          "cache (created if missing)")
    srv.add_argument("--journal", default=None, metavar="PATH",
                     help="job journal for restart recovery "
                          "(default: <store>.jobs)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8642,
                     help="bind port (default 8642; 0 picks a free port)")
    srv.add_argument("--workers", type=int, default=1,
                     help="supervised worker processes per job (default 1)")
    srv.add_argument("--queue-max", type=int, default=64,
                     help="bounded job-queue depth; submissions beyond it "
                          "get 503 (default 64)")
    srv.add_argument("--task-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="wall-clock budget per pooled run "
                          "(docs/reliability.md)")
    srv.add_argument("--drain-grace", type=float, default=60.0,
                     metavar="SECONDS",
                     help="seconds SIGTERM waits for queued jobs before "
                          "exiting with them journaled (default 60)")
    sbm = sub.add_parser("submit",
                         help="submit a RunSpec JSON file to a running "
                              "campaign service")
    sbm.set_defaults(func=cmd_submit)
    sbm.add_argument("path", help="path to the RunSpec JSON")
    sbm.add_argument("--campaign", type=int, default=None, metavar="RUNS",
                     help="submit as a seed fan-out campaign of RUNS runs")
    sbm.add_argument("--host", default="127.0.0.1",
                     help="service host (default 127.0.0.1)")
    sbm.add_argument("--port", type=int, default=8642,
                     help="service port (default 8642)")
    sbm.add_argument("--wait", action="store_true",
                     help="poll the job until done/failed and exit "
                          "nonzero on failure")
    sbm.add_argument("--timeout", type=float, default=300.0,
                     help="request/wait timeout in seconds (default 300)")
    sbm.add_argument("--json", action="store_true",
                     help="print the raw submission (and final job) JSON")
    sto = sub.add_parser("store",
                         help="inspect a content-addressed result store")
    stosub = sto.add_subparsers(dest="store_command", required=True)
    ls_help = ("list spec keys, run summaries, and hit/miss/put/corrupt "
               "counters; parses every stored payload, so it is also the "
               "full-file integrity check")
    stols = stosub.add_parser("ls", help=ls_help, description=ls_help)
    stols.set_defaults(func=cmd_store)
    stols.add_argument("path", help="path to the store JSONL file")
    stols.add_argument("--json", action="store_true",
                       help="emit the listing as JSON")
    return parser


@contextlib.contextmanager
def profile_to(path: str | None) -> Iterator[None]:
    """cProfile the enclosed block into ``path``, a standard
    :mod:`pstats` dump (``python -m pstats PATH``); a no-op when ``path``
    is None, so ``main`` wraps every command in it unconditionally."""
    if path is None:
        yield
        return
    prof = cProfile.Profile()
    prof.enable()
    try:
        yield
    finally:
        prof.disable()
        prof.dump_stats(path)


def main(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` and run its command: the one place that turns an
    error into an exit code (see the module docstring)."""
    args = build_parser().parse_args(argv)
    try:
        for name, path in vars(args).items():
            if path is not None and (name == "out" or name.endswith("_out")):
                _check_out_path(path, "--" + name.replace("_", "-"))
        with profile_to(getattr(args, "profile_out", None)):
            return args.func(args)
    except (InvariantViolation, SpecificationViolation, SimulationError):
        raise  # a run broke, not its input: keep the traceback
    except (ReproError, OSError) as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
