"""Command-line entry point: experiments, scenarios, sweeps, chaos, bench.

Usage::

    python -m repro list
    python -m repro run e4
    python -m repro run all
    python -m repro scenario examples/scenarios/ring5_crash.json
    python -m repro sweep examples/scenarios/ring5_crash.json --seeds 16
    python -m repro chaos --campaigns 20 --seed 1 --json
    python -m repro chaos --campaigns 64 --workers 4   # multi-core fanout
    python -m repro chaos --replay 2885616951     # reproduce one run
    python -m repro chaos --campaigns 20 --metrics-out out.jsonl
    python -m repro report out.jsonl              # campaign telemetry table
    python -m repro chaos --graphs rgg:100:0.15:7 --pairs neighbors
    python -m repro bench                         # engine microbenchmarks
    python -m repro bench --check                 # fail on perf regression
    python -m repro bench --scaling               # events/sec-vs-n curve
    python -m repro serve --store results.jsonl   # campaign service daemon
    python -m repro submit spec.json --campaign 16 --wait
    python -m repro store ls results.jsonl        # cache inspection

``repro serve`` runs the persistent campaign service (HTTP RunSpec
submission, bounded async job queue, content-addressed cache hits, SSE
job progress, live ``/metrics``, graceful SIGTERM drain with
journal-backed restart recovery); ``repro submit`` is the thin client
and ``repro store ls`` the cache debugging loop — see docs/service.md.

Three flags are accepted uniformly by ``run``/``scenario``/``sweep``/
``chaos`` (shared argparse parent parsers, so helptext and defaults stay
in lockstep):

* ``--workers N`` fans work over a multiprocessing pool; results are
  keyed by seed and bit-identical to the serial run (single-run commands
  accept the flag for interface uniformity and note that it is unused);
* ``--metrics-out PATH`` writes one JSONL record per run with the full
  metric snapshot (docs/observability.md); ``repro report`` aggregates
  such a file into p50/p95/max convergence time, wrongful-suspicion
  totals, and merged latency histograms;
* ``--profile-out PATH`` wraps the command in :mod:`cProfile` and dumps
  a pstats file for ``python -m pstats`` / snakeviz
  (docs/performance.md);
* ``--task-timeout SECONDS`` bounds each pooled run's wall clock — a
  hung worker is killed and the run retried with seeded backoff
  (docs/reliability.md).

``scenario`` and ``sweep`` also accept ``--trace-sink MODE`` (``full`` |
``counters``), which overrides the spec's trace retention; ``counters``
keeps no rows and turns verdict checking off (metrics-only runs; see
docs/runtime.md).  Chaos runs always keep their rows and are judged.

``sweep`` and ``chaos`` additionally accept ``--store PATH`` (checkpoint
per-run results to a content-addressed JSONL store as they complete) and
``--resume`` (serve already-stored runs from the store instead of
re-executing them); an interrupted campaign keeps its partial results and
resumes to byte-identical output (docs/reliability.md).

``scenario``/``sweep``/``chaos`` accept ``--spans-out PATH``: span-level
tracing (per-pair suspicion intervals, dining phases, crash points,
convergence markers) exported as ``repro.span.v1`` JSONL, which
``repro timeline`` renders into suspicion Gantt charts and cross-seed
convergence CDFs (ASCII on stdout, SVG with ``--svg-out``) —
docs/observability.md.  ``sweep`` and ``chaos`` also accept
``--progress`` (force the live stderr progress line even when stderr is
not a TTY) and ``--progress-out PATH`` (append-only heartbeat JSONL, a
liveness signal for long or resumed campaigns).

``repro bench`` runs the deterministic microbench harness
(:mod:`repro.perf.bench`) and emits ``BENCH_engine.json``-shaped output;
``--check`` compares against the committed baseline and fails on a
``--max-regression``-fold slowdown (the CI ``bench-smoke`` job).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time
from typing import Sequence


def _out_path_error(path: "str | None", flag: str) -> "str | None":
    """One-line diagnosis when an output path cannot work, else None.

    Checked *before* any simulation runs, so a typo'd ``--metrics-out``
    or ``--profile-out`` fails in milliseconds instead of tracebacking
    after a long campaign.  Missing parent directories are created (the
    profiler and bench writer already did so; this makes every output
    flag behave the same way).
    """
    if path is None:
        return None
    p = pathlib.Path(path)
    if p.is_dir():
        return f"{flag} {path}: is a directory, expected a file path"
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return f"{flag} {path}: cannot create directory {p.parent} ({exc})"
    if not os.access(p.parent, os.W_OK):
        return f"{flag} {path}: directory {p.parent} is not writable"
    if p.exists() and not os.access(p, os.W_OK):
        return f"{flag} {path}: file is not writable"
    return None


def _fail_usage(prog: str, message: str) -> int:
    print(f"{prog}: error: {message}", file=sys.stderr)
    return 2


def _registry():
    from repro.experiments import REGISTRY

    return REGISTRY


def cmd_list() -> int:
    registry = _registry()
    print("available experiments (see DESIGN.md §4 / EXPERIMENTS.md):\n")
    for eid, mod in registry.items():
        print(f"  {eid:<4} {mod.TITLE}")
    return 0


def cmd_scenario(path: str, metrics_out: str | None = None,
                 trace_sink: str | None = None,
                 spans_out: str | None = None) -> int:
    import dataclasses

    from repro.obs import run_record, write_jsonl
    from repro.runtime import RunSpec, execute

    spec = RunSpec.from_json(path)
    if trace_sink is not None:
        spec = dataclasses.replace(spec, trace=trace_sink)
    if spans_out is not None:
        spec = dataclasses.replace(spec, spans=True)
    report = execute(spec)
    print(report.render())
    if metrics_out is not None:
        write_jsonl(metrics_out, [run_record(report)])
        print(f"metrics written to {metrics_out}")
    if spans_out is not None:
        n = write_jsonl(spans_out, report.span_records())
        print(f"{n} span records written to {spans_out}")
    if not report.checked:
        # counters run: metrics-only, no verdict to gate the exit on.
        return 0
    return 0 if report.ok else 1


def _sweep_one(spec) -> dict:
    """One sweep run (module-level so worker pools pickle it by reference)."""
    from repro.runtime import execute
    from repro.runtime.result import result_payload

    return result_payload(execute(spec))


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


def cmd_sweep(path: str, seeds: Sequence[int], workers: int = 1,
              metrics_out: str | None = None,
              trace_sink: str | None = None,
              store: "object | None" = None,
              resume: bool = False,
              task_timeout: float | None = None,
              spans_out: str | None = None,
              progress: "object | None" = None) -> int:
    """Run one scenario across ``seeds`` and aggregate the verdicts."""
    import dataclasses

    from repro.analysis.report import Table
    from repro.analysis.stats import sweep_many
    from repro.obs import CampaignTelemetry, write_jsonl
    from repro.runtime import RunSpec, SupervisedExecutor
    from repro.runtime.store import resumable_map, spec_hash

    base = RunSpec.from_json(path)
    if trace_sink is not None:
        base = dataclasses.replace(base, trace=trace_sink)
    if spans_out is not None:
        base = dataclasses.replace(base, spans=True)
    seeds = list(seeds)
    shards = [dataclasses.replace(base, seed=int(seed)) for seed in seeds]
    if progress is not None:
        progress.start()
    try:
        rows = resumable_map(
            _sweep_one, shards,
            keys=[spec_hash(shard) for shard in shards],
            encode=lambda row: row,
            decode=lambda payload, i, item: payload,
            store=store, resume=resume,
            executor=SupervisedExecutor(workers=workers,
                                        timeout=task_timeout),
            on_result=(None if progress is None else progress.update))
    finally:
        if progress is not None:
            progress.finish()
    by_seed = {seed: _sweep_stats(row["record"]["summary"])
               for seed, row in zip(seeds, rows)}
    stats = sweep_many(lambda seed: by_seed[seed], seeds)
    table = Table(["metric", "mean ± std [min, max] (n)"],
                  title=f"sweep: {base.name} over {len(list(seeds))} seeds")
    for name, st in stats.items():
        table.add_row([name, st.summary()])
    print(table.render())
    records = [row["record"] for row in rows]
    tele = CampaignTelemetry.from_records(records)
    if tele.with_metrics:
        print(tele.render(title=f"sweep telemetry: {base.name}"))
    if metrics_out is not None:
        write_jsonl(metrics_out, records)
        print(f"metrics written to {metrics_out}")
    if spans_out is not None:
        span_recs = [rec for row in rows for rec in (row.get("spans") or ())]
        n = write_jsonl(spans_out, span_recs)
        print(f"{n} span records written to {spans_out}")
    if "wait_free" not in stats:
        return 0  # unchecked (counters) sweep: metrics-only
    return 0 if stats["wait_free"].mean == 1.0 else 1


def _progress_reporter(args, total: int, label: str):
    """A :class:`~repro.runtime.progress.ProgressReporter` for a campaign,
    or None when neither a TTY nor a progress flag asks for one."""
    from repro.runtime import ProgressReporter

    forced = bool(args.progress or args.progress_out)
    if not forced and not sys.stderr.isatty():
        return None
    return ProgressReporter(total, label=label,
                            heartbeat_path=args.progress_out,
                            live=True if args.progress else None)


def _chaos_config(args) -> "ChaosConfig":
    from repro.chaos import ChaosConfig

    kwargs = {}
    if args.graphs:
        kwargs["graphs"] = tuple(args.graphs)
    return ChaosConfig(
        campaigns=args.campaigns,
        seed=args.seed,
        drop_max=args.drop_max,
        duplicate_max=args.duplicate_max,
        partition_prob=args.partition_prob,
        max_faulty=args.max_faulty,
        slow_prob=args.slow_prob,
        max_time=args.max_time,
        transport=not args.no_transport,
        detector=getattr(args, "detector", None) or "eventually_perfect",
        pairs=args.pairs,
        allow_disconnected=args.allow_disconnected,
        spans=bool(args.spans or args.spans_out is not None),
        **kwargs,
    )


def _open_store(args, prog: str):
    """``(store, error_exit_code)`` from the ``--store``/``--resume``
    flags; store is None when the flags are unused."""
    from repro.errors import ReproError
    from repro.runtime.store import ResultStore

    if args.resume and not args.store:
        return None, _fail_usage(prog, "--resume requires --store PATH")
    if not args.store:
        return None, None
    try:
        return ResultStore(args.store), None
    except ReproError as exc:
        return None, _fail_usage(prog, str(exc))


def _report_store(args, store, prog: str) -> None:
    """Cache-hit accounting on stderr (kept out of stdout so campaign
    output stays byte-comparable across fresh/resumed runs)."""
    if store is None:
        return
    stats = store.stats()
    print(f"{prog}: store {args.store}: "
          f"{int(stats.get('store.hits', 0))} cache hit(s), "
          f"{int(stats.get('store.puts', 0))} new result(s), "
          f"{len(store)} total", file=sys.stderr)


def _report_interrupt(args, store, prog: str) -> int:
    if store is not None:
        print(f"{prog}: interrupted; {len(store)} result(s) checkpointed in "
              f"{args.store} — rerun with --store {args.store} --resume to "
              "continue", file=sys.stderr)
    else:
        print(f"{prog}: interrupted (no --store: partial results were "
              "discarded)", file=sys.stderr)
    return 130


def cmd_chaos(args) -> int:
    """Run a seeded chaos campaign (or replay a single failed run)."""
    import json

    from repro.chaos import replay, run_campaign
    from repro.errors import ConfigurationError, ExecutionError
    from repro.runtime import SupervisedExecutor

    try:
        cfg = _chaos_config(args)
    except ConfigurationError as exc:
        print(f"repro chaos: error: {exc}", file=sys.stderr)
        return 2
    if args.replay is not None:
        verdict = replay(args.replay, cfg)
        if args.json:
            print(json.dumps(verdict.summary(), indent=2))
        else:
            print(verdict.report.render())
            status = "ok" if verdict.ok else "; ".join(verdict.failures)
            print(f"\nreplay of run seed {args.replay}: {status}")
        if args.metrics_out is not None:
            from repro.obs import write_jsonl

            write_jsonl(args.metrics_out, [verdict.run_record()])
        if args.spans_out is not None:
            from repro.obs import write_jsonl

            n = write_jsonl(args.spans_out, verdict.span_records())
            if not args.json:
                print(f"{n} span records written to {args.spans_out}")
        return 0 if verdict.ok else 1

    store, err = _open_store(args, "repro chaos")
    if err is not None:
        return err
    executor = SupervisedExecutor(workers=args.workers,
                                  timeout=args.task_timeout)
    progress = _progress_reporter(args, cfg.campaigns, "chaos")
    if progress is not None:
        progress.start()
    try:
        result = run_campaign(
            cfg, workers=args.workers, store=store,
            resume=args.resume, executor=executor,
            on_result=(None if progress is None else progress.update))
    except KeyboardInterrupt:
        return _report_interrupt(args, store, "repro chaos")
    except ExecutionError as exc:  # e.g. a stored body that fails to parse
        return _fail_usage("repro chaos", str(exc))
    finally:
        if progress is not None:
            progress.finish()
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(result.render())
    _report_store(args, store, "repro chaos")
    if args.metrics_out is not None:
        from repro.obs import write_jsonl

        n = write_jsonl(args.metrics_out, result.run_records())
        if not args.json:
            print(f"{n} run records written to {args.metrics_out}")
    if args.spans_out is not None:
        from repro.obs import write_jsonl

        n = write_jsonl(args.spans_out, result.span_records())
        if not args.json:
            print(f"{n} span records written to {args.spans_out}")
    return 0 if result.ok else 1


def cmd_lattice(args) -> int:
    """Run every registered detector through identical seeded chaos
    campaigns and print the cross-detector comparison matrix."""
    import json

    from repro.errors import ReproError
    from repro.lattice import compare

    for flag, value in (("--out", args.out), ("--svg-out", args.svg_out)):
        err = _out_path_error(value, flag)
        if err is not None:
            return _fail_usage("repro lattice", err)
    store, err = _open_store(args, "repro lattice")
    if err is not None:
        return err
    try:
        result = compare(
            graphs=tuple(args.graphs), seeds=args.seeds, seed=args.seed,
            detectors=args.detectors, workers=args.workers, store=store,
            resume=args.resume, max_time=args.max_time, client=args.client,
            drop_max=args.drop_max, pairs=args.pairs,
            quiet_fraction=args.quiet_fraction)
    except KeyboardInterrupt:
        return _report_interrupt(args, store, "repro lattice")
    except ReproError as exc:
        print(f"repro lattice: error: {exc}", file=sys.stderr)
        return 2
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
    _report_store(args, store, "repro lattice")
    if args.out is not None:
        from repro.obs import write_jsonl

        n = write_jsonl(args.out, result.to_records())
        # Artifact notices go to stderr (the `repro timeline` convention)
        # so stdout is exactly the matrix — byte-comparable across
        # worker counts regardless of artifact paths.
        print(f"{n} lattice records written to {args.out}",
              file=sys.stderr)
    if args.svg_out is not None:
        from repro.analysis.svg import save_svg

        save_svg(result.to_svg(), args.svg_out)
        print(f"dominance grid written to {args.svg_out}",
              file=sys.stderr)
    return 0


def cmd_report(path: str, as_json: bool = False,
               prom_out: str | None = None) -> int:
    """Aggregate a ``--metrics-out`` JSONL file into campaign telemetry."""
    import json

    from repro.errors import ConfigurationError
    from repro.obs import (
        EXPERIMENT_SCHEMA,
        CampaignTelemetry,
        read_jsonl,
        write_prometheus,
    )

    try:
        records = read_jsonl(path)
    except (OSError, ConfigurationError) as exc:
        print(f"repro report: error: {exc}", file=sys.stderr)
        return 2
    runs = [r for r in records if r.get("schema") != EXPERIMENT_SCHEMA]
    if not runs:
        print(f"repro report: no run records in {path}", file=sys.stderr)
        return 2
    tele = CampaignTelemetry.from_records(runs)
    if tele.skipped_no_metrics:
        print(f"repro report: warning: {tele.skipped_no_metrics} record(s) "
              "without a usable metrics block skipped (obs-disabled runs?)",
              file=sys.stderr)
    if as_json:
        print(json.dumps(tele.summary(), indent=2, sort_keys=True))
    else:
        print(tele.render(title=f"campaign telemetry: {path}"))
    if prom_out is not None:
        write_prometheus(prom_out, tele.merged_snapshot())
        if not as_json:
            print(f"prometheus textfile written to {prom_out}")
    return 0


def cmd_timeline(args) -> int:
    """Render ``repro.span.v1`` files into suspicion Gantt charts and a
    cross-seed convergence CDF (ASCII on stdout, SVG via ``--svg-out``)."""
    from repro.errors import ConfigurationError
    from repro.obs.timeline import (
        load_span_records,
        render_timeline_ascii,
        render_timeline_svg,
    )

    err = _out_path_error(args.svg_out, "--svg-out")
    if err is not None:
        return _fail_usage("repro timeline", err)
    try:
        records = load_span_records(args.paths)
        print(render_timeline_ascii(records, seed=args.seed,
                                    width=args.width))
        if args.svg_out is not None:
            from repro.analysis.svg import save_svg

            save_svg(render_timeline_svg(records, seed=args.seed,
                                         width=args.svg_width),
                     args.svg_out)
            # stderr, so stdout stays the render alone (diffable in CI).
            print(f"svg written to {args.svg_out}", file=sys.stderr)
    except (OSError, ConfigurationError) as exc:
        print(f"repro timeline: error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_bench_scaling(args) -> int:
    """The events/sec-vs-n scaling curve (``repro bench --scaling``)."""
    import json

    from repro.errors import ConfigurationError
    from repro.perf.scaling import (
        SCALING_PATH,
        emit_scaling_report,
        render_scaling,
        run_scaling,
    )

    out = args.out if args.out is not None else str(SCALING_PATH)
    err = _out_path_error(out, "--out")
    if err is not None:
        return _fail_usage("repro bench", err)
    kwargs = {"families": args.workloads or None}
    if args.ns:
        kwargs["ns"] = args.ns
    try:
        points = run_scaling(**kwargs)
    except ConfigurationError as exc:
        print(f"repro bench: error: {exc}", file=sys.stderr)
        return 2
    payload = emit_scaling_report(points, out=out)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_scaling(points))
        print(f"scaling report written to {out}")
    return 0


def cmd_bench(args) -> int:
    """Run the engine microbench harness (see docs/performance.md)."""
    import json

    from repro.errors import ConfigurationError
    from repro.perf.bench import (
        check_regressions,
        compare_to_baseline,
        emit_report,
        load_baseline,
        render_results,
        run_bench,
    )

    if args.scaling:
        return _cmd_bench_scaling(args)
    # Fail on bad paths *before* spending the bench budget: a missing
    # baseline or unwritable report path is a one-line error, not a
    # traceback after the timed runs.
    err = _out_path_error(args.out, "--out")
    if err is not None:
        return _fail_usage("repro bench", err)
    try:
        baseline = load_baseline(args.baseline)
        results = run_bench(args.workloads or None, budget=args.budget)
    except ConfigurationError as exc:
        print(f"repro bench: error: {exc}", file=sys.stderr)
        return 2
    speedups = compare_to_baseline(results, baseline)
    payload = emit_report(results, baseline, out=args.out)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_results(results, speedups))
        if args.out:
            print(f"bench report written to {args.out}")
    if args.check:
        failures = check_regressions(results, baseline,
                                     max_regression=args.max_regression)
        if baseline is None:
            print("repro bench: --check requested but no baseline found",
                  file=sys.stderr)
            return 2
        if failures:
            for failure in failures:
                print(f"repro bench: regression: {failure}", file=sys.stderr)
            return 1
        if not args.json:
            print(f"no regression beyond {args.max_regression:g}x "
                  "vs baseline")
    return 0


def cmd_serve(args) -> int:
    """Run the persistent campaign service (docs/service.md)."""
    from repro.errors import ReproError
    from repro.service.server import ServiceConfig, serve_forever

    try:
        config = ServiceConfig(
            store_path=args.store, host=args.host, port=args.port,
            journal_path=args.journal, workers=args.workers,
            queue_max=args.queue_max, task_timeout=args.task_timeout,
            drain_grace=args.drain_grace)
        return serve_forever(config)
    except ReproError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2


def cmd_submit(args) -> int:
    """Submit a RunSpec JSON file to a running campaign service."""
    import json

    from repro.errors import ReproError
    from repro.service.client import Client, ServiceError

    try:
        spec_data = json.loads(pathlib.Path(args.path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return _fail_usage("repro submit",
                           f"cannot read spec {args.path}: {exc}")
    client = Client(args.host, args.port, timeout=args.timeout)
    try:
        if args.campaign is not None:
            sub = client.submit_campaign(spec_data, runs=args.campaign)
        else:
            sub = client.submit_run(spec_data)
        out = dict(sub)
        if args.wait and out.get("job"):
            out["final"] = client.wait(out["job"], timeout=args.timeout)
    except (ServiceError, ReproError) as exc:
        print(f"repro submit: error: {exc}", file=sys.stderr)
        return 2
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
        final = out.get("final")
        if final is not None:
            print(f"job {final['id']}: {final['state']} — "
                  f"{final['done']}/{final['total']} runs "
                  f"({final['cached']} cached, "
                  f"{final['failed_runs']} failed)")
    final = out.get("final")
    if final is not None:
        return 0 if (final["state"] == "done"
                     and not final["failed_runs"]) else 1
    return 0


def cmd_store(args) -> int:
    """Inspect a content-addressed result store (``repro store ls``)."""
    import json

    from repro.analysis.report import Table
    from repro.errors import ReproError
    from repro.runtime.store import ResultStore

    if not pathlib.Path(args.path).exists():
        return _fail_usage("repro store", f"no store at {args.path}")
    try:
        store = ResultStore(args.path)
        # Opening checks each line's framing; items() parses every body.
        items = store.items()
    except ReproError as exc:
        print(f"repro store: error: {exc}", file=sys.stderr)
        return 2
    entries = [{"spec_key": key, **_store_digest(payload)}
               for key, payload in items]
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


def _run_experiment(name: str) -> tuple:
    """One experiment by id, timed (module-level for worker pools)."""
    registry = _registry()
    t0 = time.perf_counter()
    result = registry[name].run()
    return result, time.perf_counter() - t0


def cmd_run(names: Sequence[str], workers: int = 1,
            metrics_out: str | None = None,
            task_timeout: float | None = None) -> int:
    from repro.runtime import SupervisedExecutor

    registry = _registry()
    if list(names) == ["all"]:
        names = list(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use 'python -m repro list'", file=sys.stderr)
        return 2
    failures = 0
    outcomes = SupervisedExecutor(workers=workers,
                                  timeout=task_timeout).map(_run_experiment,
                                                            names)
    for result, dt in outcomes:
        print(result.render())
        print(f"\n({dt:.1f}s wall)\n{'=' * 72}")
        failures += 0 if result.ok else 1
    if metrics_out is not None:
        from repro.obs import experiment_record, write_jsonl

        # Experiment harnesses drive their own engines, so there is no
        # per-run snapshot here — record name/verdict/wall time instead.
        write_jsonl(metrics_out,
                    [experiment_record(name, result.ok, dt)
                     for name, (result, dt) in zip(names, outcomes)])
        print(f"experiment records written to {metrics_out}")
    return 1 if failures else 0


def _common_parents() -> list[argparse.ArgumentParser]:
    """The flag set shared by ``run``/``scenario``/``sweep``/``chaos``.

    One parser per flag so helptext, metavar, and default are declared
    exactly once; ``parents=`` composes them per subcommand.
    """
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=int, default=1,
                         help="worker processes to fan runs over (default 1 "
                              "= serial; per-seed results are identical)")
    workers.add_argument("--task-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="wall-clock budget per pooled run; a hung "
                              "worker is killed and the run retried with "
                              "seeded backoff (docs/reliability.md)")
    metrics = argparse.ArgumentParser(add_help=False)
    metrics.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="write one JSONL metric record per run "
                              "(deterministic: independent of --workers)")
    profile = argparse.ArgumentParser(add_help=False)
    profile.add_argument("--profile-out", default=None, metavar="PATH",
                         help="profile the command with cProfile and dump "
                              "pstats to PATH")
    return [workers, metrics, profile]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction experiments for 'The Weakest Failure "
                    "Detector for Wait-Free Dining under Eventual Weak "
                    "Exclusion'",
    )
    from repro.sim.trace import TRACE_MODES

    parents = _common_parents()
    tracep = argparse.ArgumentParser(add_help=False)
    tracep.add_argument("--trace-sink", default=None, choices=TRACE_MODES,
                        help="trace retention override (counters keeps no "
                             "rows: metrics-only, no verdict checking)")
    spansp = argparse.ArgumentParser(add_help=False)
    spansp.add_argument("--spans-out", default=None, metavar="PATH",
                        help="export span-level tracing (suspicion "
                             "intervals, dining phases, crashes, "
                             "convergence) as repro.span.v1 JSONL for "
                             "'repro timeline' (implies span collection)")
    progp = argparse.ArgumentParser(add_help=False)
    progp.add_argument("--progress", action="store_true",
                       help="force the live stderr progress line even when "
                            "stderr is not a TTY")
    progp.add_argument("--progress-out", default=None, metavar="PATH",
                       help="append heartbeat JSONL snapshots per completed "
                            "run (liveness signal for long/resumed "
                            "campaigns)")
    storep = argparse.ArgumentParser(add_help=False)
    storep.add_argument("--store", default=None, metavar="PATH",
                        help="checkpoint per-run results to a "
                             "content-addressed JSONL store as they land "
                             "(docs/reliability.md)")
    storep.add_argument("--resume", action="store_true",
                        help="serve runs already in --store from the store "
                             "instead of re-executing them")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids and titles")
    runp = sub.add_parser("run", parents=parents,
                          help="run experiments by id ('all' for every one)")
    runp.add_argument("names", nargs="+",
                      help="experiment ids, e.g. e1 e4, or 'all'")
    scen = sub.add_parser("scenario", parents=parents + [tracep, spansp],
                          help="run a declarative scenario from a JSON file")
    scen.add_argument("path", help="path to the scenario JSON")
    swp = sub.add_parser("sweep",
                         parents=parents + [tracep, storep, spansp, progp],
                         help="run a scenario across a seed fanout and "
                              "aggregate statistics")
    swp.add_argument("path", help="path to the scenario JSON")
    swp.add_argument("--seeds", type=int, default=8,
                     help="number of derived seeds (default 8)")
    swp.add_argument("--seed", type=int, default=0,
                     help="base seed the fanout derives from (default 0)")
    cha = sub.add_parser("chaos", parents=parents + [storep, spansp, progp],
                         help="run a seeded randomized fault campaign and "
                              "check dining/oracle invariants per run")
    cha.add_argument("--spans", action="store_true",
                     help="collect span-level tracing even without "
                          "--spans-out (kept in --store payloads and "
                          "replay-run reports)")
    cha.add_argument("--campaigns", type=int, default=20,
                     help="number of randomized runs (default 20)")
    cha.add_argument("--seed", type=int, default=0,
                     help="base seed; each run's seed derives from it")
    cha.add_argument("--replay", type=int, default=None, metavar="RUN_SEED",
                     help="re-run exactly one run from its reported seed")
    cha.add_argument("--drop-max", type=float, default=0.3,
                     help="max per-run message drop probability")
    cha.add_argument("--duplicate-max", type=float, default=0.1,
                     help="max per-run duplication probability")
    cha.add_argument("--partition-prob", type=float, default=0.5,
                     help="probability a run gets a partition window")
    cha.add_argument("--max-faulty", type=int, default=1,
                     help="max crashed processes per run")
    cha.add_argument("--slow-prob", type=float, default=0.3,
                     help="probability a run gets a targeted-delay adversary")
    cha.add_argument("--max-time", type=float, default=900.0,
                     help="virtual horizon per run")
    cha.add_argument("--no-transport", action="store_true",
                     help="expose raw lossy links to the algorithms "
                          "(negative testing; expect invariant failures)")
    cha.add_argument("--graphs", nargs="+", default=None, metavar="SPEC",
                     help="topology pool runs draw from (graph spec strings, "
                          "e.g. ring:4 rgg:100:0.2:7; default: small "
                          "rings/paths/stars)")
    cha.add_argument("--detector", default=None, metavar="NAME",
                     help="failure detector every run uses, by registry "
                          "name (default eventually_perfect; see "
                          "docs/detectors.md)")
    cha.add_argument("--pairs", default="all",
                     help="detector pair selection: all | neighbors | "
                          "neighbors:<k> (neighbors = conflict-graph-local "
                          "monitoring; see docs/topologies.md)")
    cha.add_argument("--allow-disconnected", action="store_true",
                     help="accept disconnected conflict graphs (components "
                          "monitored independently)")
    cha.add_argument("--json", action="store_true",
                     help="emit a machine-readable campaign summary")
    lat = sub.add_parser("lattice", parents=[storep],
                         help="compare every registered failure detector "
                              "through identical seeded chaos campaigns "
                              "(◇WX verdicts, convergence, churn, message "
                              "cost, dominance grid; docs/detectors.md)")
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
                          "registered detector)")
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
    rep.add_argument("path", help="path to the JSONL metrics file")
    rep.add_argument("--json", action="store_true",
                     help="emit the aggregate as JSON instead of a table")
    rep.add_argument("--prom-out", default=None, metavar="PATH",
                     help="also write the merged campaign snapshot as a "
                          "Prometheus textfile")
    ben = sub.add_parser("bench",
                         help="run the engine microbench harness and "
                              "compare against the committed baseline")
    ben.add_argument("--workloads", nargs="*", default=None,
                     help="workload names (default: all; see "
                          "repro.perf.bench.WORKLOADS)")
    ben.add_argument("--budget", type=float, default=1.5,
                     help="timed seconds per workload (default 1.5)")
    ben.add_argument("--out", default=None, metavar="PATH",
                     help="write the BENCH_engine.json payload to PATH")
    ben.add_argument("--baseline", default=None, metavar="PATH",
                     help="baseline JSON to compare against (default: the "
                          "committed BENCH_engine_baseline.json)")
    ben.add_argument("--check", action="store_true",
                     help="exit nonzero on a --max-regression-fold slowdown "
                          "vs the baseline")
    ben.add_argument("--max-regression", type=float, default=3.0,
                     help="tolerated slowdown factor for --check "
                          "(default 3.0; bench hosts vary)")
    ben.add_argument("--json", action="store_true",
                     help="emit the bench payload as JSON")
    ben.add_argument("--scaling", action="store_true",
                     help="measure the events/sec-vs-n scaling curve on "
                          "sparse families (pairs=neighbors) instead of the "
                          "fixed microbenchmarks; writes BENCH_scaling.json "
                          "(with --scaling, --workloads selects families "
                          "and --out overrides the artifact path)")
    ben.add_argument("--ns", nargs="*", type=int, default=None,
                     metavar="N",
                     help="system sizes for --scaling "
                          "(default: 16 64 256 1000)")
    srv = sub.add_parser("serve",
                         help="run the persistent campaign service: HTTP "
                              "RunSpec submissions, async job queue, "
                              "result-cache hits, live /metrics "
                              "(docs/service.md)")
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
    stols.add_argument("path", help="path to the store JSONL file")
    stols.add_argument("--json", action="store_true",
                       help="emit the listing as JSON")
    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "report":
        return cmd_report(args.path, as_json=args.json,
                          prom_out=args.prom_out)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "lattice":
        return cmd_lattice(args)
    if args.command == "timeline":
        return cmd_timeline(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "submit":
        return cmd_submit(args)
    if args.command == "store":
        return cmd_store(args)

    # Output-path flags fail in milliseconds, not after a long campaign.
    for flag, value in (("--metrics-out", args.metrics_out),
                        ("--profile-out", args.profile_out),
                        ("--spans-out", getattr(args, "spans_out", None)),
                        ("--progress-out",
                         getattr(args, "progress_out", None))):
        err = _out_path_error(value, flag)
        if err is not None:
            return _fail_usage(f"repro {args.command}", err)

    from repro.perf.profiler import profile_to

    with profile_to(args.profile_out):
        if args.command == "scenario":
            if args.workers != 1:
                print("note: --workers does not apply to a single scenario "
                      "run; ignored", file=sys.stderr)
            return cmd_scenario(args.path, metrics_out=args.metrics_out,
                                trace_sink=args.trace_sink,
                                spans_out=args.spans_out)
        if args.command == "sweep":
            from repro.errors import ExecutionError
            from repro.runtime import fanout_seeds

            store, err = _open_store(args, "repro sweep")
            if err is not None:
                return err
            try:
                code = cmd_sweep(args.path,
                                 fanout_seeds(args.seed, args.seeds),
                                 workers=args.workers,
                                 metrics_out=args.metrics_out,
                                 trace_sink=args.trace_sink,
                                 store=store, resume=args.resume,
                                 task_timeout=args.task_timeout,
                                 spans_out=args.spans_out,
                                 progress=_progress_reporter(
                                     args, args.seeds, "sweep"))
            except KeyboardInterrupt:
                return _report_interrupt(args, store, "repro sweep")
            except ExecutionError as exc:
                return _fail_usage("repro sweep", str(exc))
            _report_store(args, store, "repro sweep")
            return code
        if args.command == "chaos":
            return cmd_chaos(args)
        return cmd_run(args.names, workers=args.workers,
                       metrics_out=args.metrics_out,
                       task_timeout=args.task_timeout)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
