"""The interval machine judges online what the parent judge found offline.

Each example simulates one small random spec with a ``full`` trace and
judges it three ways:

* **online** — what ``execute`` stores: the run's own interval machine,
  subscribed before any module attached, read after the run;
* **reference** — the parent's post-run judge, probes and span probe,
  kept verbatim in ``reference_judge``, over the retained trace (scanning
  ``Trace.records`` patched in);
* **offline** — today's trace-taking checkers, which replay the trace's
  rows through a fresh machine.

All three must agree on every verdict, the probe metrics and the span
rows; each diner's eating and hungry intervals, now also replays, must
equal the parent's state-series extraction.  The tripwire pins what
judging online buys: a checked run reads the trace's rows zero times,
whatever the number of monitored pairs.
"""

from types import SimpleNamespace
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dining import spec as dining_spec
from repro.obs.registry import MetricsRegistry
from repro.oracles.registry import REGISTRY
from repro.runtime import builder
from repro.runtime.builder import INSTANCE, execute, instantiate
from repro.runtime.spec import RunSpec, parse_graph
from repro.sim.metrics import collect_metrics
from repro.sim.trace import Trace, state_intervals
from tests.runtime import reference_judge as ref

GRAPHS = st.one_of(
    st.integers(3, 10).map(lambda n: f"ring:{n}"),
    st.integers(2, 10).map(lambda n: f"clique:{n}"),
    st.integers(2, 10).map(lambda n: f"path:{n}"),
    st.builds(lambda n, r, s: f"rgg:{n}:{r}:{s}", st.integers(3, 10),
              st.sampled_from([0.3, 0.5, 0.8]), st.integers(0, 99)),
)

ALGORITHMS = ["wf-ewx", "deferred", "deferred:60", "hygienic", "manager",
              "fair:2"]

#: The metric families the probes own (the rest of the registry is
#: network, transport and engine accounting).
PROBE_PREFIXES = ("oracle.", "dining.hungry", "dining.sessions", "core.",
                  "run.")


@st.composite
def specs(draw):
    graph = draw(GRAPHS)
    max_time = draw(st.sampled_from([300.0, 600.0]))
    pids = sorted(parse_graph(graph).nodes)
    # S and ◇S need one correct anchor, so at most n - 1 crashes.
    crashed = draw(st.lists(st.sampled_from(pids), unique=True,
                            max_size=min(2, len(pids) - 1)))
    crashes = {p: draw(st.floats(1.0, max_time - 1.0)) for p in crashed}
    algorithm = draw(st.sampled_from(ALGORITHMS))
    # The manager queries its detector about the manager process, which
    # conflict-graph-local pairs need not monitor.
    pairs = "all" if algorithm == "manager" else draw(
        st.sampled_from(["all", "neighbors"]))
    return RunSpec(
        graph=graph, allow_disconnected=True, algorithm=algorithm,
        detector=draw(st.sampled_from(sorted(REGISTRY))), pairs=pairs,
        crashes=crashes, seed=draw(st.integers(0, 2**16)),
        max_time=max_time, gst=draw(st.sampled_from([60.0, 120.0])),
        drop=draw(st.sampled_from([0.0, 0.1, 0.3])),
        duplicate=draw(st.sampled_from([0.0, 0.2])), spans=True)


def run_online(spec):
    """``execute``'s path, keeping the built run: judge, run, finish."""
    built = instantiate(spec)
    eng = built.engine
    eng.intervals.judge(built.graph, INSTANCE, built.system.detector_label)
    eng.run()
    snapshot = collect_metrics(eng).snapshot
    return built, snapshot


def verdicts(exclusion, wait_freedom, fairness, detector, justified):
    return (exclusion.violations, wait_freedom, fairness.samples, detector,
            justified)


def judge_offline(built):
    eng = built.engine
    trace, now, graph = eng.trace, eng.now, built.graph
    schedule = built.system.schedule
    exclusion = builder.check_exclusion(trace, graph, INSTANCE, schedule, now)
    return verdicts(
        exclusion,
        builder.check_wait_freedom(trace, graph, INSTANCE, schedule, now,
                                   grace=built.spec.grace),
        builder.measure_fairness(trace, graph, INSTANCE, now, schedule),
        builder.check_detector_properties(trace, built.system.pids, schedule,
                                          built.system.assumptions,
                                          pairs=built.monitors),
        builder.justify_violations(trace, exclusion.violations,
                                   detector=built.system.detector_label),
    )


class RowsView:
    """The reference's ``records`` reads ``trace._sink.retained()``, from
    when a trace kept its rows in a sink object; this descriptor serves
    that read from the rows ``Trace`` holds today."""

    def __get__(self, trace, owner=None):
        return SimpleNamespace(retained=lambda: list(trace))


def judge_by_reference(built):
    """The parent's verdicts, probe snapshot and span rows of the run."""
    eng = built.engine
    trace, now, graph = eng.trace, eng.now, built.graph
    schedule = built.system.schedule
    with mock.patch.object(Trace, "records", ref.records), \
            mock.patch.object(Trace, "_sink", RowsView(), create=True):
        exclusion = ref.check_exclusion(trace, graph, INSTANCE, schedule, now)
        judged = verdicts(
            exclusion,
            ref.check_wait_freedom(trace, graph, INSTANCE, schedule, now,
                                   grace=built.spec.grace),
            ref.measure_fairness(trace, graph, INSTANCE, now, schedule),
            ref.check_detector_properties(trace, built.system.pids,
                                          schedule, built.system.assumptions,
                                          pairs=built.monitors),
            ref.justify_violations(trace, exclusion.violations,
                                   detector=built.system.detector_label),
        )
    probes, spans = ref.RunProbes(MetricsRegistry()), ref.SpanProbe()
    for rec in trace:
        probes.on_record(rec)
        spans.on_record(rec)
    probes.finalize(now)
    return judged, probes.registry.snapshot(), spans.finalize(now)


def diner_intervals(built, eating, hungry):
    """Each diner's (eating, hungry) intervals by the given extractors."""
    eng, schedule = built.engine, built.system.schedule
    return {pid: (eating(eng.trace, INSTANCE, pid, eng.now, schedule),
                  hungry(eng.trace, INSTANCE, pid, eng.now))
            for pid in built.graph}


def reference_hungry(trace, instance, pid, end_time):
    series = dining_spec.state_series(trace, instance, pid)
    return state_intervals(series, ref.HUNGRY, end_time)


def probe_view(snapshot):
    return {family: {k: v for k, v in getattr(snapshot, family).items()
                     if k.startswith(PROBE_PREFIXES)}
            for family in ("counters", "gauges", "histograms")}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs())
def test_indexed_judge_matches_the_scanning_reference(spec):
    built, snapshot = run_online(spec)
    online = verdicts(*builder.judge(built))
    judged, probes, spans = judge_by_reference(built)
    assert online == judged
    assert probe_view(snapshot) == probe_view(probes)
    assert built.engine.intervals.spans == spans
    assert judge_offline(built) == online
    assert diner_intervals(built, dining_spec.eating_intervals,
                           dining_spec.hungry_intervals) == \
        diner_intervals(built, ref.eating_intervals, reference_hungry)


def test_reference_patch_reaches_every_swapped_function():
    built, _ = run_online(RunSpec(graph="ring:4", seed=3, max_time=300.0,
                                  crashes={"p1": 120.0}))
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    names = ("records", "check_exclusion", "eating_intervals",
             "overtake_samples",
             "check_wait_freedom", "check_detector_properties",
             "justify_violations", "suspicion_series")
    with mock.patch.multiple(ref, **{n: spy(n, getattr(ref, n))
                                     for n in names}):
        judge_by_reference(built)
    assert set(names) <= set(calls)


def _row_reads(spec: RunSpec) -> int:
    """How many times executing ``spec`` reads the trace's rows, through
    any of the readers ``Trace`` has."""
    reads = 0

    def counting(read):
        def wrapped(*args, **kwargs):
            nonlocal reads
            reads += 1
            return read(*args, **kwargs)
        return wrapped

    readers = ("records", "__iter__", "__len__")
    with mock.patch.multiple(Trace, **{name: counting(getattr(Trace, name))
                                       for name in readers}):
        result = execute(spec)
    assert result.checked
    return reads


def test_checked_run_reads_the_rows_a_bounded_number_of_times():
    # Judged online: the verdicts never read the trace's rows back.
    small = _row_reads(RunSpec(graph="ring:4", seed=7, max_time=400.0,
                                    pairs="neighbors"))
    large = _row_reads(RunSpec(graph="rgg:30:0.4:7", seed=7,
                                    max_time=400.0, pairs="neighbors",
                                    crashes={"p3": 150.0}))
    assert small == large == 0
