"""The indexed judge gives the scanning judge's verdicts, and reads once.

``Trace.records`` serves kind/pid queries from an index, ``check_exclusion``
sweeps each edge with two pointers and ``overtake_samples`` bisects.  The
property test judges one simulated trace twice — as ``execute`` does, then
with the scanning versions kept in ``reference_judge`` patched in — over
small random specs, and requires identical exclusion, wait-freedom,
fairness, detector-property and justification verdicts.  The tripwire pins
what the index buys: a checked run reads the sink's rows a bounded number
of times, whatever the number of monitored pairs.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dining import fairness
from repro.oracles.registry import REGISTRY
from repro.runtime import builder
from repro.runtime.builder import INSTANCE, execute, instantiate
from repro.runtime.spec import RunSpec, parse_graph
from repro.sim.sinks import FullTraceSink
from repro.sim.trace import Trace
from tests.runtime import reference_judge

GRAPHS = st.one_of(
    st.integers(3, 10).map(lambda n: f"ring:{n}"),
    st.integers(2, 10).map(lambda n: f"clique:{n}"),
    st.integers(2, 10).map(lambda n: f"path:{n}"),
    st.builds(lambda n, r, s: f"rgg:{n}:{r}:{s}", st.integers(3, 10),
              st.sampled_from([0.3, 0.5, 0.8]), st.integers(0, 99)),
)


@st.composite
def specs(draw):
    graph = draw(GRAPHS)
    max_time = draw(st.sampled_from([300.0, 600.0]))
    pids = sorted(parse_graph(graph).nodes)
    # S and ◇S need one correct anchor, so at most n - 1 crashes.
    crashed = draw(st.lists(st.sampled_from(pids), unique=True,
                            max_size=min(2, len(pids) - 1)))
    crashes = {p: draw(st.floats(1.0, max_time - 1.0)) for p in crashed}
    return RunSpec(
        graph=graph, allow_disconnected=True,
        algorithm=draw(st.sampled_from(["wf-ewx", "deferred:60"])),
        detector=draw(st.sampled_from(sorted(REGISTRY))),
        pairs=draw(st.sampled_from(["all", "neighbors"])),
        crashes=crashes, seed=draw(st.integers(0, 2**16)),
        max_time=max_time, gst=draw(st.sampled_from([60.0, 120.0])),
        drop=draw(st.sampled_from([0.0, 0.1, 0.3])),
        duplicate=draw(st.sampled_from([0.0, 0.2])),
        trace=draw(st.sampled_from(["full", "ring:1000000"])))


def judge(built):
    """``execute``'s judging half, over the run's own trace."""
    eng = built.engine
    trace, now, graph = eng.trace, eng.now, built.graph
    schedule = built.system.schedule
    exclusion = builder.check_exclusion(trace, graph, INSTANCE, schedule, now)
    return (
        exclusion.violations,
        builder.check_wait_freedom(trace, graph, INSTANCE, schedule, now,
                                   grace=built.spec.grace),
        builder.measure_fairness(trace, graph, INSTANCE, now,
                                 schedule).samples,
        builder.check_detector_properties(trace, built.system.pids, schedule,
                                          built.system.assumptions,
                                          pairs=built.monitors),
        builder.justify_violations(trace, exclusion.violations,
                                   detector=built.system.detector_label),
    )


def judge_by_reference(built):
    with mock.patch.object(Trace, "records", reference_judge.records), \
            mock.patch.object(builder, "check_exclusion",
                              reference_judge.check_exclusion), \
            mock.patch.object(fairness, "overtake_samples",
                              reference_judge.overtake_samples):
        return judge(built)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs())
def test_indexed_judge_matches_the_scanning_reference(spec):
    built = instantiate(spec)
    built.engine.run()
    assert judge(built) == judge_by_reference(built)


def test_reference_patch_reaches_every_swapped_function():
    built = instantiate(RunSpec(graph="ring:4", seed=3, max_time=300.0))
    built.engine.run()
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    with mock.patch.object(reference_judge, "records",
                           spy("records", reference_judge.records)), \
            mock.patch.object(reference_judge, "check_exclusion",
                              spy("exclusion",
                                  reference_judge.check_exclusion)), \
            mock.patch.object(reference_judge, "overtake_samples",
                              spy("overtake",
                                  reference_judge.overtake_samples)):
        judge_by_reference(built)
    assert {"records", "exclusion", "overtake"} <= set(calls)


def _retained_reads(spec: RunSpec) -> int:
    reads = 0
    retained = FullTraceSink.retained

    def counting(self):
        nonlocal reads
        reads += 1
        return retained(self)

    with mock.patch.object(FullTraceSink, "retained", counting):
        result = execute(spec)
    assert result.checked
    return reads


def test_checked_run_reads_the_rows_a_bounded_number_of_times():
    # One pass per record kind the judge asks about ("state", "suspect"),
    # however many diners and monitored pairs there are.
    small = _retained_reads(RunSpec(graph="ring:4", seed=7, max_time=400.0,
                                    pairs="neighbors"))
    large = _retained_reads(RunSpec(graph="rgg:30:0.4:7", seed=7,
                                    max_time=400.0, pairs="neighbors",
                                    crashes={"p3": 150.0}))
    assert small == large <= 2
