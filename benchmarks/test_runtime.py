"""Benchmarks of the runtime layer itself: the canonical builder, trace
retention, and parallel campaign execution.

These replace the ad-hoc engine-wiring fixtures campaign benchmarks used
to carry: everything here goes through ``RunSpec → execute``, the same
path scenarios, sweeps, and chaos campaigns use.
"""

from repro.runtime import RunSpec, SupervisedExecutor, execute, instantiate
from repro.runtime.executor import _execute_detached

SPEC = RunSpec(graph="ring:4", seed=3, max_time=400.0)


def test_instantiate_cost(benchmark):
    """Pure wiring cost: engine + oracle substrate + dining + clients."""
    built = benchmark(lambda: instantiate(SPEC))
    assert sorted(built.diners) == ["p0", "p1", "p2", "p3"]


def test_execute_full_trace(benchmark):
    result = benchmark.pedantic(lambda: execute(SPEC), rounds=3, iterations=1)
    assert result.ok


def test_execute_counters_sink(benchmark):
    """Metrics-only run: no trace rows retained, no verdict battery."""
    spec = RunSpec(graph="ring:4", seed=3, max_time=400.0, trace="counters")
    result = benchmark.pedantic(lambda: execute(spec), rounds=3, iterations=1)
    assert not result.checked and result.metrics.messages_sent > 0


def test_campaign_serial(benchmark):
    specs = [RunSpec(graph="ring:3", seed=s, max_time=300.0)
             for s in range(4)]
    results = benchmark.pedantic(
        lambda: SupervisedExecutor(workers=1).map(execute, specs),
        rounds=1, iterations=1)
    assert all(r.ok for r in results)


def test_campaign_parallel_4_workers(benchmark):
    specs = [RunSpec(graph="ring:3", seed=s, max_time=300.0)
             for s in range(4)]
    results = benchmark.pedantic(
        lambda: SupervisedExecutor(workers=4).map(_execute_detached, specs),
        rounds=1, iterations=1)
    assert all(r.ok for r in results)
