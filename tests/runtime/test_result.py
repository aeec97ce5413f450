"""RunResult envelope: summary robustness and the obs snapshot field."""

import json
import pickle

from repro.obs.registry import MetricsRegistry
from repro.runtime.result import RunResult
from repro.sim.metrics import RunMetrics


def make_metrics(**over):
    base = dict(virtual_time=100.0, events_processed=10, messages_sent=5,
                messages_delivered=5, messages_by_kind={}, steps_by_process={},
                messages_dropped=1, messages_duplicated=2, retransmissions=3)
    base.update(over)
    return RunMetrics.from_values(**base)


class TestSummaryWithoutMetrics:
    """Regression: summary() used to dereference self.metrics
    unconditionally and crash on a metrics-less result."""

    def test_no_crash_and_nulls(self):
        summary = RunResult(name="bare", seed=7).summary()
        assert summary["messages_sent"] is None
        assert summary["messages_dropped"] is None
        assert summary["messages_duplicated"] is None
        assert summary["retransmissions"] is None
        assert summary["events_processed"] is None
        assert summary["ok"] is None

    def test_json_serializable(self):
        json.dumps(RunResult().summary())


class TestSummaryContent:
    def test_includes_duplicated_alongside_dropped(self):
        summary = RunResult(metrics=make_metrics()).summary()
        assert summary["messages_dropped"] == 1
        assert summary["messages_duplicated"] == 2
        assert summary["retransmissions"] == 3

    def test_convergence_fields_from_obs(self):
        reg = MetricsRegistry()
        reg.counter("oracle.wrongful_suspicions").inc(4)
        reg.counter("oracle.suspicion_churn").inc(9)
        reg.gauge("oracle.converged_at").set(123.5)
        result = RunResult(obs=reg.snapshot())
        assert result.convergence_time == 123.5
        assert result.wrongful_suspicions == 4
        assert result.suspicion_churn == 9
        summary = result.summary()
        assert summary["convergence_time"] == 123.5
        assert summary["wrongful_suspicions"] == 4
        assert summary["suspicion_churn"] == 9

    def test_convergence_fields_none_without_obs(self):
        summary = RunResult().summary()
        assert summary["convergence_time"] is None
        assert summary["wrongful_suspicions"] is None
        assert summary["suspicion_churn"] is None


class TestEnvelope:
    def test_pickles_with_obs(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(1.0)
        result = RunResult(obs=reg.snapshot(), metrics=make_metrics())
        clone = pickle.loads(pickle.dumps(result))
        assert clone.obs == result.obs
        assert clone.summary() == result.summary()
