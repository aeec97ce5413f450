"""Convergence-probe semantics: an interval machine driven with synthetic
trace records, then cross-checked against the trace-replay property
checkers on a real run."""

import pytest

from repro.obs.intervals import IntervalMachine
from repro.obs.registry import MetricsRegistry
from repro.oracles.properties import false_positive_count
from repro.runtime.builder import execute
from repro.runtime.spec import RunSpec
from repro.sim.trace import TraceRecord


def rec(t, kind, pid, **data):
    return TraceRecord(time=t, kind=kind, pid=pid, data=data)


def suspect(t, owner, target, suspected, initial=False):
    return rec(t, "suspect", owner, target=target, suspected=suspected,
               detector="boxfd", initial=initial)


@pytest.fixture
def probes():
    return IntervalMachine(registry=MetricsRegistry())


class TestOracleProbes:
    def test_wrongful_onset_and_convergence(self, probes):
        probes.on_record(suspect(10.0, "p0", "p1", True))
        assert not probes.converged
        probes.on_record(suspect(40.0, "p0", "p1", False))
        assert probes.converged
        assert probes.convergence_time() == 40.0
        probes.finish(100.0)
        snap = probes.registry.snapshot()
        assert snap.counter_value("oracle.wrongful_suspicions") == 1
        assert snap.gauge_value("oracle.converged_at") == 40.0
        assert snap.gauge_value("oracle.last_wrongful_onset") == 10.0
        assert snap.gauge_value('oracle.stabilized_at{process="p0"}') == 40.0

    def test_initial_suspicion_counts_as_wrongful_but_not_churn(self, probes):
        probes.on_record(suspect(0.0, "p0", "p1", True, initial=True))
        probes.finish(50.0)
        snap = probes.registry.snapshot()
        assert snap.counter_value("oracle.wrongful_suspicions") == 1
        assert snap.counter_value("oracle.suspicion_churn") == 0

    def test_suspecting_a_crashed_target_is_rightful(self, probes):
        probes.on_record(rec(5.0, "crash", "p1"))
        probes.on_record(suspect(10.0, "p0", "p1", True))
        probes.finish(50.0)
        snap = probes.registry.snapshot()
        assert snap.counter_value("oracle.wrongful_suspicions") == 0
        # Never wrong => converged at 0.
        assert probes.convergence_time() == 0.0
        assert snap.gauge_value("oracle.converged_at") == 0.0

    def test_target_crash_closes_open_wrongful_interval(self, probes):
        probes.on_record(suspect(10.0, "p0", "p1", True))
        probes.on_record(rec(30.0, "crash", "p1"))
        assert probes.converged
        assert probes.convergence_time() == 30.0

    def test_owner_crash_closes_its_wrongful_intervals(self, probes):
        probes.on_record(suspect(10.0, "p0", "p1", True))
        probes.on_record(rec(25.0, "crash", "p0"))
        assert probes.converged

    def test_unconverged_run_reports_open_gauge_and_no_converged_at(
            self, probes):
        probes.on_record(suspect(10.0, "p0", "p1", True))
        probes.finish(100.0)
        snap = probes.registry.snapshot()
        assert probes.convergence_time() is None
        assert snap.gauge_value("oracle.wrongful_open") == 1
        assert snap.gauge_value("oracle.converged_at") is None

    def test_convergence_is_last_interval_end_across_owners(self, probes):
        probes.on_record(suspect(10.0, "p0", "p1", True))
        probes.on_record(suspect(20.0, "p0", "p1", False))
        probes.on_record(suspect(30.0, "p1", "p0", True))
        probes.on_record(suspect(75.0, "p1", "p0", False))
        probes.finish(100.0)
        snap = probes.registry.snapshot()
        assert snap.gauge_value("oracle.converged_at") == 75.0
        assert snap.gauge_value('oracle.stabilized_at{process="p0"}') == 20.0
        assert snap.gauge_value('oracle.stabilized_at{process="p1"}') == 75.0

    def test_churn_counts_every_noninitial_transition(self, probes):
        probes.on_record(suspect(0.0, "p0", "p1", True, initial=True))
        probes.on_record(suspect(10.0, "p0", "p1", False))
        probes.on_record(suspect(20.0, "p0", "p1", True))
        probes.on_record(suspect(30.0, "p0", "p1", False))
        snap = probes.registry.snapshot()
        assert snap.counter_value("oracle.suspicion_churn") == 3


class TestDiningProbes:
    def test_hungry_to_eating_latency(self, probes):
        probes.on_record(rec(10.0, "state", "p0", instance="I",
                             state="hungry"))
        probes.on_record(rec(14.0, "state", "p0", instance="I",
                             state="eating"))
        snap = probes.registry.snapshot()
        h = snap.histogram("dining.hungry_to_eating")
        assert h.count == 1
        assert h.sum == pytest.approx(4.0)
        assert snap.counter_value("dining.sessions") == 1
        assert snap.counter_value("dining.hungry_onsets") == 1

    def test_pending_hunger_reported_on_finalize(self, probes):
        probes.on_record(rec(10.0, "state", "p0", instance="I",
                             state="hungry"))
        probes.finish(99.0)
        snap = probes.registry.snapshot()
        assert snap.gauge_value("dining.hungry_pending") == 1
        assert snap.histogram("dining.hungry_to_eating").count == 0
        assert snap.gauge_value("run.end_time") == 99.0


class TestCoreProbes:
    def test_ping_ack_round_trip(self, probes):
        probes.on_record(rec(10.0, "ping", "p0", component="s0"))
        probes.on_record(rec(13.5, "ack", "p0", component="s0"))
        snap = probes.registry.snapshot()
        h = snap.histogram("core.ping_rtt")
        assert h.count == 1
        assert h.sum == pytest.approx(3.5)
        assert snap.counter_value("core.pings") == 1
        assert snap.counter_value("core.acks") == 1

    def test_unmatched_ping_left_outstanding(self, probes):
        probes.on_record(rec(10.0, "ping", "p0", component="s0"))
        probes.finish(50.0)
        snap = probes.registry.snapshot()
        assert snap.histogram("core.ping_rtt").count == 0
        assert snap.gauge_value("core.pings_outstanding") == 1


class TestFinalize:
    def test_idempotent(self, probes):
        probes.on_record(suspect(10.0, "p0", "p1", True))
        probes.on_record(suspect(20.0, "p0", "p1", False))
        probes.finish(50.0)
        probes.finish(60.0)
        assert probes.registry.snapshot().gauge_value("run.end_time") == 50.0


class TestAgainstTraceCheckers:
    """The streaming probes must agree with the trace-replay checkers."""

    def test_wrongful_count_matches_false_positive_count(self):
        spec = RunSpec(name="xcheck", graph="ring:3", seed=11,
                       max_time=700.0, crashes={"p2": 250.0})
        result = execute(spec)
        trace = result.trace
        from repro.sim.faults import CrashSchedule

        schedule = CrashSchedule(dict(spec.crashes))
        pids = ["p0", "p1", "p2"]
        expected = sum(
            false_positive_count(trace, owner, target, schedule,
                                 detector="boxfd")
            for owner in pids for target in pids if owner != target
        )
        assert result.wrongful_suspicions == expected
        # Convergence time must not precede the last wrongful onset.
        if result.convergence_time is not None:
            last_onset = result.obs.gauge_value("oracle.last_wrongful_onset")
            assert result.convergence_time >= last_onset

    def test_obs_off_yields_no_snapshot(self):
        result = execute(RunSpec(name="noobs", graph="ring:3", seed=3,
                                 max_time=300.0, obs=False))
        assert result.obs is None
        assert result.convergence_time is None
        assert result.wrongful_suspicions is None
        assert result.summary()["convergence_time"] is None


class TestLabeledOracleProbes:
    """Per-detector-label copies of the oracle-quality series — what the
    lattice reads to attribute mistakes to the layer that made them."""

    def lab_suspect(self, t, owner, target, suspected, label,
                    initial=False):
        return rec(t, "suspect", owner, target=target, suspected=suspected,
                   detector=label, initial=initial)

    def test_labels_split_the_series(self, probes):
        probes.on_record(self.lab_suspect(10.0, "p0", "p1", True, "omega"))
        probes.on_record(self.lab_suspect(12.0, "p0", "p1", True,
                                          "omega.sub"))
        probes.on_record(self.lab_suspect(30.0, "p0", "p1", False,
                                          "omega.sub"))
        probes.finish(100.0)
        snap = probes.registry.snapshot()
        # Unlabeled aggregates see both streams...
        assert snap.counter_value("oracle.wrongful_suspicions") == 2
        # ...while the labeled copies keep them apart.
        assert snap.counter_value(
            'oracle.wrongful_suspicions{detector="omega"}') == 1
        assert snap.counter_value(
            'oracle.wrongful_suspicions{detector="omega.sub"}') == 1

    def test_per_label_convergence(self, probes):
        # omega.sub converges at 30; omega never does: only the former
        # gets a labeled converged_at gauge, and omega's open count is
        # visible per label.
        probes.on_record(self.lab_suspect(10.0, "p0", "p1", True, "omega"))
        probes.on_record(self.lab_suspect(12.0, "p0", "p1", True,
                                          "omega.sub"))
        probes.on_record(self.lab_suspect(30.0, "p0", "p1", False,
                                          "omega.sub"))
        probes.finish(100.0)
        snap = probes.registry.snapshot()
        assert snap.gauge_value(
            'oracle.converged_at{detector="omega.sub"}') == 30.0
        assert snap.gauge_value(
            'oracle.wrongful_open{detector="omega.sub"}') == 0
        assert snap.gauge_value(
            'oracle.wrongful_open{detector="omega"}') == 1
        assert snap.gauge_value(
            'oracle.converged_at{detector="omega"}') is None

    def test_detector_stats_on_a_real_omega_run(self):
        result = execute(RunSpec(graph="ring:3", seed=5, max_time=400.0,
                                 detector="omega"))
        stats = result.detector_stats("omega.sub")
        assert stats["detector"] == "omega.sub"
        assert stats["wrongful_open"] == 0
        assert stats["converged_at"] is not None
