"""Probes must not depend on kept trace rows: the metric snapshot of a
run is identical under ``full`` and ``counters`` traces.

The probes subscribe to the record *stream* (``Trace.subscribe``), seeing
every record whether or not the trace keeps it.
"""

import dataclasses

import pytest

from repro.runtime.builder import execute
from repro.runtime.spec import RunSpec

#: A run hostile enough to churn the oracle (crash + late GST).
BASE = RunSpec(name="sinks", graph="ring:3", seed=23, max_time=500.0,
               crashes={"p1": 180.0})


@pytest.fixture(scope="module")
def snapshots():
    out = {}
    for sink in ("full", "counters"):
        spec = dataclasses.replace(BASE, trace=sink)
        # check=False: the metrics are exact without the verdicts.
        out[sink] = execute(spec, check=False)
    return out


@pytest.mark.parametrize("sink", ["counters"])
def test_snapshot_identical_to_full_retention(snapshots, sink):
    assert snapshots[sink].obs == snapshots["full"].obs


@pytest.mark.parametrize("sink", ["counters"])
def test_convergence_fields_identical(snapshots, sink):
    full = snapshots["full"]
    other = snapshots[sink]
    assert other.convergence_time == full.convergence_time
    assert other.wrongful_suspicions == full.wrongful_suspicions
    assert other.suspicion_churn == full.suspicion_churn


def test_probe_data_nonempty(snapshots):
    """Guard against the test passing vacuously on an empty registry."""
    obs = snapshots["full"].obs
    assert obs.counter_value("oracle.wrongful_suspicions") > 0
    assert obs.histogram("dining.hungry_to_eating").count > 0
