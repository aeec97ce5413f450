"""repro — reproduction of *"The Weakest Failure Detector for Wait-Free
Dining under Eventual Weak Exclusion"* (Sastry, Pike & Welch, SPAA 2009;
corrigendum SPAA 2010).

The package implements, from scratch, everything the paper describes or
depends on:

* a deterministic discrete-event simulator for asynchronous message-passing
  systems with crash faults (:mod:`repro.sim`);
* the Chandra–Toueg failure-detector hierarchy: ◇P implemented honestly
  from partial synchrony, plus P / T / S substrates and Ω
  (:mod:`repro.oracles`);
* dining-philosophers algorithms: the ◇P-based wait-free ◇WX solution, the
  fault-intolerant hygienic baseline, an adversarial-but-legal box, and a
  perpetual-WX box (:mod:`repro.dining`);
* **the paper's reduction** — witness/subject threads over two dining
  instances per monitored pair, extracting ◇P from any black-box WF-◇WX
  solution (:mod:`repro.core`) — plus the flawed construction of [8] it
  corrects;
* downstream consumers: Chandra–Toueg consensus and leader election driven
  by the extracted oracle (:mod:`repro.consensus`);
* the motivating applications: WSN duty-cycle scheduling and an STM
  contention manager (:mod:`repro.apps`);
* experiment harnesses reproducing every theorem, lemma, and figure
  (:mod:`repro.experiments`; run them with ``python -m repro``).

Quickstart — the one-call front door (:func:`repro.run` /
:func:`repro.sweep`, see :mod:`repro.api`)::

    import repro

    spec = repro.RunSpec(name="demo", graph="ring:5", seed=7,
                         crashes={"p1": 400.0}, max_time=1200.0)
    result = repro.run(spec)            # build -> simulate -> judge
    assert result.ok                    # wait-free despite the crash
    print(result.summary())             # flat JSON-able digest

    results = repro.sweep(spec, runs=8, workers=2)   # seed fan-out
    print(sum(r.ok for r in results), "of", len(results), "runs ok")

    # any registered failure detector, by name (docs/detectors.md):
    repro.run(repro.RunSpec(graph="ring:5", detector="trusting"))
    matrix = repro.compare(graphs=("ring:6",), seeds=4)  # the lattice
    print(matrix.render())

Going deeper — the paper's reduction is a detector like any other:
Algs. 1/2 extract ◇P from a WF-◇WX box (``box``, in the algorithm
grammar), and the spec's own dining instance runs on what they extract::

    result = repro.run(repro.RunSpec(
        graph="ring:4", seed=7, crashes={"p1": 400.0},
        detector="extracted", detector_params={"box": "manager"}))
    assert result.oracle_accuracy_ok and result.oracle_completeness_ok
    print(result.detector_stats("extracted"))  # ◇P quality of the reduction
"""

from repro.api import DetectorSpec, compare, run, sweep
from repro.core import ExtractedDetector, ReductionPair, build_full_extraction
from repro.dining import (
    DeferredExclusionDining,
    HygienicDining,
    PerpetualDining,
    WaitFreeEWXDining,
)
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    ReproError,
    SimulationError,
    SpecificationViolation,
)
from repro.oracles import (
    EventuallyPerfectDetector,
    PerfectDetector,
    StrongDetector,
    TrustingDetector,
)
from repro.runtime import RunResult, RunSpec, fanout_seeds
from repro.sim import Engine, SimConfig
from repro.sim.faults import CrashSchedule
from repro.types import DinerState, Message, ProcessId, Time

__version__ = "1.0.0"

__all__ = [
    "ConfigurationError",
    "CrashSchedule",
    "DeferredExclusionDining",
    "DetectorSpec",
    "DinerState",
    "Engine",
    "EventuallyPerfectDetector",
    "ExtractedDetector",
    "HygienicDining",
    "InvariantViolation",
    "Message",
    "PerfectDetector",
    "PerpetualDining",
    "ProcessId",
    "ReductionPair",
    "ReproError",
    "RunResult",
    "RunSpec",
    "SimConfig",
    "SimulationError",
    "SpecificationViolation",
    "StrongDetector",
    "Time",
    "TrustingDetector",
    "WaitFreeEWXDining",
    "build_full_extraction",
    "compare",
    "fanout_seeds",
    "run",
    "sweep",
    "__version__",
]
