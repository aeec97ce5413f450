"""The one-call public API: ``repro.run``, ``repro.sweep``, ``repro.compare``.

Everything the library can express — algorithm choice, failure detector,
topology, crash schedule, link faults, adversary, trace retention — is
declared on a :class:`~repro.runtime.spec.RunSpec`; these functions are
the single front door for executing one:

.. code-block:: python

    import repro

    result = repro.run(repro.RunSpec(graph="ring:5", seed=7,
                                     crashes={"p1": 400.0}))
    assert result.wait_freedom.ok

    results = repro.sweep(repro.RunSpec(graph="ring:4"), runs=16, workers=4)

    # detector selection, by registry name (docs/detectors.md):
    result = repro.run(repro.RunSpec(graph="ring:5", detector="trusting"))

    # the cross-detector comparison lattice (CLI: repro lattice):
    matrix = repro.compare(graphs=("ring:6",), seeds=4)
    print(matrix.render())

``run`` executes one spec through the canonical runtime pipeline
(build → simulate → judge) and returns the :class:`RunResult` envelope.
``sweep`` fans one spec out across independent seeds — derived
deterministically from the spec's own seed via
:func:`~repro.runtime.seeds.fanout_seeds` — optionally across worker
processes, and returns the per-seed results in seed order (parallel
execution is bit-identical to serial, per seed).

The CLI subcommands (``repro scenario``, ``repro sweep``, ``repro
chaos``) are thin wrappers over the same two calls.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.oracles.registry import DetectorSpec
from repro.runtime.builder import execute
from repro.runtime.executor import (
    RetryPolicy,
    SupervisedExecutor,
    _execute_detached,
)
from repro.runtime.result import RunResult
from repro.runtime.seeds import fanout_seeds
from repro.runtime.spec import RunSpec

__all__ = ["DetectorSpec", "compare", "run", "sweep"]


def _coerce_spec(spec: Union[RunSpec, Mapping]) -> RunSpec:
    if isinstance(spec, RunSpec):
        return spec
    if isinstance(spec, Mapping):
        return RunSpec.from_dict(dict(spec))
    raise ConfigurationError(
        f"expected a RunSpec or a mapping, got {type(spec).__name__}")


def run(spec: Union[RunSpec, Mapping],
        check: Optional[bool] = None) -> RunResult:
    """Execute one :class:`RunSpec` (or spec dict) and judge the run.

    The verdicts are judged online, so they are the same whether or not
    the trace keeps its rows.  ``check=None`` (default) judges exactly
    when it does; ``counters`` runs come back metrics-only with
    ``result.checked`` False unless ``check=True``.
    """
    return execute(_coerce_spec(spec), check=check)


def sweep(spec: Union[RunSpec, Mapping],
          runs: int = 8,
          workers: int = 1,
          seeds: Optional[Sequence[int]] = None,
          check: Optional[bool] = None,
          timeout: Optional[float] = None,
          retry: Optional[RetryPolicy] = None) -> list[RunResult]:
    """Execute ``spec`` across independent seeds; results in seed order.

    ``seeds`` defaults to ``fanout_seeds(spec.seed, runs)`` so a sweep is
    reproducible from the one base seed on the spec; pass an explicit
    sequence to pin the shards yourself (``runs`` is then ignored).
    ``workers > 1`` fans shards over a supervised process pool — per-seed
    results are bit-identical to the serial path, but come back
    trace-detached.  ``timeout`` bounds each run's wall clock (a hung
    worker is killed and the run retried under ``retry``, default
    :class:`~repro.runtime.executor.RetryPolicy`); see
    docs/reliability.md for the supervision model.
    """
    base = _coerce_spec(spec)
    if seeds is None:
        if runs < 1:
            raise ConfigurationError(f"runs must be >= 1, got {runs}")
        seeds = fanout_seeds(base.seed, runs)
    shards = [replace(base, seed=int(s)) for s in seeds]
    executor = SupervisedExecutor(workers=workers, timeout=timeout,
                                  retry=retry)
    # In-process results keep their traces, as a lone ``run`` returns
    # them; only results that cross a process boundary are detached.
    fn = execute if workers <= 1 or len(shards) <= 1 else _execute_detached
    return executor.map(partial(fn, check=check), shards)


def compare(*args, **kwargs):
    """Cross-detector comparison lattice — see
    :func:`repro.lattice.compare.compare` for the full signature.

    Re-exported here (and as ``repro.compare``) so the comparison
    campaign is one import away from the public front door; imported
    lazily to keep ``import repro`` light.
    """
    from repro.lattice import compare as _compare

    return _compare(*args, **kwargs)
