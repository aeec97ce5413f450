"""The comparison campaign runner: every detector, identical scenarios.

:func:`compare` is the programmatic face of ``repro lattice``.  For each
detector of :data:`DEFAULT_DETECTORS` (or an explicit list) it runs one
seeded chaos campaign — *the same* campaign: the detector knob consumes
no randomness in :func:`repro.chaos.build_run`, so every detector faces
bit-identical topologies, crash schedules, link-fault draws, and
workloads, seed for seed.  What differs between rows is exactly the oracle, which is what
makes the per-seed ◇WX pass sets comparable as a partial order.

Determinism: each run is a pure function of its spec, campaigns fan out
over workers with per-seed bit-identical results, and the matrix is
assembled in fixed (detector, seed) order — so ``workers=4`` output is
byte-identical to serial, and a ``store``/``resume`` pair checkpoints
every (detector, seed) cell under its content address
(:func:`repro.runtime.store.spec_hash` covers the detector fields).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Sequence

from repro.chaos import ChaosConfig, run_campaign
from repro.errors import ConfigurationError
from repro.lattice.matrix import (
    QUIET_FRACTION,
    DetectorRow,
    LatticeResult,
    cell_from_record,
)
from repro.oracles.registry import resolve_detector

if False:  # pragma: no cover - typing only
    from repro.runtime.store import ResultStore

#: What :func:`compare` runs when no detector is named: every registered
#: detector but ``extracted``, in registry order.  The reduction runs two
#: dining instances per monitored pair on top of its own heartbeat ◇P, so
#: adding it would change what the default lattice prints and costs; name
#: it explicitly to rank it.
DEFAULT_DETECTORS = ("eventually_perfect", "perfect", "trusting", "strong",
                     "eventually_strong", "omega", "flawed_cm")


def lattice_config(detector: str, *, graphs: Sequence[str], seeds: int,
                   seed: int, max_time: float, client: str,
                   drop_max: float, pairs: str,
                   detector_params: Optional[Mapping[str, Any]] = None,
                   max_faulty: int = 1) -> ChaosConfig:
    """The chaos config one lattice row runs under.

    Deliberately tamer than default chaos (no partitions, no adversary,
    mild loss): the lattice isolates *detector* differences, so the
    environment stays identical and benign enough that ◇P demonstrably
    converges — any remaining ◇WX failure is then the detector's own
    doing.
    """
    return ChaosConfig(
        campaigns=int(seeds),
        seed=int(seed),
        graphs=tuple(graphs),
        clients=(client,),
        drop_max=float(drop_max),
        duplicate_max=0.0,
        partition_prob=0.0,
        slow_prob=0.0,
        max_faulty=int(max_faulty),
        max_time=float(max_time),
        pairs=pairs,
        detector=detector,
        detector_params=dict(detector_params or {}),
    )


def compare(
    graphs: Sequence[str] = ("ring:6",),
    seeds: int = 4,
    *,
    seed: int = 0,
    detectors: Optional[Sequence[str]] = None,
    detector_params: Optional[Mapping[str, Mapping[str, Any]]] = None,
    workers: int = 1,
    store: "ResultStore | None" = None,
    resume: bool = False,
    max_time: float = 600.0,
    client: str = "periodic",
    drop_max: float = 0.1,
    pairs: str = "all",
    max_faulty: int = 1,
    quiet_fraction: float = QUIET_FRACTION,
    on_result: Optional[Callable[[str, int, Any, bool], None]] = None,
) -> LatticeResult:
    """Run every detector through identical seeded chaos campaigns and
    assemble the cross-detector telemetry matrix.

    Parameters mirror ``repro lattice``; ``detectors`` defaults to
    :data:`DEFAULT_DETECTORS`, ``detector_params`` optionally
    maps a detector name to its parameter overrides, and
    ``on_result(detector, index, verdict, cached)`` streams per-run
    completions (for live progress).

    Returns a :class:`~repro.lattice.matrix.LatticeResult`; see its
    module docstring for the per-cell ◇WX verdict.
    """
    names = list(DEFAULT_DETECTORS if detectors is None else detectors)
    if not names:
        raise ConfigurationError("no detectors selected")
    entries = {name: resolve_detector(name) for name in names}
    params = dict(detector_params or {})
    unknown = set(params) - set(names)
    if unknown:
        raise ConfigurationError(
            f"detector_params for unselected detector(s): {sorted(unknown)}")
    if seeds <= 0:
        raise ConfigurationError(f"seeds must be positive, got {seeds}")

    rows: list[DetectorRow] = []
    for name in names:
        entry = entries[name]
        cfg = lattice_config(
            name, graphs=graphs, seeds=seeds, seed=seed, max_time=max_time,
            client=client, drop_max=drop_max, pairs=pairs,
            detector_params=params.get(name), max_faulty=max_faulty)
        hook = (None if on_result is None
                else lambda i, v, cached, _n=name: on_result(_n, i, v, cached))
        campaign = run_campaign(cfg, workers=workers, store=store,
                                resume=resume, on_result=hook)
        row = DetectorRow(name=name, label=entry.label,
                          summary=entry.summary)
        for verdict in campaign.verdicts:
            row.cells.append(cell_from_record(
                name, entry.label, verdict.run_record(),
                quiet_fraction=quiet_fraction))
        rows.append(row)
    return LatticeResult(rows=rows, graphs=list(graphs), seeds=int(seeds),
                        seed=int(seed), quiet_fraction=float(quiet_fraction))
