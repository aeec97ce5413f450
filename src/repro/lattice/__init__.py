"""The detector lattice: cross-detector comparison under identical chaos.

The corrigendum's result places detectors in a *lattice* relative to
wait-free dining under eventual weak exclusion: ◇P is sufficient (and,
by the extraction, necessary — it is the weakest), P/T/S sit above it,
Ω and the flawed [8] extraction sit below.  This package measures that
ordering empirically:

* :func:`~repro.lattice.compare.compare` runs every registered detector
  but ``extracted`` (:data:`~repro.lattice.compare.DEFAULT_DETECTORS`;
  name it to rank the reduction) through *identical* seeded
  chaos campaigns and assembles a
  :class:`~repro.lattice.matrix.LatticeResult` — convergence time,
  wrongful-suspicion churn, message cost, and a per-seed ◇WX verdict per
  detector, rendered as ``repro.lattice.v1`` JSONL, an ASCII table, and
  an SVG dominance grid.  CLI: ``repro lattice``.
"""

from repro.lattice.compare import compare, lattice_config
from repro.lattice.matrix import (
    LATTICE_SCHEMA,
    QUIET_FRACTION,
    DetectorRow,
    LatticeCell,
    LatticeResult,
    cell_from_record,
    dominance_symbol,
)

__all__ = [
    "LATTICE_SCHEMA",
    "QUIET_FRACTION",
    "DetectorRow",
    "LatticeCell",
    "LatticeResult",
    "cell_from_record",
    "compare",
    "dominance_symbol",
    "lattice_config",
]
