"""Events/sec-vs-n scaling curves for sparse topologies.

Where :mod:`repro.perf.bench` measures fixed small workloads against a
committed baseline, this module measures how engine throughput *scales*
with system size: one full dining run per (family, n) point under
conflict-graph-local pair selection (``pairs=neighbors``) and the
``counters`` trace, timed end to end (construction excluded).

Families are sparse by construction so the per-process conflict degree
stays roughly constant as n grows — the regime the paper's WSN motivation
implies, and the one where local monitoring beats the full n·(n-1)
square:

``rgg``
    Seeded random geometric graph with the radius solved per n for a
    target mean degree (~10), i.e. ``r = sqrt(deg / (pi * (n - 1)))``,
    and the seed walked upward from 7 to the first *connected* draw —
    so every point measures one system, not several small ones
    (``rgg:1000:0.0564:8`` at n=1000, the perf ledger's instance).
``tree``
    Binary cluster tree (``tree:n:2``): n-1 edges, maximally sparse.

The JSON artifact (``benchmarks/results/BENCH_scaling.json``) records
events/sec at each n so the scaling trajectory is tracked in-repo next to
``BENCH_engine.json``; ``repro bench --scaling`` regenerates it.
"""

from __future__ import annotations

import json
import math
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import networkx as nx

from repro.errors import ConfigurationError

SCALING_SCHEMA = "repro.bench.scaling.v1"

#: Default location of the tracked scaling curve.
SCALING_PATH = (pathlib.Path(__file__).resolve().parents[3]
                / "benchmarks" / "results" / "BENCH_scaling.json")

#: System sizes each family is measured at.
DEFAULT_NS = (16, 64, 256, 1000)

#: Target mean conflict degree for the rgg family (kept constant across n
#: so the topology stays sparse as the system grows).  Above ln(1000), or
#: a connected draw at n=1000 would be vanishingly rare.
RGG_TARGET_DEGREE = 10.0

#: How many consecutive seeds the rgg family tries for a connected draw.
RGG_SEED_TRIES = 64

#: Virtual horizon per scaling run: long enough for steady-state stepping
#: and heartbeat traffic to dominate, short enough that the n=1000 point
#: stays a few wall seconds.
SCALING_MAX_TIME = 120.0


def rgg_spec(n: int, seed: int = 7,
             target_degree: float = RGG_TARGET_DEGREE) -> str:
    """The rgg graph spec whose expected mean degree is ``target_degree``."""
    if n < 2:
        raise ConfigurationError(f"rgg scaling point needs n >= 2, got {n}")
    radius = math.sqrt(target_degree / (math.pi * (n - 1)))
    return f"rgg:{n}:{radius:.4f}:{seed}"


def connected_rgg_spec(n: int, seed: int = 7) -> str:
    """:func:`rgg_spec` at the first seed >= ``seed`` that draws a
    connected graph."""
    from repro.runtime.spec import parse_graph

    for s in range(seed, seed + RGG_SEED_TRIES):
        spec = rgg_spec(n, s)
        if nx.is_connected(parse_graph(spec)):
            return spec
    raise ConfigurationError(
        f"no connected rgg at n={n}, degree {RGG_TARGET_DEGREE} among seeds "
        f"{seed}..{seed + RGG_SEED_TRIES - 1}")


def tree_spec(n: int) -> str:
    return f"tree:{n}:2"


FAMILIES: dict[str, Callable[[int], str]] = {
    "rgg": connected_rgg_spec,
    "tree": tree_spec,
}


@dataclass(frozen=True)
class ScalingPoint:
    """One timed (family, n) run."""

    family: str
    n: int
    graph: str
    events: int
    wall_seconds: float

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "n": self.n,
            "graph": self.graph,
            "events": self.events,
            "wall_seconds": round(self.wall_seconds, 4),
            "events_per_sec": round(self.events_per_sec, 1),
        }


def run_point(family: str, n: int, seed: int = 7,
              max_time: float = SCALING_MAX_TIME) -> ScalingPoint:
    """Build and time one scaling run (construction excluded)."""
    from repro.runtime.builder import instantiate
    from repro.runtime.spec import RunSpec

    try:
        graph_of = FAMILIES[family]
    except KeyError:
        raise ConfigurationError(
            f"unknown scaling family {family!r} "
            f"(available: {', '.join(sorted(FAMILIES))})") from None
    graph = graph_of(n)
    spec = RunSpec(name=f"scaling-{family}-{n}", graph=graph, seed=seed,
                   max_time=max_time, pairs="neighbors", trace="counters")
    built = instantiate(spec)
    t0 = time.perf_counter()
    built.engine.run()
    wall = time.perf_counter() - t0
    return ScalingPoint(family=family, n=n, graph=graph,
                        events=built.engine.events_processed,
                        wall_seconds=wall)


def run_scaling(families: Sequence[str] | None = None,
                ns: Sequence[int] = DEFAULT_NS,
                seed: int = 7,
                max_time: float = SCALING_MAX_TIME) -> list[ScalingPoint]:
    """The full curve: every (family, n) point, smallest n first."""
    names = list(families) if families else list(FAMILIES)
    return [run_point(family, n, seed=seed, max_time=max_time)
            for family in names for n in sorted(ns)]


def emit_scaling_report(points: Sequence[ScalingPoint],
                        out: "str | pathlib.Path | None" = None,
                        ) -> dict[str, Any]:
    """Build (and optionally write) the ``BENCH_scaling.json`` payload."""
    families: dict[str, list[dict[str, Any]]] = {}
    for point in points:
        families.setdefault(point.family, []).append(point.to_dict())
    payload: dict[str, Any] = {
        "schema": SCALING_SCHEMA,
        "pairs": "neighbors",
        "max_time": SCALING_MAX_TIME,
        "families": families,
    }
    if out is not None:
        path = pathlib.Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    return payload


def render_scaling(points: Sequence[ScalingPoint]) -> str:
    """Human-readable scaling table."""
    lines = [f"{'family':<8} {'n':>6} {'graph':<20} {'events':>10} "
             f"{'wall s':>8} {'events/sec':>12}"]
    for p in points:
        lines.append(
            f"{p.family:<8} {p.n:>6} {p.graph:<20} {p.events:>10} "
            f"{p.wall_seconds:>8.3f} {p.events_per_sec:>12.0f}")
    return "\n".join(lines)
