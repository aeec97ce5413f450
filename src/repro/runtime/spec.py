"""The declarative description of one simulated dining run.

A :class:`RunSpec` fully determines a run — topology, seed, delay and
fault models, transport policy, oracle, dining algorithm, workload, crash
schedule, and trace retention.  It is plain data (strings, numbers,
mappings), so it serializes to JSON, pickles across worker processes, and
compares by value; the single canonical builder in
:mod:`repro.runtime.builder` turns it into a wired engine, and
:func:`repro.runtime.builder.execute` turns it into a
:class:`~repro.runtime.result.RunResult`.

``chaos.build_run``, ``repro scenario``/``repro sweep`` JSON files and
the service's submissions all produce this one type.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Mapping, Optional

import networkx as nx

from repro import graphs
from repro.core.extraction import PairSelection
from repro.dining.boxes import box_factory
from repro.errors import ConfigurationError
from repro.oracles.registry import DetectorSpec
from repro.sim.trace import validate_retention


def _parse_grid(arg: str) -> nx.Graph:
    rows, cols = arg.split("x")
    return graphs.grid(int(rows), int(cols))


def _parse_pair(arg: str) -> nx.Graph:
    a, b = arg.split(",")
    return graphs.pair_graph(a.strip(), b.strip())


def _parse_rgg(arg: str) -> nx.Graph:
    parts = arg.split(":")
    if len(parts) not in (2, 3):
        raise ValueError("expected n:radius[:seed]")
    n, radius = int(parts[0]), float(parts[1])
    seed = int(parts[2]) if len(parts) == 3 else 0
    return graphs.random_geometric(n, radius, seed)


def _parse_tree(arg: str) -> nx.Graph:
    parts = arg.split(":")
    if len(parts) not in (1, 2):
        raise ValueError("expected n[:arity]")
    n = int(parts[0])
    arity = int(parts[1]) if len(parts) == 2 else 2
    return graphs.cluster_tree(n, arity)


def _parse_rand(arg: str) -> nx.Graph:
    import numpy as np

    parts = arg.split(":")
    if len(parts) not in (2, 3):
        raise ValueError("expected n:p[:seed]")
    n, p = int(parts[0]), float(parts[1])
    seed = int(parts[2]) if len(parts) == 3 else 0
    return graphs.random_graph(n, p, np.random.default_rng(seed),
                               connect=False)


#: Graph-spec registry: kind -> (builder over the arg string, example spec).
#: The examples double as the error-path documentation — every unknown-kind
#: or malformed-arg message enumerates this table.
GRAPH_KINDS: dict[str, tuple[Any, str]] = {
    "ring": (lambda arg: graphs.ring(int(arg)), "ring:5"),
    "clique": (lambda arg: graphs.clique(int(arg)), "clique:4"),
    "path": (lambda arg: graphs.path(int(arg)), "path:6"),
    "star": (lambda arg: graphs.star(int(arg)), "star:4"),
    "grid": (_parse_grid, "grid:2x3"),
    "pair": (_parse_pair, "pair:a,b"),
    "rgg": (_parse_rgg, "rgg:100:0.18:7"),
    "tree": (_parse_tree, "tree:50:3"),
    "rand": (_parse_rand, "rand:40:0.1:1"),
}


def _graph_kind_help() -> str:
    return ", ".join(f"{kind} (e.g. {example})"
                     for kind, (_, example) in GRAPH_KINDS.items())


def parse_graph(spec: str) -> nx.Graph:
    """Parse a graph spec string into a conflict graph.

    Supported kinds: ``ring:5``, ``clique:4``, ``path:6``, ``star:4``,
    ``grid:2x3``, ``pair:a,b``, ``rgg:n:radius[:seed]`` (seeded random
    geometric), ``tree:n[:arity]`` (cluster tree), and ``rand:n:p[:seed]``
    (seeded Erdős–Rényi).  Seeds default to 0; tree arity defaults to 2.
    """
    kind, _, arg = spec.partition(":")
    try:
        builder, _ = GRAPH_KINDS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown graph kind {kind!r} in {spec!r}; supported kinds: "
            f"{_graph_kind_help()}") from None
    try:
        return builder(arg)
    except ConfigurationError:
        raise
    except (ValueError, TypeError) as exc:
        _, example = GRAPH_KINDS[kind]
        raise ConfigurationError(
            f"bad graph spec {spec!r}: {exc} (expected e.g. {example!r}; "
            f"supported kinds: {_graph_kind_help()})") from exc


def check_grammars(pairs: str, *boxes: str) -> None:
    """Parse the pair selection (:meth:`PairSelection.parse`) and each
    dining box (:func:`box_factory`, parse only: no provider, nothing
    built); a malformed one raises :class:`ConfigurationError`."""
    PairSelection.parse(pairs)
    for box in boxes:
        box_factory(box, None)


#: :func:`check_grammars`, remembered: both parses are pure functions of
#: their strings, and a ``RunSpec`` is built per service request.  A
#: malformed string raises, is not cached, and raises again next time.
_check_grammars = lru_cache(maxsize=1024)(check_grammars)


@dataclass
class RunSpec:
    """A declaratively-described dining run (pure data, fully picklable)."""

    name: str = "run"
    graph: str = "ring:4"
    #: The dining box, in :func:`repro.dining.box_factory`'s grammar.
    algorithm: str = "wf-ewx"
    client: str = "eager:2"
    crashes: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0
    gst: float = 120.0
    max_time: float = 2000.0
    grace: float = 120.0
    #: Link faults (docs/fault_model.md): per-message loss/duplication
    #: probabilities and an optional partition window
    #: ``{"side": [pids], "start": t0, "end": t1}``.
    drop: float = 0.0
    duplicate: float = 0.0
    partition: Optional[Mapping[str, Any]] = None
    #: Reliable transport over the faulty wire.  ``None`` = auto: installed
    #: exactly when link faults are configured, so algorithms keep their
    #: Section 4 channel assumptions.  ``False`` exposes raw faults to the
    #: algorithms (chaos/negative testing).  A mapping is passed through as
    #: :class:`~repro.sim.transport.RetransmitPolicy` keywords, e.g.
    #: ``{"rto_initial": 6.0, "rto_max": 45.0}``.
    transport: Optional[bool | Mapping[str, float]] = None
    #: Targeted delay adversary: ``{"kind"|"endpoint"|"tag_prefix": ...,
    #: "factor": f, "extra_max": m, "until": t}`` (see repro.sim.adversary).
    slow: Optional[Mapping[str, Any]] = None
    #: Trace retention (``full`` | ``counters``): whether the run keeps its
    #: rows; ``counters`` runs go unjudged unless asked (docs/runtime.md).
    trace: str = "full"
    #: Record per-message send/deliver trace rows (verbose; off by default).
    record_messages: bool = False
    #: Detector-quality telemetry (:mod:`repro.obs`): convergence probes on
    #: the trace stream, metric snapshot on the result.  On by default; the
    #: probes are pure arithmetic and cost little.
    obs: bool = True
    #: Span-level tracing (:mod:`repro.obs.spans`): materialize per-pair
    #: suspicion intervals, dining phases, crash points, and the
    #: convergence marker as typed spans on the result
    #: (``RunResult.spans``, ``repro.span.v1`` export).  Off by default —
    #: spans keep one tuple per interval for the whole run; see
    #: docs/observability.md.
    spans: bool = False
    #: Pair-selection policy for detector monitoring (``all`` |
    #: ``neighbors`` | ``neighbors:<k>``): which ordered (witness, subject)
    #: pairs the oracle monitors and the property checkers verify.  ``all``
    #: is the paper's full n·(n-1) square (bit-identical to historical
    #: runs); ``neighbors`` restricts monitoring to conflict-graph edges,
    #: making sparse n=100–1000 topologies tractable.  See
    #: docs/topologies.md.
    pairs: str = "all"
    #: Accept a disconnected conflict graph (components are monitored
    #: independently).  Off by default: a disconnected topology is usually
    #: an accident (an RGG radius set too low).
    allow_disconnected: bool = False
    #: Which failure detector drives the run, by registry name
    #: (:data:`repro.oracles.registry.REGISTRY`): ``eventually_perfect`` |
    #: ``eventually_strong`` | ``strong`` | ``perfect`` | ``trusting`` |
    #: ``omega`` | ``flawed_cm`` | ``extracted``.  The default is the
    #: historical heartbeat ◇P, bit-identical to pre-registry runs (golden
    #: traces pin it).
    detector: str = "eventually_perfect"
    #: Per-detector parameter overrides (e.g. ``{"initial_timeout": 20}``
    #: for ◇P, ``{"box": "manager"}`` for ``extracted``); unknown
    #: keys fail eagerly naming the accepted ones.  Defaults come from the
    #: registry entry.
    detector_params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Eager validation: a malformed spec fails at construction with a
        clear :class:`~repro.errors.ReproError`, not deep inside a worker
        process after the campaign has already fanned out."""
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError(
                f"seed must be an int, got {self.seed!r}")
        if self.max_time <= 0:
            raise ConfigurationError(
                f"max_time must be positive, got {self.max_time}")
        if self.gst < 0:
            raise ConfigurationError(
                f"gst must be non-negative, got {self.gst}")
        if self.grace < 0:
            raise ConfigurationError(
                f"grace must be non-negative, got {self.grace}")
        for name in ("drop", "duplicate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be a probability in [0, 1], got {value}")
        # Detector name/params are owned by the oracle registry; eager
        # validation here means an unknown detector or parameter fails at
        # spec construction with the full registry enumerated.  Checked
        # every time: the registry is live and the params are a mapping.
        DetectorSpec(self.detector, dict(self.detector_params))
        # A reduction detector's ``box`` is in the same grammar as
        # ``algorithm``, so a malformed one fails here, not in a worker.
        box = self.detector_params.get("box")
        grammars = ((self.pairs, self.algorithm) if box is None
                    else (self.pairs, self.algorithm, box))
        try:
            _check_grammars(*grammars)
        except TypeError:  # an unhashable value: parsed uncached, and fails
            check_grammars(*grammars)
        validate_retention(self.trace)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        unknown = set(data) - {f.name for f in cls.__dataclass_fields__.values()}
        if unknown:
            raise ConfigurationError(f"unknown scenario keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: "str | pathlib.Path") -> "RunSpec":
        try:
            data = json.loads(pathlib.Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_dict(data)
