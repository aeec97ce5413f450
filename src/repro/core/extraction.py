"""Assembling the full ◇P detector from per-pair reductions.

The paper implements ◇P "for each ordered pair of processes" (Section 6);
the full detector at ``p`` is simply the union of p's per-pair suspicion
bits.  :func:`build_full_extraction` installs all ``n·(n-1)`` ordered pairs
(hence ``2·n·(n-1)`` dining instances) over the given black box and returns
one queryable :class:`ExtractedDetector` facade per process — the same
query surface as a native :class:`~repro.oracles.base.OracleModule`, so the
extracted oracle can drive downstream protocols (consensus, leader
election, fair dining) unchanged.

The per-pair construction is an argument, so every construction the
corrigendum compares runs through this one installer: Algs. 1/2
(:class:`~repro.core.pair.ReductionPair`, the default; relabelled
``TRUSTING_LABEL`` over a perpetual-WX box it extracts T, Section 9),
[8]'s single contention-manager instance (Section 3) and the rejected
sketch of Section 5.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.core.pair import DiningBoxFactory, ReductionPair
from repro.core.witness import ExtractedPairModule
from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.types import ProcessId

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


@dataclass(frozen=True)
class PairSelection:
    """Policy choosing which ordered (witness, subject) pairs to monitor.

    ``all``
        The paper's full reduction: every ordered pair over the process
        set — ``n·(n-1)`` pairs regardless of topology.  The default, and
        bit-identical to the historical construction order.
    ``neighbors``
        Conflict-graph-local monitoring: a witness only monitors subjects
        it shares a conflict edge with (both orientations of every edge —
        ``2·|E|`` pairs).  This is what makes n=100–1000 tractable on
        sparse topologies, at the cost of extracting ◇P *restricted to
        the conflict relation* (see docs/topologies.md for the
        completeness caveat).
    ``neighbors:k``
        Same, but within ``k`` hops of the witness (``neighbors`` is
        ``neighbors:1``; large ``k`` on a connected graph converges to
        ``all``).

    Parse a spec string with :meth:`parse`; derive concrete pairs with
    :meth:`pairs_for`.
    """

    policy: str = "all"
    hops: int = 1

    _KINDS = ("all", "neighbors")

    @classmethod
    def parse(cls, spec: str) -> "PairSelection":
        """``"all" | "neighbors" | "neighbors:<k>"`` → a PairSelection."""
        if not isinstance(spec, str):
            raise ConfigurationError(
                f"pair selection must be a string, got {spec!r}")
        head, _, arg = spec.partition(":")
        if head == "all":
            if arg:
                raise ConfigurationError(
                    f"pair selection 'all' takes no argument, got {spec!r}")
            return cls("all")
        if head == "neighbors":
            if not arg:
                return cls("neighbors", 1)
            try:
                hops = int(arg)
            except ValueError:
                raise ConfigurationError(
                    f"pair selection hop count must be an integer, "
                    f"got {spec!r}") from None
            if hops < 1:
                raise ConfigurationError(
                    f"pair selection hop count must be >= 1, got {hops}")
            return cls("neighbors", hops)
        raise ConfigurationError(
            f"unknown pair selection {spec!r} (expected one of: "
            "'all', 'neighbors', 'neighbors:<k>')")

    @property
    def is_all(self) -> bool:
        return self.policy == "all"

    def spec_string(self) -> str:
        if self.policy == "all":
            return "all"
        return "neighbors" if self.hops == 1 else f"neighbors:{self.hops}"

    def peers_map(self, pids: Sequence[ProcessId],
                  graph: "nx.Graph | None") -> dict[ProcessId, list[ProcessId]]:
        """Per-process monitored peers, in deterministic order.

        Under ``all`` each process monitors every other in ``pids`` order
        (the historical order — do not re-sort).  Under ``neighbors[:k]``
        each process monitors the sorted set of conflict-graph vertices
        within ``hops`` of it.
        """
        if self.is_all:
            return {p: [q for q in pids if q != p] for p in pids}
        if graph is None:
            raise ConfigurationError(
                f"pair selection {self.spec_string()!r} needs a conflict "
                "graph (policy 'all' is the only graph-free selection)")
        import networkx as nx  # local: keep import cost off the hot path

        out: dict[ProcessId, list[ProcessId]] = {}
        for p in pids:
            if self.hops == 1:
                near = set(graph.neighbors(p))
            else:
                near = set(nx.single_source_shortest_path_length(
                    graph, p, cutoff=self.hops))
                near.discard(p)
            out[p] = sorted(near)
        return out

    def pairs_for(self, pids: Sequence[ProcessId],
                  graph: "nx.Graph | None" = None,
                  ) -> list[tuple[ProcessId, ProcessId]]:
        """Ordered (witness, subject) pairs under this policy."""
        peers = self.peers_map(pids, graph)
        return [(p, q) for p in pids for q in peers[p]]


class ExtractedDetector:
    """Facade over one process's extracted pair modules.

    Presents the ``suspects() / suspected(q) / trusted(q)`` query API of a
    local ◇P module, backed by the reduction's outputs.
    """

    def __init__(self, owner: ProcessId,
                 pair_outputs: Mapping[ProcessId, ExtractedPairModule]) -> None:
        self.owner = owner
        self._outputs = dict(pair_outputs)
        self.monitored = tuple(sorted(self._outputs))

    def suspects(self) -> frozenset[ProcessId]:
        return frozenset(
            q for q, module in self._outputs.items() if module.suspected(q)
        )

    def suspected(self, q: ProcessId) -> bool:
        try:
            return self._outputs[q].suspected(q)
        except KeyError:
            raise ConfigurationError(
                f"extracted detector at {self.owner} does not monitor {q!r}"
            ) from None

    def trusted(self, q: ProcessId) -> bool:
        return not self.suspected(q)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExtractedDetector({self.owner} monitors {list(self.monitored)})"


def build_full_extraction(
    engine: Engine,
    pids: Sequence[ProcessId],
    box_factory: DiningBoxFactory,
    *,
    construction: Callable[..., Any] = ReductionPair,
    monitors: Iterable[tuple[ProcessId, ProcessId]] | None = None,
    selection: "PairSelection | str | None" = None,
    graph: "nx.Graph | None" = None,
) -> tuple[dict[ProcessId, ExtractedDetector], dict[tuple[ProcessId, ProcessId], Any]]:
    """Install ``construction`` for every selected ordered pair.

    Parameters
    ----------
    construction:
        ``construction(witness, subject, box_factory)`` builds one pair
        object whose ``attach(engine)`` returns its
        :class:`~repro.core.witness.ExtractedPairModule`; the pair module
        carries the construction's trace label.
    monitors:
        Optional explicit list of ``(witness, subject)`` pairs; overrides
        ``selection`` when given.
    selection:
        A :class:`PairSelection` (or its spec string) deriving the pairs;
        defaults to ``all`` — every ordered pair over ``pids``, in the
        historical (golden-pinned) order.  Non-``all`` policies need the
        conflict ``graph``.

    Returns
    -------
    ``(detectors, pairs)`` — one facade per process in ``pids`` (empty
    for a process that monitors nobody) and the raw pair objects (whose
    thread diagnostics the lemma tests use).
    """
    if monitors is None:
        if selection is None:
            selection = PairSelection()
        elif isinstance(selection, str):
            selection = PairSelection.parse(selection)
        monitors = selection.pairs_for(pids, graph)
    elif selection is not None:
        raise ConfigurationError(
            "pass either explicit monitors or a selection, not both")
    pairs: dict[tuple[ProcessId, ProcessId], Any] = {}
    outputs: dict[ProcessId, dict[ProcessId, ExtractedPairModule]] = {
        p: {} for p in pids
    }
    for p, q in monitors:
        pair = construction(p, q, box_factory)
        outputs.setdefault(p, {})[q] = pair.attach(engine)
        pairs[(p, q)] = pair
    detectors = {p: ExtractedDetector(p, mods) for p, mods in outputs.items()}
    return detectors, pairs
