"""Conflict-graph constructors for dining instances.

A dining instance is modeled by an undirected conflict graph ``DP = (Π, E)``
(paper Section 4): vertices are diners, and an edge means the two diners
share resources and must not eat simultaneously (eventually, under ◇WX).

All constructors return :class:`networkx.Graph` with string node names, so
graphs double as process-id sets for the simulator.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.errors import ConfigurationError


def _named(n: int, prefix: str) -> list[str]:
    if n < 1:
        raise ConfigurationError(f"need at least one diner, got {n}")
    return [f"{prefix}{i}" for i in range(n)]


def pair_graph(a: str, b: str) -> nx.Graph:
    """The 2-diner graph used by each reduction instance DXi."""
    g = nx.Graph()
    g.add_edge(a, b)
    return g


def ring(n: int, prefix: str = "p") -> nx.Graph:
    """Dijkstra's original table: ``n`` diners in a cycle (n >= 3)."""
    if n < 3:
        raise ConfigurationError("a ring needs at least 3 diners")
    nodes = _named(n, prefix)
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from((nodes[i], nodes[(i + 1) % n]) for i in range(n))
    return g


def clique(n: int, prefix: str = "p") -> nx.Graph:
    """Mutual exclusion: every pair conflicts."""
    nodes = _named(n, prefix)
    g = nx.complete_graph(len(nodes))
    return nx.relabel_nodes(g, dict(enumerate(nodes)))


def star(n_leaves: int, hub: str = "hub", prefix: str = "leaf") -> nx.Graph:
    """One hub conflicting with every leaf (highly asymmetric contention)."""
    g = nx.Graph()
    g.add_node(hub)
    for leaf in _named(n_leaves, prefix):
        g.add_edge(hub, leaf)
    return g


def path(n: int, prefix: str = "p") -> nx.Graph:
    """A line of diners (sparse local conflicts)."""
    nodes = _named(n, prefix)
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(zip(nodes, nodes[1:]))
    return g


def grid(rows: int, cols: int, prefix: str = "n") -> nx.Graph:
    """A rows x cols 4-neighbour grid (the WSN coverage topology)."""
    if rows < 1 or cols < 1:
        raise ConfigurationError("grid dimensions must be positive")
    g = nx.Graph()
    name = lambda r, c: f"{prefix}{r}_{c}"  # noqa: E731
    for r in range(rows):
        for c in range(cols):
            g.add_node(name(r, c), row=r, col=c)
            if r > 0:
                g.add_edge(name(r, c), name(r - 1, c))
            if c > 0:
                g.add_edge(name(r, c), name(r, c - 1))
    return g


def random_graph(n: int, p: float, rng: np.random.Generator,
                 prefix: str = "p", connect: bool = True) -> nx.Graph:
    """Erdős–Rényi conflict graph; optionally stitched to be connected."""
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"edge probability out of range: {p}")
    nodes = _named(n, prefix)
    g = nx.Graph()
    g.add_nodes_from(nodes)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(nodes[i], nodes[j])
    if connect and n > 1:
        comps = [sorted(c) for c in nx.connected_components(g)]
        for a, b in zip(comps, comps[1:]):
            g.add_edge(a[0], b[0])
    return g


#: Pairs per distance block in :func:`random_geometric` (about 25 bytes of
#: temporaries each).
_BLOCK_PAIRS = 1 << 18


def random_geometric(n: int, radius: float, seed: int = 0,
                     prefix: str = "p") -> nx.Graph:
    """Seeded random geometric graph on the unit square (WSN deployments).

    ``n`` sensors are dropped uniformly at random; two conflict when their
    Euclidean distance is below ``radius``.  Node positions are stored as
    ``x`` / ``y`` attributes.  Fully deterministic for a fixed
    ``(n, radius, seed)`` triple.

    Low radii commonly disconnect the graph — that is deliberate and left
    to :func:`validate_conflict_graph` to accept or reject, so callers can
    opt into independently-monitored components.
    """
    if radius <= 0.0:
        raise ConfigurationError(f"rgg radius must be positive, got {radius}")
    nodes = _named(n, prefix)
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 2))
    g = nx.Graph()
    for i, node in enumerate(nodes):
        g.add_node(node, x=float(pos[i, 0]), y=float(pos[i, 1]))
    # Pairwise distances in row blocks of about _BLOCK_PAIRS pairs, each
    # row against the columns from its block's first row on: the
    # temporaries stay bounded while the time is O(n^2).  Edges go in
    # row-major (i, j), i < j order, as one dense n x n pass would add them.
    rows = max(1, _BLOCK_PAIRS // n)
    for lo in range(0, n, rows):
        diff = pos[lo:lo + rows, None, :] - pos[None, lo:, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        ii, jj = np.nonzero(dist2 < radius * radius)
        g.add_edges_from((nodes[lo + i], nodes[lo + j])
                         for i, j in zip(ii.tolist(), jj.tolist()) if i < j)
    return g


def cluster_tree(n: int, arity: int = 2, prefix: str = "p") -> nx.Graph:
    """A rooted tree where node ``i``'s parent is ``(i-1) // arity``.

    Models cluster-head hierarchies in sensor networks: conflicts only
    between a node and its cluster head.  Always connected; ``n-1`` edges.
    """
    if arity < 1:
        raise ConfigurationError(f"tree arity must be >= 1, got {arity}")
    nodes = _named(n, prefix)
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from((nodes[(i - 1) // arity], nodes[i])
                     for i in range(1, n))
    return g


def neighbors_map(g: nx.Graph) -> dict[str, list[str]]:
    """Deterministically ordered adjacency map (stable across runs)."""
    return {v: sorted(g.neighbors(v)) for v in sorted(g.nodes)}


def _component_summary(g: nx.Graph, limit: int = 4) -> str:
    comps = sorted((sorted(c) for c in nx.connected_components(g)),
                   key=lambda c: (-len(c), c))
    parts = []
    for c in comps[:limit]:
        shown = ", ".join(c[:5]) + (", ..." if len(c) > 5 else "")
        parts.append(f"[{shown}] ({len(c)} nodes)")
    if len(comps) > limit:
        parts.append(f"... and {len(comps) - limit} more")
    return "; ".join(parts)


def validate_conflict_graph(g: nx.Graph,
                            allow_disconnected: bool = False) -> None:
    """Reject graphs a dining instance cannot use.

    Self-loops and empty graphs are always rejected.  A disconnected graph
    is rejected by default — dining progress and detector extraction only
    relate processes within a component, so a disconnected topology is
    usually an accidental one (an RGG radius set too low, say).  Pass
    ``allow_disconnected=True`` (the ``--allow-disconnected`` CLI flag) to
    run anyway with each component monitored independently.
    """
    if g.number_of_nodes() == 0:
        raise ConfigurationError("conflict graph has no diners")
    loops = list(nx.selfloop_edges(g))
    if loops:
        raise ConfigurationError(f"conflict graph has self-loops: {loops}")
    if not allow_disconnected and not nx.is_connected(g):
        n_comp = nx.number_connected_components(g)
        raise ConfigurationError(
            f"conflict graph is disconnected ({n_comp} components: "
            f"{_component_summary(g)}). Increase the rgg radius / rand edge "
            "probability, or pass --allow-disconnected to monitor each "
            "component independently.")
