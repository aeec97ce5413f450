"""Tests for conflict-graph constructors."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import graphs
from repro.errors import ConfigurationError


def test_pair_graph():
    g = graphs.pair_graph("p", "q")
    assert set(g.nodes) == {"p", "q"} and g.has_edge("p", "q")


def test_ring_structure():
    g = graphs.ring(5)
    assert g.number_of_nodes() == 5 and g.number_of_edges() == 5
    assert all(d == 2 for _, d in g.degree)


def test_ring_rejects_small():
    with pytest.raises(ConfigurationError):
        graphs.ring(2)


def test_clique_structure():
    g = graphs.clique(4)
    assert g.number_of_edges() == 6
    assert sorted(g.nodes) == ["p0", "p1", "p2", "p3"]


def test_star_structure():
    g = graphs.star(4)
    assert g.degree["hub"] == 4
    assert all(g.degree[leaf] == 1 for leaf in g.nodes if leaf != "hub")


def test_path_structure():
    g = graphs.path(4)
    assert g.number_of_edges() == 3
    assert nx.is_connected(g)


def test_grid_structure():
    g = graphs.grid(3, 4)
    assert g.number_of_nodes() == 12
    # Interior/edge/corner degree pattern of a 4-neighbour grid.
    assert g.number_of_edges() == 3 * 3 + 4 * 2  # rows*(cols-1)+cols*(rows-1)


def test_grid_node_attributes():
    g = graphs.grid(2, 2)
    assert g.nodes["n1_0"]["row"] == 1 and g.nodes["n1_0"]["col"] == 0


def test_grid_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        graphs.grid(0, 3)


def test_random_graph_connected():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = graphs.random_graph(8, 0.1, rng)
        assert nx.is_connected(g)


def test_random_graph_probability_bounds():
    with pytest.raises(ConfigurationError):
        graphs.random_graph(3, 1.5, np.random.default_rng(0))


def test_random_graph_full_probability_is_clique():
    g = graphs.random_graph(5, 1.0, np.random.default_rng(0))
    assert g.number_of_edges() == 10


def test_neighbors_map_sorted_and_stable():
    g = graphs.ring(4)
    nm = graphs.neighbors_map(g)
    assert list(nm) == sorted(g.nodes)
    assert all(ns == sorted(ns) for ns in nm.values())


def test_validate_rejects_empty():
    with pytest.raises(ConfigurationError):
        graphs.validate_conflict_graph(nx.Graph())


def test_validate_rejects_self_loops():
    g = nx.Graph()
    g.add_edge("a", "a")
    with pytest.raises(ConfigurationError):
        graphs.validate_conflict_graph(g)


# -- seeded sparse families (rgg / tree) -------------------------------------


def test_random_geometric_deterministic():
    a = graphs.random_geometric(40, 0.25, seed=5)
    b = graphs.random_geometric(40, 0.25, seed=5)
    assert sorted(map(sorted, a.edges)) == sorted(map(sorted, b.edges))
    assert all(a.nodes[v] == b.nodes[v] for v in a.nodes)


def test_random_geometric_seed_changes_edges():
    a = graphs.random_geometric(40, 0.25, seed=1)
    b = graphs.random_geometric(40, 0.25, seed=2)
    assert sorted(map(sorted, a.edges)) != sorted(map(sorted, b.edges))


def test_random_geometric_edges_respect_radius():
    g = graphs.random_geometric(30, 0.3, seed=3)
    for u, v in g.edges:
        dx = g.nodes[u]["x"] - g.nodes[v]["x"]
        dy = g.nodes[u]["y"] - g.nodes[v]["y"]
        assert dx * dx + dy * dy < 0.3 * 0.3
    assert all(0.0 <= g.nodes[v]["x"] <= 1.0 for v in g.nodes)


def test_random_geometric_rejects_bad_radius():
    with pytest.raises(ConfigurationError):
        graphs.random_geometric(5, 0.0)


def test_cluster_tree_structure():
    g = graphs.cluster_tree(10, arity=3)
    assert nx.is_connected(g)
    assert g.number_of_edges() == 9
    assert g.degree["p0"] == 3                   # root has arity children


def test_cluster_tree_rejects_bad_arity():
    with pytest.raises(ConfigurationError):
        graphs.cluster_tree(5, arity=0)


@given(n=st.integers(1, 40), arity=st.integers(1, 5))
def test_cluster_tree_connected_with_n_minus_1_edges(n, arity):
    g = graphs.cluster_tree(n, arity=arity)
    assert g.number_of_nodes() == n
    assert g.number_of_edges() == n - 1
    assert nx.is_connected(g)
    # No node parents more than `arity` children (+1 edge to its own parent).
    assert all(d <= arity + 1 for _, d in g.degree)


# -- connectivity validation --------------------------------------------------


def test_validate_rejects_disconnected_naming_components():
    g = nx.Graph()
    g.add_edge("a", "b")
    g.add_edge("c", "d")
    with pytest.raises(ConfigurationError) as err:
        graphs.validate_conflict_graph(g)
    msg = str(err.value)
    assert "2 components" in msg
    assert "a" in msg and "c" in msg
    assert "--allow-disconnected" in msg


def test_validate_allow_disconnected_escape_hatch():
    g = nx.Graph()
    g.add_edge("a", "b")
    g.add_edge("c", "d")
    graphs.validate_conflict_graph(g, allow_disconnected=True)  # no raise


def test_validate_accepts_connected():
    graphs.validate_conflict_graph(graphs.ring(4))


@given(n=st.integers(3, 12))
def test_ring_is_2_regular_cycle(n):
    g = graphs.ring(n)
    assert nx.is_connected(g)
    assert all(d == 2 for _, d in g.degree)


@given(n=st.integers(1, 10), p=st.floats(0.0, 1.0))
def test_random_graph_node_count(n, p):
    g = graphs.random_graph(n, p, np.random.default_rng(0))
    assert g.number_of_nodes() == n
