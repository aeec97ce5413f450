"""``random_geometric`` in row blocks builds the graph the dense pass built.

The reference below is the one-pass construction: an n x n x 2 difference
array and an n x n distance array.  The row-block build must return an
identical ``nx.Graph`` -- same nodes, same positions, same edges in the
same order -- for every block size, while its temporaries stay bounded.
"""

import math
import tracemalloc
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.runtime.spec import parse_graph


def dense_random_geometric(n, radius, seed=0, prefix="p"):
    """The dense O(n^2)-memory construction, kept as the reference."""
    nodes = [f"{prefix}{i}" for i in range(n)]
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 2))
    g = nx.Graph()
    for i, node in enumerate(nodes):
        g.add_node(node, x=float(pos[i, 0]), y=float(pos[i, 1]))
    diff = pos[:, None, :] - pos[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    ii, jj = np.nonzero(dist2 < radius * radius)
    g.add_edges_from((nodes[i], nodes[j])
                     for i, j in zip(ii.tolist(), jj.tolist()) if i < j)
    return g


def assert_same_graph(got, want):
    assert list(got.nodes(data=True)) == list(want.nodes(data=True))
    assert list(got.edges()) == list(want.edges())


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 300),
       radius=st.one_of(st.sampled_from([1e-9, 1.5]),
                        st.floats(0.01, 0.6)),
       seed=st.integers(0, 2**32 - 1),
       block_pairs=st.sampled_from([1, 2, 7, 4096, graphs._BLOCK_PAIRS]))
# 4096 pairs make 64-row blocks at n = 64: n just below, at and above it.
@example(n=63, radius=0.2, seed=1, block_pairs=4096)
@example(n=64, radius=0.2, seed=1, block_pairs=4096)
@example(n=65, radius=0.2, seed=1, block_pairs=4096)
@example(n=1, radius=0.5, seed=0, block_pairs=1)
@example(n=40, radius=1e-9, seed=3, block_pairs=7)     # no edges
@example(n=40, radius=1.5, seed=3, block_pairs=7)      # complete graph
def test_blocks_match_dense_reference(n, radius, seed, block_pairs):
    with mock.patch.object(graphs, "_BLOCK_PAIRS", block_pairs):
        got = graphs.random_geometric(n, radius, seed)
    assert_same_graph(got, dense_random_geometric(n, radius, seed))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_default_block_boundary(offset):
    # At n = sqrt(budget) one block holds exactly all n rows.
    n = math.isqrt(graphs._BLOCK_PAIRS) + offset
    assert_same_graph(graphs.random_geometric(n, 0.08, 7),
                      dense_random_geometric(n, 0.08, 7))


def test_ties_at_the_radius_fall_alike():
    # A radius equal to some pair's distance puts that pair on the edge of
    # the strict ``<``: both builds must compute the same rounded distance.
    pos = np.random.default_rng(5).random((200, 2))
    d = pos[17] - pos[123]
    radius = float(np.sqrt(np.einsum("k,k->", d, d)))
    with mock.patch.object(graphs, "_BLOCK_PAIRS", 300):
        got = graphs.random_geometric(200, radius, 5)
    assert_same_graph(got, dense_random_geometric(200, radius, 5))


#: Every rgg spec the repository runs or pins (CLI defaults, tests, the perf
#: ledger, the scaling curve, the experiments).  Larger specs are covered by
#: the memory tests: the dense reference needs n^2 * 24 bytes.
REPO_SPECS = [
    "rgg:12:0.1:0", "rgg:16:0.4:7", "rgg:16:0.4607:7", "rgg:16:0.4607:8",
    "rgg:20:0.4", "rgg:20:0.4:0", "rgg:30:0.3:7", "rgg:30:0.4:7",
    "rgg:60:0.25:8", "rgg:64:0.2248:7", "rgg:100:0.15:7", "rgg:100:0.18:7",
    "rgg:100:0.2:7", "rgg:200:0.11:7", "rgg:200:0.12:7", "rgg:200:0.13:7",
    "rgg:256:0.1117:7", "rgg:300:0.1:8", "rgg:1000:0.0564:8",
]


@pytest.mark.parametrize("spec", REPO_SPECS)
def test_repo_specs_match_dense_reference(spec):
    _, n, radius, *seed = spec.split(":")
    want = dense_random_geometric(int(n), float(radius),
                                  int(seed[0]) if seed else 0)
    assert_same_graph(parse_graph(spec), want)


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_parse_peak_is_bounded():
    # The dense build peaks at about 228 MB here.
    peak = _traced_peak_mb(lambda: parse_graph("rgg:3000:0.04:8"))
    assert peak < 32, f"rgg:3000 parse peaked at {peak:.1f} MB"


def test_large_n_parse_peak_is_bounded():
    # n = 10^4: the dense build peaks at about 2.5 GB.
    peak = _traced_peak_mb(lambda: parse_graph("rgg:10000:0.0178:7"))
    assert peak <= 64, f"rgg:10000 parse peaked at {peak:.1f} MB"
