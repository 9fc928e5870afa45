"""Property tests: the sort fast paths return exactly what a full sort returns.

``_normalise_edges``, ``SLineGraph(...)``, ``Graph.from_edge_list`` and
``pagerank`` skip their sorts when the input is already in order.  Each is
checked byte for byte against a reference copy of the always-sorting code,
on canonical, shuffled, reversed and duplicate-bearing edge lists (the
duplicates either appended out of order or adjacent in sorted order).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.slinegraph import SLineGraph, _normalise_edges
from repro.graph.graph import Graph
from repro.graph.pagerank import pagerank


# --------------------------------------------------------------------- #
# Reference copies of the always-sorting code
# --------------------------------------------------------------------- #
def ref_normalise_edges(edges, weights):
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    w = np.asarray(weights, dtype=np.int64)
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    keep = np.ones(lo.size, dtype=bool)
    keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    if not np.all(keep):
        group = np.cumsum(keep) - 1
        max_w = np.zeros(int(group[-1]) + 1, dtype=np.int64)
        np.maximum.at(max_w, group, w)
        lo, hi = lo[keep], hi[keep]
        w = max_w
    return np.column_stack([lo, hi]), w


def ref_graph_arrays(num_vertices, edges, weights):
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if arr.shape[0] == 0:
        return (
            np.zeros(num_vertices + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.ones(0, dtype=np.float64),
        )
    w = np.asarray(weights, dtype=np.float64)
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    keep = np.ones(lo.size, dtype=bool)
    keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    lo, hi, w = lo[keep], hi[keep], w[keep]
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    val = np.concatenate([w, w])
    order = np.lexsort((dst, src))
    src, dst, val = src[order], dst[order], val[order]
    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst, val


def ref_pagerank(graph, weighted, damping=0.85, tol=1e-10, max_iter=200):
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.float64)
    adjacency = graph.adjacency_matrix(weighted=weighted)
    out_weight = np.asarray(adjacency.sum(axis=1)).ravel()
    dangling = out_weight == 0
    inv_out = np.zeros(n, dtype=np.float64)
    inv_out[~dangling] = 1.0 / out_weight[~dangling]
    transition = adjacency.multiply(inv_out[:, None]).tocsr()
    restart = np.full(n, 1.0 / n, dtype=np.float64)
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    for _ in range(max_iter):
        dangling_mass = rank[dangling].sum()
        new_rank = (
            damping * (transition.T @ rank + dangling_mass * restart)
            + (1.0 - damping) * restart
        )
        err = np.abs(new_rank - rank).sum()
        rank = new_rank
        if err < tol:
            return rank / rank.sum()
    raise RuntimeError("did not converge")


def assert_same_bytes(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# --------------------------------------------------------------------- #
# Inputs: one drawn edge list in five orders
# --------------------------------------------------------------------- #
ORDERS = ("canonical", "shuffled", "reversed", "duplicates", "sorted_duplicates")


@st.composite
def weighted_edge_lists(draw):
    """``(n, edges, weights, order)``; weights >= 2 so s=2 graphs accept them."""
    n = draw(st.integers(2, 12))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=30,
        )
    )
    edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(
        draw(st.lists(st.integers(2, 9), min_size=len(pairs), max_size=len(pairs))),
        dtype=np.int64,
    )
    order = draw(st.sampled_from(ORDERS))
    if order == "canonical":
        edges, weights = ref_normalise_edges(edges, weights)
    elif order == "shuffled":
        perm = np.asarray(draw(st.permutations(range(len(pairs)))), dtype=np.int64)
        edges, weights = edges[perm], weights[perm]
    elif order == "reversed":
        edges, weights = ref_normalise_edges(edges, weights)
        edges, weights = edges[::-1, ::-1], weights[::-1]
    elif order == "duplicates" and len(pairs):
        extra = draw(st.lists(st.integers(0, len(pairs) - 1), min_size=1, max_size=5))
        edges = np.concatenate([edges, edges[extra][:, ::-1]])
        weights = np.concatenate([weights, weights[extra] + 1])
    elif order == "sorted_duplicates" and len(pairs):
        edges, weights = ref_normalise_edges(edges, weights)
        repeats = np.asarray(
            draw(st.lists(st.integers(1, 3), min_size=len(edges), max_size=len(edges)))
        )
        edges = np.repeat(edges, repeats, axis=0)
        weights = np.repeat(weights, repeats) + np.arange(repeats.sum()) % 3
    return n, edges, weights, order


class TestNormaliseEdges:
    @settings(max_examples=300, deadline=None)
    @given(weighted_edge_lists())
    def test_matches_full_sort(self, drawn):
        _, edges, weights, _ = drawn
        got_edges, got_weights = _normalise_edges(edges, weights)
        want_edges, want_weights = ref_normalise_edges(edges, weights)
        assert_same_bytes(got_edges, want_edges)
        assert_same_bytes(got_weights, want_weights)

    def test_canonical_input_is_not_aliased(self):
        edges = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
        weights = np.array([3, 4, 5], dtype=np.int64)
        got_edges, got_weights = _normalise_edges(edges, weights)
        assert not np.shares_memory(got_edges, edges)
        assert not np.shares_memory(got_weights, weights)


class TestSLineGraphConstruction:
    @settings(max_examples=200, deadline=None)
    @given(weighted_edge_lists(), st.data())
    def test_matches_full_sort(self, drawn, data):
        n, edges, weights, _ = drawn
        active = np.asarray(
            data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=np.int64
        )
        active_order = data.draw(st.sampled_from(("as drawn", "sorted", "unique")))
        if active_order == "sorted":
            active = np.sort(active)
        elif active_order == "unique":
            active = np.unique(active)
        graph = SLineGraph(
            s=2, edges=edges, weights=weights, num_hyperedges=n, active_vertices=active
        )
        want_edges, want_weights = ref_normalise_edges(edges, weights)
        assert_same_bytes(graph.edges, want_edges)
        assert_same_bytes(graph.weights, want_weights)
        assert_same_bytes(graph.active_vertices, np.unique(active))
        assert not np.shares_memory(graph.active_vertices, active)

    @settings(max_examples=200, deadline=None)
    @given(weighted_edge_lists(), st.booleans())
    def test_squeeze_output_is_already_canonical(self, drawn, include_isolated):
        n, edges, weights, _ = drawn
        graph = SLineGraph(
            s=2,
            edges=edges,
            weights=weights,
            num_hyperedges=n,
            active_vertices=np.arange(n, dtype=np.int64),
        )
        squeezed, mapping = graph.squeeze(include_isolated=include_isolated)
        lo, hi = squeezed.edges[:, 0], squeezed.edges[:, 1]
        assert np.all(lo < hi)
        assert np.all((lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1])))
        want_edges, want_weights = ref_normalise_edges(squeezed.edges, squeezed.weights)
        assert_same_bytes(squeezed.edges, want_edges)
        assert_same_bytes(squeezed.weights, want_weights)
        assert np.all(mapping.new_to_old[1:] > mapping.new_to_old[:-1])
        assert_same_bytes(mapping.new_to_old[squeezed.edges], graph.edges)


class TestGraphFromEdgeList:
    @settings(max_examples=300, deadline=None)
    @given(weighted_edge_lists(), st.booleans())
    def test_matches_full_sort(self, drawn, unit_weights):
        n, edges, weights, _ = drawn
        w = None if unit_weights else weights.astype(np.float64)
        graph = Graph.from_edge_list(n, edges, w)
        want = ref_graph_arrays(n, edges, np.ones(edges.shape[0]) if w is None else w)
        assert_same_bytes(graph.indptr, want[0])
        assert_same_bytes(graph.indices, want[1])
        assert_same_bytes(graph.weights, want[2])


class TestPagerank:
    @settings(max_examples=150, deadline=None)
    @given(weighted_edge_lists(), st.booleans())
    def test_matches_per_iteration_transpose(self, drawn, weighted):
        n, edges, weights, _ = drawn
        graph = Graph.from_edge_list(n, edges, weights.astype(np.float64))
        assert_same_bytes(pagerank(graph, weighted=weighted), ref_pagerank(graph, weighted))
