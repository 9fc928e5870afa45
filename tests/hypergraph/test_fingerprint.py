"""Tests for :meth:`Hypergraph.fingerprint` (the engine cache key)."""

import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hypergraph.builders import (
    hypergraph_from_edge_lists,
)
from repro.hypergraph.csr import CSRMatrix
from repro.hypergraph.hypergraph import Hypergraph

EDGE_LISTS = [[0, 1, 2], [1, 2, 3], [0, 1, 2, 3, 4], [4, 5]]


class TestFingerprintStability:
    def test_is_hex_sha256(self, paper_example_unlabelled):
        fp = paper_example_unlabelled.fingerprint()
        assert isinstance(fp, str)
        assert len(fp) == 64
        int(fp, 16)  # raises if not hex

    def test_memoised_and_deterministic(self, paper_example_unlabelled):
        first = paper_example_unlabelled.fingerprint()
        assert paper_example_unlabelled.fingerprint() is first
        rebuilt = hypergraph_from_edge_lists(EDGE_LISTS, num_vertices=6)
        assert rebuilt.fingerprint() == first

    def test_member_order_does_not_matter(self):
        a = hypergraph_from_edge_lists(EDGE_LISTS, num_vertices=6)
        shuffled = [list(reversed(members)) for members in EDGE_LISTS]
        b = hypergraph_from_edge_lists(shuffled, num_vertices=6)
        assert a.fingerprint() == b.fingerprint()

    def test_labels_do_not_matter(self, paper_example, paper_example_unlabelled):
        assert paper_example.fingerprint() == paper_example_unlabelled.fingerprint()

    def test_duplicate_members_collapse(self):
        a = hypergraph_from_edge_lists([[0, 1, 1, 2], [2, 3]], num_vertices=4)
        b = hypergraph_from_edge_lists([[0, 1, 2], [3, 2]], num_vertices=4)
        assert a.fingerprint() == b.fingerprint()

    def test_unsorted_direct_csr_matches_builder(self):
        # A CSR built by hand with unsorted rows hashes like the canonical one.
        direct = Hypergraph(
            edges=CSRMatrix(
                indptr=np.array([0, 3, 5]),
                indices=np.array([2, 0, 1, 3, 2]),
                num_cols=4,
            )
        )
        built = hypergraph_from_edge_lists([[0, 1, 2], [2, 3]], num_vertices=4)
        assert direct.fingerprint() == built.fingerprint()


class TestFingerprintSensitivity:
    def test_structure_changes_fingerprint(self):
        base = hypergraph_from_edge_lists(EDGE_LISTS, num_vertices=6)
        changed = hypergraph_from_edge_lists(
            [[0, 1, 2], [1, 2, 3], [0, 1, 2, 3, 5], [4, 5]], num_vertices=6
        )
        assert base.fingerprint() != changed.fingerprint()

    def test_edge_order_matters(self):
        # Hyperedge IDs are semantic (they are the s-line-graph vertex IDs).
        a = hypergraph_from_edge_lists([[0, 1], [2, 3]], num_vertices=4)
        b = hypergraph_from_edge_lists([[2, 3], [0, 1]], num_vertices=4)
        assert a.fingerprint() != b.fingerprint()

    def test_vertex_count_matters(self):
        a = hypergraph_from_edge_lists([[0, 1]], num_vertices=2)
        b = hypergraph_from_edge_lists([[0, 1]], num_vertices=3)
        assert a.fingerprint() != b.fingerprint()

    def test_empty_trailing_edge_matters(self):
        a = hypergraph_from_edge_lists([[0, 1]], num_vertices=2)
        b = hypergraph_from_edge_lists([[0, 1], []], num_vertices=2)
        assert a.fingerprint() != b.fingerprint()

    def test_dual_differs_for_asymmetric_shape(self, paper_example_unlabelled):
        h = paper_example_unlabelled
        assert h.fingerprint() != h.dual().fingerprint()


def lexsort_fingerprint(h: Hypergraph) -> str:
    """The digest formula as first written: always sort columns row-wise."""
    edges = h.edges_csr
    row_ids = np.repeat(np.arange(edges.num_rows, dtype=np.int64), edges.row_degrees())
    order = np.lexsort((edges.indices, row_ids))
    hasher = hashlib.sha256()
    hasher.update(np.int64(edges.num_rows).tobytes())
    hasher.update(np.int64(edges.num_cols).tobytes())
    hasher.update(np.ascontiguousarray(edges.indptr, dtype=np.int64).tobytes())
    hasher.update(np.ascontiguousarray(edges.indices[order], dtype=np.int64).tobytes())
    return hasher.hexdigest()


def direct_hypergraph(rows, num_cols: int) -> Hypergraph:
    """A hypergraph whose CSR rows keep the given member order (no sorting)."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.array([v for r in rows for v in r], dtype=np.int64)
    return Hypergraph(edges=CSRMatrix(indptr=indptr, indices=indices, num_cols=num_cols))


class TestFingerprintGoldenDigests:
    """Digests are persisted (manifests, WAL records): they must never drift."""

    def test_sorted_rows(self):
        h = hypergraph_from_edge_lists(EDGE_LISTS, num_vertices=6)
        assert h.fingerprint() == (
            "7434a26ffc73dbae3c4ee43c7fdc470277c9653a423ff491d10c8d97f42a5e43"
        )

    def test_row_listed_out_of_order(self):
        h = direct_hypergraph([[2, 0, 1], [3, 2], [1, 4]], num_cols=5)
        assert h.fingerprint() == (
            "c859d3d401bbde01f475241e5c2a8b54a24ee3ec36c6304e0bd00db362bbfba4"
        )

    def test_empty_rows(self):
        h = hypergraph_from_edge_lists([[], [0, 2], [], [1, 2, 3], []], num_vertices=4)
        assert h.fingerprint() == (
            "b19903be3ac5251343878573fc781a7f5537c1b9835c0be9d276a0eaa9230f96"
        )

    def test_zero_edges(self):
        h = hypergraph_from_edge_lists([], num_vertices=3)
        assert h.fingerprint() == (
            "aca765751b95f6a2dedfbdc5e28bd861ff2f2c7343f2582fb587cad4e8d48d03"
        )


@st.composite
def member_rows(draw):
    """Rows over a small vertex set: empty, repeated and unsorted members."""
    num_cols = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.integers(0, num_cols - 1), max_size=7), max_size=10))
    return rows, num_cols


class TestFingerprintMatchesLexsortFormula:
    @settings(max_examples=200, deadline=None)
    @given(member_rows(), st.randoms(use_true_random=False))
    def test_shuffled_rows(self, drawn, rnd):
        rows, num_cols = drawn
        shuffled = [rnd.sample(r, len(r)) for r in rows]
        h = direct_hypergraph(shuffled, num_cols)
        assert h.fingerprint() == lexsort_fingerprint(h)
        ascending = direct_hypergraph([sorted(r) for r in rows], num_cols)
        assert ascending.fingerprint() == lexsort_fingerprint(ascending)
        assert ascending.fingerprint() == h.fingerprint()

    def test_descent_across_an_empty_row_is_not_a_descent(self):
        h = direct_hypergraph([[5, 6], [], [1, 2], [0]], num_cols=7)
        assert h.fingerprint() == lexsort_fingerprint(h)
        built = hypergraph_from_edge_lists([[5, 6], [], [1, 2], [0]], num_vertices=7)
        assert h.fingerprint() == built.fingerprint()
