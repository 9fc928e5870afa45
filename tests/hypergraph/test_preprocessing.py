"""Unit tests for Stage-1 preprocessing and Stage-4 ID squeezing."""

import numpy as np
import pytest

from repro.hypergraph.builders import hypergraph_from_edge_lists
from repro.hypergraph.preprocessing import (
    preprocess,
    relabel_edges_by_degree,
    remove_empty_edges,
    remove_isolated_vertices,
    squeeze_ids,
)
from repro.utils.validation import ValidationError


class TestRemoveEmptyEdges:
    def test_removes_and_reports(self):
        h = hypergraph_from_edge_lists([[0, 1], [], [1, 2]], num_vertices=3)
        out, kept = remove_empty_edges(h)
        assert out.num_edges == 2
        assert kept.tolist() == [0, 2]
        assert out.edge_members(1).tolist() == [1, 2]

    def test_noop_when_clean(self, paper_example):
        out, kept = remove_empty_edges(paper_example)
        assert out is paper_example
        assert kept.tolist() == [0, 1, 2, 3]

    def test_labels_follow(self):
        from repro.hypergraph.builders import hypergraph_from_edge_dict

        h = hypergraph_from_edge_dict({"a": ["x"], "b": [], "c": ["y"]})
        out, _ = remove_empty_edges(h)
        assert out.edge_names == ["a", "c"]


class TestRemoveIsolatedVertices:
    def test_removes_and_remaps(self):
        h = hypergraph_from_edge_lists([[0, 3]], num_vertices=5)
        out, kept = remove_isolated_vertices(h)
        assert out.num_vertices == 2
        assert kept.tolist() == [0, 3]
        assert out.edge_members(0).tolist() == [0, 1]

    def test_noop_when_clean(self, paper_example):
        out, kept = remove_isolated_vertices(paper_example)
        assert out is paper_example
        assert kept.size == 6


class TestRelabelByDegree:
    def test_ascending(self, paper_example):
        result = relabel_edges_by_degree(paper_example, "ascending")
        sizes = result.hypergraph.edge_sizes()
        assert sizes.tolist() == sorted(sizes.tolist())
        # Edge sizes are [3,3,5,2]; ascending puts original edge 3 (size 2) first.
        assert result.new_to_old.tolist() == [3, 0, 1, 2]
        assert result.map_edge_to_original(0) == 3

    def test_descending(self, paper_example):
        result = relabel_edges_by_degree(paper_example, "descending")
        sizes = result.hypergraph.edge_sizes()
        assert sizes.tolist() == sorted(sizes.tolist(), reverse=True)

    def test_none_is_identity(self, paper_example):
        result = relabel_edges_by_degree(paper_example, "none")
        assert result.hypergraph is paper_example
        assert result.new_to_old.tolist() == [0, 1, 2, 3]

    def test_inverse_permutation(self, community_hypergraph):
        result = relabel_edges_by_degree(community_hypergraph, "ascending")
        n = community_hypergraph.num_edges
        assert result.old_to_new[result.new_to_old].tolist() == list(range(n))

    def test_membership_preserved(self, paper_example):
        result = relabel_edges_by_degree(paper_example, "descending")
        for new_id in range(paper_example.num_edges):
            old_id = int(result.new_to_old[new_id])
            assert (
                result.hypergraph.edge_members(new_id).tolist()
                == paper_example.edge_members(old_id).tolist()
            )

    def test_labels_follow(self, paper_example):
        result = relabel_edges_by_degree(paper_example, "ascending")
        assert result.hypergraph.edge_names == [4, 1, 2, 3]

    def test_invalid_order(self, paper_example):
        with pytest.raises(ValidationError):
            relabel_edges_by_degree(paper_example, "sideways")


class TestSqueezeIds:
    def test_basic(self):
        result = squeeze_ids([10, 3, 10, 7])
        assert result.new_to_old.tolist() == [3, 7, 10]
        assert result.to_squeezed(10) == 2
        assert result.to_original(0) == 3
        assert result.num_ids == 3

    def test_missing_id_raises(self):
        result = squeeze_ids([5])
        with pytest.raises(KeyError):
            result.to_squeezed(6)

    def test_dropped_id_raises(self):
        result = squeeze_ids([3, 7, 10])
        for dropped in (0, 2, 4, 8, 9, 11):
            with pytest.raises(KeyError) as info:
                result.to_squeezed(dropped)
            assert info.value.args == (dropped,)
        assert [result.to_squeezed(v) for v in (3, 7, 10)] == [0, 1, 2]

    def test_empty_pool_maps_nothing(self):
        result = squeeze_ids(np.empty(0, dtype=np.int64))
        assert result.num_ids == 0
        assert result.new_to_old.dtype == np.int64
        with pytest.raises(KeyError):
            result.to_squeezed(0)

    def test_already_contiguous(self):
        result = squeeze_ids([0, 1, 2])
        assert result.new_to_old.tolist() == [0, 1, 2]

    def test_2d_input_flattened(self):
        result = squeeze_ids(np.array([[4, 2], [2, 9]]))
        assert result.new_to_old.tolist() == [2, 4, 9]


class TestPreprocess:
    def test_full_pipeline(self):
        h = hypergraph_from_edge_lists([[0, 1], [], [1, 4]], num_vertices=6)
        result = preprocess(h, relabel="ascending")
        assert result.removed_empty_edges == 1
        assert result.removed_isolated_vertices == 3
        assert result.hypergraph.num_edges == 2
        assert result.hypergraph.num_vertices == 3
        assert result.relabel is not None

    def test_no_relabel(self, paper_example):
        result = preprocess(paper_example, relabel="none")
        assert result.relabel is None
        assert result.hypergraph == paper_example

    def test_keep_degenerates_if_requested(self):
        h = hypergraph_from_edge_lists([[0], []], num_vertices=3)
        result = preprocess(
            h, drop_empty_edges=False, drop_isolated_vertices=False
        )
        assert result.hypergraph.num_edges == 2
        assert result.hypergraph.num_vertices == 3
