"""A compact undirected weighted graph in CSR form.

The s-line graphs produced by the framework are ordinary undirected graphs;
this class stores them as a symmetric CSR adjacency (both directions of each
edge are stored) over ``numpy`` arrays, which is what the BFS/centrality/
PageRank kernels in this subpackage traverse.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.utils.validation import ValidationError, check_array_int


def pairs_ascend(lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether the pairs ``(lo, hi)`` ascend strictly, ordered by lo, then hi.

    Such a list is its own lexsort and holds no duplicate, so the sorting
    and deduplication of an edge list can be skipped.
    """
    lo_step = lo[1:] - lo[:-1]
    return bool(np.all((lo_step > 0) | ((lo_step == 0) & (hi[1:] > hi[:-1]))))


class Graph:
    """An undirected, optionally weighted graph stored as symmetric CSR.

    Parameters
    ----------
    num_vertices:
        Number of vertices (IDs ``0..num_vertices-1``).
    indptr, indices:
        CSR adjacency arrays storing *both* directions of every edge.
    weights:
        Optional per-stored-entry weights aligned with ``indices``.
    """

    __slots__ = ("num_vertices", "indptr", "indices", "weights", "metadata")

    def __init__(
        self,
        num_vertices: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        if num_vertices < 0:
            raise ValidationError("num_vertices must be non-negative")
        self.num_vertices = int(num_vertices)
        self.indptr = check_array_int(indptr, "indptr")
        self.indices = check_array_int(indices, "indices")
        if self.indptr.size != self.num_vertices + 1:
            raise ValidationError("indptr must have length num_vertices + 1")
        if int(self.indptr[-1]) != self.indices.size:
            raise ValidationError("indptr[-1] must equal len(indices)")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.num_vertices
        ):
            raise ValidationError("neighbour indices out of range")
        if weights is None:
            self.weights = np.ones(self.indices.size, dtype=np.float64)
        else:
            self.weights = np.asarray(weights, dtype=np.float64)
            if self.weights.shape != self.indices.shape:
                raise ValidationError("weights must align with indices")
        self.metadata: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edge_list(
        cls,
        num_vertices: int,
        edges: np.ndarray | Sequence[Tuple[int, int]],
        weights: Optional[np.ndarray | Sequence[float]] = None,
    ) -> "Graph":
        """Build from an undirected edge list ``(k, 2)`` (duplicates collapsed).

        Each input edge is stored in both directions.  Self-loops are
        rejected — s-line graphs never contain them.
        """
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if weights is None:
            w = np.ones(arr.shape[0], dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.size != arr.shape[0]:
                raise ValidationError("weights length must equal the number of edges")
        if arr.size and np.any(arr[:, 0] == arr[:, 1]):
            raise ValidationError("self-loops are not supported")
        if arr.size and (arr.min() < 0 or arr.max() >= num_vertices):
            raise ValidationError("edge endpoint out of range")
        if arr.shape[0] == 0:
            return cls(
                num_vertices,
                np.zeros(num_vertices + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        # Canonicalise to (lo, hi) pairs, ascending and deduplicated.
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        if not pairs_ascend(lo, hi):
            order = np.lexsort((hi, lo))
            lo, hi, w = lo[order], hi[order], w[order]
            keep = np.ones(lo.size, dtype=bool)
            keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
            lo, hi, w = lo[keep], hi[keep], w[keep]
        # Row v of the symmetric CSR is {lo : hi == v} (all below v), then
        # {hi : lo == v} (all above v).  Listing the reversed half first, a
        # stable counting sort by source (scipy's COO->CSR) leaves every row
        # ascending, with no second comparison sort.
        adjacency = sparse.csr_matrix(
            (np.concatenate([w, w]), (np.concatenate([hi, lo]), np.concatenate([lo, hi]))),
            shape=(num_vertices, num_vertices),
        )
        return cls(
            num_vertices,
            adjacency.indptr.astype(np.int64),
            adjacency.indices.astype(np.int64),
            adjacency.data,
        )

    @classmethod
    def from_scipy(cls, adjacency: sparse.spmatrix) -> "Graph":
        """Build from a symmetric scipy adjacency matrix (diagonal dropped)."""
        adj = sparse.csr_matrix(adjacency)
        if adj.shape[0] != adj.shape[1]:
            raise ValidationError("adjacency matrix must be square")
        adj = adj.tolil()
        adj.setdiag(0)
        adj = adj.tocsr()
        adj.eliminate_zeros()
        adj.sort_indices()
        return cls(
            num_vertices=adj.shape[0],
            indptr=adj.indptr.astype(np.int64),
            indices=adj.indices.astype(np.int64),
            weights=adj.data.astype(np.float64),
        )

    # ------------------------------------------------------------------ #
    # Shape / access
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size // 2)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour IDs of vertex ``v``."""
        if v < 0 or v >= self.num_vertices:
            raise IndexError(f"vertex {v} out of range")
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors`."""
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Number of neighbours of ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        """Degree of every vertex."""
        return np.diff(self.indptr)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, weight)`` with ``u < v``."""
        for u in range(self.num_vertices):
            for idx in range(self.indptr[u], self.indptr[u + 1]):
                v = int(self.indices[idx])
                if u < v:
                    yield u, v, float(self.weights[idx])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``{u, v}`` is present."""
        return bool(np.isin(v, self.neighbors(u)).item())

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self, weighted: bool = True) -> sparse.csr_matrix:
        """The symmetric adjacency matrix as scipy CSR."""
        data = self.weights if weighted else np.ones(self.indices.size, dtype=np.float64)
        return sparse.csr_matrix(
            (data, self.indices.copy(), self.indptr.copy()),
            shape=(self.num_vertices, self.num_vertices),
        )

    def subgraph(self, vertex_ids: Sequence[int] | np.ndarray) -> Tuple["Graph", np.ndarray]:
        """Induced subgraph; returns ``(graph, kept_vertex_ids)`` with compact IDs."""
        keep = np.unique(np.asarray(vertex_ids, dtype=np.int64))
        if keep.size and (keep.min() < 0 or keep.max() >= self.num_vertices):
            raise ValidationError("vertex id out of range")
        lookup = np.full(self.num_vertices, -1, dtype=np.int64)
        lookup[keep] = np.arange(keep.size, dtype=np.int64)
        edges = []
        weights = []
        for u, v, w in self.edges():
            if lookup[u] >= 0 and lookup[v] >= 0:
                edges.append((lookup[u], lookup[v]))
                weights.append(w)
        sub = Graph.from_edge_list(
            keep.size,
            np.asarray(edges, dtype=np.int64).reshape(-1, 2),
            np.asarray(weights, dtype=np.float64),
        )
        return sub, keep

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(num_vertices={self.num_vertices}, num_edges={self.num_edges})"
