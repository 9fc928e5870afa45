"""Independent answers every served result is checked against.

* Served ``metric`` values must be byte-identical to the
  :class:`repro.SLinePipeline` oracle run on the same hypergraph (its
  Stage 3 uses the SpGEMM algorithm, not the hashmap index the service
  serves from).
* ``sweep`` edge counts must match ``s_line_graph(..., algorithm="spgemm")``.

All checks run outside the timed regions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

import numpy as np


def edge_lists(h) -> List[List[int]]:
    """The hypergraph's hyperedges as plain member lists (oracle rebuilds)."""
    return [h.edge_members(i).tolist() for i in range(h.num_edges)]


def pipeline_values(h, s: int, metric: str) -> Dict[int, float]:
    """The pipeline oracle: ``metric`` of ``L_s(h)`` keyed by hyperedge ID."""
    from repro import SLinePipeline

    pipeline = SLinePipeline(
        algorithm="spgemm",
        metrics=(metric,),
        drop_empty_edges=False,
        drop_isolated_vertices=False,
    )
    return pipeline.run(h, s).metric_by_hyperedge(metric)


def same_bytes(served: Mapping[int, float], expected: Mapping[int, float]) -> bool:
    """Identical ids and bit-identical float64 values, in id order."""
    keys = sorted(served)
    if keys != sorted(expected):
        return False
    ours = np.fromiter((served[k] for k in keys), dtype=np.float64, count=len(keys))
    theirs = np.fromiter((expected[k] for k in keys), dtype=np.float64, count=len(keys))
    return ours.tobytes() == theirs.tobytes()


def components_count(h, s: int) -> int:
    labels = pipeline_values(h, s, "connected_components")
    return int(max(labels.values())) + 1 if labels else 0


def sweep_counts(h, s_values: Iterable[int]) -> Tuple[Dict[int, int], Dict[int, int]]:
    """``(edge_counts, active_counts)`` of ``L_s`` from the SpGEMM algorithm."""
    from repro import s_line_graph

    edges: Dict[int, int] = {}
    active: Dict[int, int] = {}
    for s in s_values:
        graph = s_line_graph(h, s, algorithm="spgemm")
        edges[s] = int(graph.num_edges)
        active[s] = int(graph.num_active_vertices)
    return edges, active

