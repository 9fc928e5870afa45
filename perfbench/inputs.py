"""Seeded inputs: every hypergraph and request stream derives from ``--seed``.

The program under test only ever receives what these functions generate;
the same seed gives the same hypergraphs, request streams and adds.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Tuple

from perfbench.stats import RequestClass

#: Metric names the read workloads ask for (all cheap on a warm cache).
READ_METRICS = ("pagerank", "connected_components", "lpcc")

#: ``write_mix`` adds have 3..8 members, drawn from the base vertex range.
ADD_SIZES = (3, 8)


def sub_seed(seed: int, label: str) -> int:
    """A stable 32-bit seed for one named input of one benchmark seed."""
    digest = hashlib.sha256(f"{int(seed)}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def livejournal(seed: int, scale: float = 1.0):
    """The livejournal surrogate the serving workloads run on."""
    from repro import load_dataset

    return load_dataset("livejournal", scale, seed=sub_seed(seed, f"livejournal-x{scale}"))


def hot_requests() -> List[Tuple[str, int, str]]:
    """The ``hot_reads`` request kinds as ``(op, s, metric)``: ``metric`` at
    s = 1..4 for each of :data:`READ_METRICS`, ``components`` at s = 1..4
    and one ``sweep`` s = 1..8 (17 kinds)."""
    kinds = [("metric", s, metric) for s in (1, 2, 3, 4) for metric in READ_METRICS]
    kinds += [("components", s, "") for s in (1, 2, 3, 4)]
    kinds.append(("sweep", 0, ""))
    return kinds


def hot_stream(seed: int, length: int) -> List[RequestClass]:
    """The ``hot_reads`` request mix: one class per request, in order.

    Each request is one of :func:`hot_requests`, drawn uniformly (a
    synthetic mix, not measured traffic), and goes to the connection
    pinned to protocol 1 with probability 1/4.
    """
    rng = random.Random(sub_seed(seed, "hot-stream"))
    kinds = hot_requests()
    return [
        RequestClass(1 if rng.random() < 0.25 else 2, *rng.choice(kinds)) for _ in range(length)
    ]


def add_stream(seed: int, num_vertices: int, length: int) -> List[List[int]]:
    """Member lists of the ``write_mix`` adds (3..8 distinct base vertices)."""
    rng = random.Random(sub_seed(seed, "write-adds"))
    lo, hi = ADD_SIZES
    return [sorted(rng.sample(range(num_vertices), rng.randint(lo, hi))) for _ in range(length)]
