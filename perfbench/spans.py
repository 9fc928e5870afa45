"""In-memory spans around the calls the benchmark makes into each layer.

The traced run wraps public functions of the program (from this file, not
inside the program) so that every call records a span: name, start, end,
parent and request id.  Spans stay in memory and are written out as JSON
lines when the run ends.  A layer's *self time* is its spans' durations
minus the part covered by their child spans.

The layer of a span is the first component of its name (``engine.metric``
belongs to ``engine``), so the names double as the per-layer table's rows.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from perfbench.stats import NotMeasured

#: The layers of the stack, bottom-up, named after the program's modules.
LAYERS = ("core", "engine", "graph", "store", "service", "transport", "replication")


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: int
    children: List[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanRecorder:
    """Collects spans while enabled; a disabled recorder costs one branch."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._request_id = 0
        #: ``(pairs, bytes)`` of every overlap index built while enabled.
        self.indexes: List[Tuple[int, int]] = []

    def next_request(self) -> int:
        """Start a new request id; spans opened afterwards carry it."""
        self._request_id += 1
        return self._request_id

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(
            span_id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=None if parent is None else parent.span_id,
            request_id=self._request_id,
        )
        self.spans.append(record)
        if parent is not None:
            parent.children.append(record.span_id)
        self._stack.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def spanned(self, func: Callable, name: str, observe: Optional[Callable] = None) -> Callable:
        """``func`` wrapped so every call records a span called ``name``
        (and, while enabled, hands its return value to ``observe``)."""
        recorder = self

        def wrapper(*args, **kwargs):
            with recorder.span(name):
                value = func(*args, **kwargs)
            if observe is not None and recorder.enabled:
                observe(value)
            return value

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    def wrap(
        self, owner: object, attr: str, name: str, observe: Optional[Callable] = None
    ) -> Callable[[], None]:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a
        spanned wrapper; returns the function that undoes the patch."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.spanned(original, name, observe)
            return lambda: owner.__setitem__(attr, original)
        raw = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.spanned(raw.__func__, name, observe)))
        elif isinstance(owner, type):
            setattr(owner, attr, self.spanned(raw, name, observe))
        else:
            setattr(owner, attr, self.spanned(getattr(owner, attr), name, observe))

        def undo() -> None:
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

        return undo

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def self_seconds(self, span: Span) -> float:
        """Duration minus the union of the child spans' intervals."""
        intervals = sorted(
            (self.spans[c].start, self.spans[c].end) for c in span.children
        )
        covered = 0.0
        cursor = span.start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return max(0.0, span.duration - covered)

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def median_ms(self, name: str, self_time: bool = False) -> float:
        """Median (self) duration in ms of the spans called ``name``."""
        spans = self.by_name(name)
        if not spans:
            raise NotMeasured(f"no {name} span was recorded")
        values = [self.self_seconds(s) if self_time else s.duration for s in spans]
        return statistics.median(values) * 1000.0

    def child_median_ms(self, parent_name: str, child_name: str) -> float:
        """Median duration in ms of ``child_name`` spans under ``parent_name`` spans."""
        values = [
            self.spans[c].duration
            for span in self.by_name(parent_name)
            for c in span.children
            if self.spans[c].name == child_name
        ]
        if not values:
            raise NotMeasured(f"no {child_name} span was recorded under {parent_name}")
        return statistics.median(values) * 1000.0

    def layer_table(self) -> List[Tuple[str, int, float]]:
        """``(layer, spans, self seconds)`` per layer, in :data:`LAYERS` order."""
        totals: Dict[str, List[float]] = {}
        for span in self.spans:
            totals.setdefault(span.layer, []).append(self.self_seconds(span))
        order = list(LAYERS) + sorted(set(totals) - set(LAYERS))
        return [
            (layer, len(totals.get(layer, ())), sum(totals.get(layer, ())))
            for layer in order
        ]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request_id": span.request_id,
                        }
                    )
                    + "\n"
                )


def instrument_program(recorder: SpanRecorder) -> Callable[[], None]:
    """Span the public calls of the in-process layers; returns the undo.

    ``core``: the overlap-index build.  ``engine``: metric lookups, the
    hyperedge re-keying, squeezing and threshold slices of both index
    kinds.  ``graph``: every ``METRIC_FUNCTIONS`` kernel.  ``store``: the
    snapshot build.  Server-side layers of the socket workloads are
    reached by replaying requests in process (see the workloads).
    """
    from repro.core.pipeline import METRIC_FUNCTIONS
    from repro.engine import OverlapIndex, QueryEngine
    from repro.store import IndexStore, ShardedIndex

    undo = [
        recorder.wrap(
            OverlapIndex,
            "build",
            "core.index_build",
            observe=lambda index: recorder.indexes.append((index.num_pairs, index.nbytes())),
        ),
        recorder.wrap(IndexStore, "build", "store.build"),
        recorder.wrap(QueryEngine, "metric", "engine.metric"),
        recorder.wrap(QueryEngine, "metric_by_hyperedge", "engine.by_hyperedge"),
        recorder.wrap(QueryEngine, "squeezed_graph", "engine.squeeze"),
        recorder.wrap(OverlapIndex, "line_graph", "engine.slice"),
        recorder.wrap(ShardedIndex, "line_graph", "engine.slice"),
    ]
    undo += [recorder.wrap(METRIC_FUNCTIONS, name, f"graph.{name}") for name in METRIC_FUNCTIONS]

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore
