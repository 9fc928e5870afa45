"""Per-class latency samples and the percentiles the benchmark may report.

Two rules from the benchmark's design live here so the workloads cannot
break them by accident:

* a percentile is only reported when at least :data:`MIN_BEYOND` samples
  lie beyond it (the median needs 20 samples, p90 100, p99 1000), and it is
  always reported together with its sample count;
* samples are kept per request class, and a percentile is taken over one
  class only.  A pooled median can sit in the gap between two classes
  whose latencies differ, so :class:`ClassSamples` offers no pooled
  percentile.  Only a throughput spans classes: it is taken over chunks of
  consecutive requests (:meth:`ClassSamples.chunk_seconds`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence

#: A percentile needs at least this many samples strictly beyond it.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first (see :func:`tail_percentile`).
TAIL_QUANTILES = (0.999, 0.99, 0.95, 0.9, 0.75)


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


class NotMeasured(LookupError):
    """A metric had nothing to be taken over: no spans, or a zero count.

    A call the benchmark stopped reaching must fail the run, not read 0.
    """


@dataclass(frozen=True)
class Percentile:
    """A percentile value with the sample count it was taken over."""

    q: float
    value: float
    n: int

    @property
    def label(self) -> str:
        """``p50``, ``p99``, ``p99.9`` …"""
        text = f"{self.q * 100:.1f}".rstrip("0").rstrip(".")
        return f"p{text}"


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    return max(1, math.ceil(round(q * n, 9)))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` percentile."""
    return n - _rank(n, q)


def percentile(samples: Sequence[float], q: float) -> Percentile:
    """Nearest-rank percentile ``q`` (0 < q < 1) of one class's samples.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie beyond the requested rank.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile q must be in (0, 1), got {q!r}")
    n = len(samples)
    beyond = samples_beyond(n, q)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    ordered = sorted(samples)
    return Percentile(q=q, value=float(ordered[_rank(n, q) - 1]), n=n)


def tail_percentile(samples: Sequence[float]) -> Percentile:
    """The highest of :data:`TAIL_QUANTILES` the sample count supports."""
    for q in TAIL_QUANTILES:
        if samples_beyond(len(samples), q) >= MIN_BEYOND:
            return percentile(samples, q)
    raise TooFewSamples(
        f"{len(samples)} samples support no tail percentile "
        f"(p75 needs {4 * MIN_BEYOND})"
    )


class RequestClass(NamedTuple):
    """One request class: responses of one class have one size and path."""

    protocol: int
    op: str
    s: int = 0
    metric: str = ""

    @property
    def label(self) -> str:
        parts = [f"v{self.protocol}", self.op]
        if self.s:
            parts.append(f"s{self.s}")
        if self.metric:
            parts.append(self.metric)
        return "_".join(parts)


class ClassSamples:
    """Latency samples (seconds) kept apart per :class:`RequestClass`."""

    def __init__(self) -> None:
        self._samples: Dict[RequestClass, List[float]] = {}
        #: Every sample of every class, in recording order.
        self._in_order: List[float] = []

    def record(self, cls: RequestClass, seconds: float) -> None:
        if not isinstance(cls, RequestClass):
            raise TypeError(f"samples are recorded per RequestClass, got {cls!r}")
        self._samples.setdefault(cls, []).append(float(seconds))
        self._in_order.append(float(seconds))

    def total_count(self) -> int:
        return len(self._in_order)

    def chunk_seconds(self, size: int) -> List[float]:
        """Summed latency of each complete chunk of ``size`` consecutive
        samples, all classes together, in recording order."""
        whole = len(self._in_order) - len(self._in_order) % size
        return [sum(self._in_order[i : i + size]) for i in range(0, whole, size)]

    def samples(self, cls: RequestClass) -> List[float]:
        if not isinstance(cls, RequestClass):
            raise TypeError(
                "percentiles are taken over exactly one RequestClass; "
                f"got {cls!r}"
            )
        return list(self._samples.get(cls, ()))

    def percentile(self, cls: RequestClass, q: float) -> Percentile:
        return percentile(self.samples(cls), q)

    def tail(self, cls: RequestClass) -> Percentile:
        return tail_percentile(self.samples(cls))
