"""What a workload hands back, and how the run prints it.

``BENCHMARK.json`` (next to ``perfbench/``) is the one list of metric names
and units: the result line carries exactly its ``end_to_end`` metrics
(``--trace 0``) or its ``per_layer`` metrics (``--trace 1``), and a
workload that leaves one out is a benchmark bug, not a zero.  The one
exception is a per-layer metric of a layer the workload declares it
bypasses (:func:`declare_bypassed`).
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import Dict, List

from perfbench.env import ROOT
from perfbench.spans import SpanRecorder
from perfbench.stats import NotMeasured, Percentile


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    #: Samples behind the value (requests, repetitions, spans…).
    n: int = 1
    #: How it was taken, e.g. ``p50`` or ``median of 5 set-ups``.
    how: str = ""


def from_percentile(p: Percentile) -> Metric:
    """A latency percentile (seconds) as a metric in ms."""
    return Metric(p.value * 1000.0, "ms", p.n, p.label)


def gated(named: Dict[str, Metric], **sources: str) -> Dict[str, Metric]:
    """The ``end_to_end`` metrics: set-up, memory, and each role's source."""
    out = {"setup_s": named["setup_s"], "peak_rss_mb": named["peak_rss_mb"]}
    for role, source in sources.items():
        metric = named[source]
        out[role] = Metric(metric.value, metric.unit, metric.n, f"= {source} ({metric.how})")
    return out


def ratio(numerator: float, denominator: float, what: str) -> float:
    """``numerator / denominator``; a zero denominator means ``what`` did
    not happen, which fails the run instead of reading 0."""
    if not denominator:
        raise NotMeasured(f"no {what} happened")
    return numerator / denominator


def median_setup(seconds: List[float]) -> Metric:
    n = len(seconds)
    return Metric(statistics.median(seconds), "s", n, f"median of {n} set-ups")


@dataclass
class WorkloadResult:
    workload: str
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    #: The gated metrics, by their BENCHMARK.json names.
    end_to_end: Dict[str, Metric] = field(default_factory=dict)
    #: The workload's own named metrics (printed, not gated).
    named: Dict[str, Metric] = field(default_factory=dict)
    per_layer: Dict[str, Metric] = field(default_factory=dict)
    #: ``(span name, spans, self ms)`` rows of the traced run.
    layer_rows: List[tuple] = field(default_factory=list)
    sizes: List[str] = field(default_factory=list)
    #: The traced run's spans (disabled, and so empty, in untraced runs).
    spans: SpanRecorder = field(default_factory=SpanRecorder)

    def fail(self, message: str) -> None:
        """Record an oracle mismatch (counts as a failed operation)."""
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def catalogue() -> Dict[str, List[dict]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def declare_bypassed(result: "WorkloadResult", names) -> None:
    """Report 0 for the per-layer metrics of layers the workload bypasses.

    Only these may read 0 without measurement; every other catalogued
    metric the traced run left out fails the run in :func:`result_line`.
    """
    units = {entry["name"]: entry["unit"] for entry in catalogue()["per_layer"]}
    for name in sorted(names):
        if name not in units:
            result.fail(f"benchmark bug: bypassed metric {name} is not in BENCHMARK.json")
        elif name in result.per_layer:
            result.fail(f"benchmark bug: {name} is declared bypassed but was measured")
        else:
            result.per_layer[name] = Metric(0.0, units[name], 0, "layer bypassed")


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.4g}"


def _print_metrics(metrics: Dict[str, Metric]) -> None:
    for name, m in metrics.items():
        print(f"  {name:<42} {_fmt(m.value):>12} {m.unit:<6} n={m.n:<6} {m.how}")


def print_report(
    result: WorkloadResult, fingerprint: Dict[str, str], trace: bool, seed: int
) -> None:
    print(f"# perfbench {result.workload} seed={seed} trace={int(trace)}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in fingerprint.items()))
    for line in result.sizes:
        print(f"# input: {line}")
    section = result.per_layer if trace else result.end_to_end
    title = "per-layer" if trace else "end-to-end"
    print(f"# {title} metrics")
    _print_metrics(section)
    if not trace and result.named:
        print("# workload metrics (the gated ones above are drawn from these)")
        _print_metrics(result.named)
    if trace and result.layer_rows:
        print("# per-layer self time of the traced run (span, spans, self ms)")
        for name, count, self_ms in result.layer_rows:
            print(f"  {name:<42} {count:>8} {self_ms:>12.3f}")
    fail_ratio = result.failed / result.attempted if result.attempted else 1.0
    print(f"# fail_ratio {fail_ratio:.6f} ({result.failed} of {result.attempted} ops failed)")
    for message in result.mismatches:
        print(f"# MISMATCH {message}")


def result_line(result: WorkloadResult, trace: bool) -> str:
    """The last stdout line; a catalogued metric left out fails the run."""
    wanted = catalogue()["per_layer" if trace else "end_to_end"]
    section = result.per_layer if trace else result.end_to_end
    metrics: Dict[str, dict] = {}
    for entry in wanted:
        metric = section.get(entry["name"])
        if metric is None:
            result.fail(f"benchmark bug: metric {entry['name']} was not measured")
            continue
        metrics[entry["name"]] = {"value": metric.value, "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": int(result.attempted),
            "failed": int(result.failed),
            "metrics": metrics,
        }
    )
