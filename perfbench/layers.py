"""Per-layer measurements shared by the workloads' traced runs.

Wire helpers map a :class:`~perfbench.stats.RequestClass` to the request
``ServiceClient`` sends; the replay times one class's round trip, client
rebuild, in-process execute, and frame encode/decode; the span helpers
turn recorded spans into the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from perfbench.report import Metric, WorkloadResult, ratio
from perfbench.spans import SpanRecorder
from perfbench.stats import RequestClass

#: Requests per class in the traced run's replays.
REPLAYS = 40
#: Replays of a cache-miss class (each opens a fresh read-only service).
FRESH_REPLAYS = 5


def wire_request(cls: RequestClass) -> Dict[str, object]:
    """The request frame ``ServiceClient`` sends for one class."""
    if cls.op == "metric":
        request: Dict[str, object] = {"op": "metric", "s": cls.s, "metric": cls.metric}
    elif cls.op == "sweep":
        request = {"op": "sweep", "metrics": [], "s_min": 1, "s_max": 8}
    else:
        return {"op": "components", "s": cls.s}
    if cls.protocol >= 2:
        request["columns"] = True
    return request


def issue(clients, cls: RequestClass):
    client = clients[cls.protocol]
    if cls.op == "metric":
        return client.metric(cls.s, cls.metric)
    if cls.op == "sweep":
        return client.sweep(s_min=1, s_max=8)
    return client.components(cls.s)


def replay_classes(deployment, classes, result: WorkloadResult) -> None:
    """Per class: the wire round trip and the client's rebuild over the
    socket, then the server side replayed in process."""
    result.spans.enabled = True
    try:
        for cls in classes:
            label = cls.label
            client = deployment.clients[cls.protocol]
            request = wire_request(cls)
            for _ in range(REPLAYS):
                with result.spans.span(f"transport.rtt.{label}"):
                    client.call(request)
            undo = result.spans.wrap(client, "call", "transport.rtt")
            for _ in range(REPLAYS):
                with result.spans.span(f"transport.client.{label}"):
                    issue(deployment.clients, cls)
            undo()
            short = layer_label(cls)
            result.per_layer[f"client.rebuild_ms.{short}"] = Metric(
                result.spans.median_ms(f"transport.client.{label}", self_time=True),
                "ms", REPLAYS, "client call minus its wire round trip",
            )
            rtt = result.spans.median_ms(f"transport.rtt.{label}")
            replay_in_process(deployment.store, cls, rtt, result, fresh=False)
    finally:
        result.spans.enabled = False


def replay_in_process(
    store, cls: RequestClass, rtt_ms: float, result: WorkloadResult, fresh: bool
) -> None:
    """``QueryService.execute`` on the same store (read-only), then the
    response's frame encode and decode; the residual is what the measured
    round trip ``rtt_ms`` spends outside those three.

    ``fresh`` opens a new service per replay so every execute is a cache
    miss (the invalidated reads of ``write_mix``); otherwise one warm-up
    execute precedes hits.
    """
    from repro import QueryService
    from repro.service.transport.framing import (
        DEFAULT_MAX_FRAME_BYTES as CAP,
        decode_binary_frame,
        decode_payload,
        encode_binary_frame,
        encode_frame,
    )

    enabled, result.spans.enabled = result.spans.enabled, True
    label = cls.label
    request = wire_request(cls)
    replays = FRESH_REPLAYS if fresh else REPLAYS
    sizes = []
    service = None
    try:
        for _ in range(replays):
            if service is None or fresh:
                if service is not None:
                    service.close()
                service = QueryService(store, read_only=True)
                if not fresh:
                    service.execute(request)  # the in-process cache's one miss
            with result.spans.span(f"service.execute.{label}"):
                response = service.execute(request)
            with result.spans.span(f"transport.encode.{label}"):
                if cls.protocol >= 2:
                    frame = encode_binary_frame(response, CAP)
                else:
                    frame = encode_frame(response, CAP)
            with result.spans.span(f"transport.decode.{label}"):
                if cls.protocol >= 2:
                    decode_binary_frame(frame[4:], CAP)
                else:
                    decode_payload(frame[4:])
            sizes.append(len(frame))
    finally:
        result.spans.enabled = enabled
        if service is not None:
            service.close()
    execute = result.spans.median_ms(f"service.execute.{label}")
    encode = result.spans.median_ms(f"transport.encode.{label}")
    decode = result.spans.median_ms(f"transport.decode.{label}")
    short = layer_label(cls)
    result.per_layer.update(
        {
            f"transport.rtt_ms.{short}": Metric(rtt_ms, "ms", replays, "median"),
            f"transport.encode_ms.{short}": Metric(encode, "ms", replays, "median"),
            f"transport.decode_ms.{short}": Metric(decode, "ms", replays, "median"),
            f"transport.response_bytes.{short}": Metric(
                float(statistics.median(sizes)), "bytes", replays
            ),
            f"transport.residual_ms.{short}": Metric(
                rtt_ms - execute - encode - decode, "ms", replays, "rtt - execute - encode - decode"
            ),
            f"service.execute_ms.{short}": Metric(execute, "ms", replays, "median, in process"),
            f"service.render_ms.{short}": Metric(
                result.spans.median_ms(f"service.execute.{label}", self_time=True),
                "ms", replays, "execute minus the engine call",
            ),
        }
    )


def layer_label(cls: RequestClass) -> str:
    """Short class label used in per-layer metric names (``v2_metric_s1``)."""
    if cls.op == "metric":
        return f"v{cls.protocol}_metric_s{cls.s}"
    return f"v{cls.protocol}_{cls.op}"


def engine_span_metrics(result: WorkloadResult, graph_metrics: Sequence[str]) -> None:
    """``engine.*`` medians, and ``graph.<metric>_s`` for each of the
    ``graph_metrics`` kernels the traced run reached."""

    def median(span: str, self_time: bool, scale: float = 1.0, unit: str = "ms") -> Metric:
        how = "median self time" if self_time else "median per call"
        value = result.spans.median_ms(span, self_time) * scale
        return Metric(value, unit, len(result.spans.by_name(span)), how)

    result.per_layer.update(
        {
            "engine.metric_ms": median("engine.metric", True),
            "engine.by_hyperedge_ms": median("engine.by_hyperedge", True),
            "engine.slice_ms": median("engine.slice", False),
            "engine.squeeze_ms": median("engine.squeeze", True),
        }
    )
    for name in graph_metrics:
        result.per_layer[f"graph.{name}_s"] = median(f"graph.{name}", False, 1e-3, "s")


def core_span_metrics(result: WorkloadResult) -> None:
    """``core.*`` from the overlap-index builds of the traced run."""
    builds = result.spans.by_name("core.index_build")
    build_s = sum(span.duration for span in builds)
    pairs = sum(p for p, _ in result.spans.indexes)
    index_bytes = sum(b for _, b in result.spans.indexes)
    n = len(builds)
    result.per_layer.update(
        {
            "core.index_build_s": Metric(build_s, "s", n, "sum over the traced run's builds"),
            "core.pairs": Metric(float(pairs), "count", n, "sum"),
            "core.pairs_per_s": Metric(ratio(pairs, build_s, "overlap-index build"), "1/s", n),
            "core.index_bytes": Metric(float(index_bytes), "bytes", n, "computed, sum"),
        }
    )


def span_rows(recorder: SpanRecorder) -> List[tuple]:
    """The traced run's self time: one row per layer (its total), then one
    per span kind in it, as ``(name, spans, self ms)``."""
    kinds: Dict[str, List[float]] = {}
    for span in recorder.spans:
        kind = ".".join(span.name.split(".")[:2])
        kinds.setdefault(kind, []).append(recorder.self_seconds(span))
    rows = []
    for layer, count, self_seconds in recorder.layer_table():
        rows.append((layer, count, self_seconds * 1000.0))
        for kind in sorted(k for k in kinds if k.split(".")[0] == layer):
            rows.append((f"  {kind}", len(kinds[kind]), sum(kinds[kind]) * 1000.0))
    return rows
