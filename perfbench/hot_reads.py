"""``hot_reads``: cache-hit reads over the socket from a writer server.

Set-up generates the livejournal surrogate (x1.0), builds its store,
starts ``repro serve --listen`` in a subprocess with default flags and
warms every request class once.  The timed loop is closed: one benchmark
thread, one request in flight, two connections (the default v2 one and
one pinned to ``protocol_max=1`` that carries 1 request in 4).  Every
answer is a cache hit, so response size drives the time: render, encode
and decode, not the engine.
"""

from __future__ import annotations

import time
from typing import Dict, List

from perfbench import inputs, oracle
from perfbench.env import start_server, vm_hwm_mb, workdir
from perfbench.layers import (
    core_span_metrics,
    engine_span_metrics,
    issue,
    replay_classes,
    span_rows,
    wire_request,
)
from perfbench.report import Metric, WorkloadResult, from_percentile, gated, median_setup, ratio
from perfbench.spans import instrument_program
from perfbench.stats import ClassSamples, RequestClass, percentile

#: The headline class: a v2 cache-hit ``metric`` at s=1.
HIT = RequestClass(2, "metric", 1, "pagerank")
#: The same request on the connection pinned to protocol 1.
HIT_V1 = RequestClass(1, "metric", 1, "pagerank")
SWEEP = RequestClass(2, "sweep")
SETUPS = 5
STREAM_LENGTH = 200_000
#: ``hot_qps`` is the median rate over chunks of this many consecutive
#: requests (five of each request kind on average), so a slow stretch of the
#: machine shorter than half the window does not move it.
CHUNK = 85

#: Per-layer metrics of what this workload does not do: no writes (so no
#: WAL, admission, compaction, invalidation or replica), and no s=2 misses.
BYPASSED_LAYER_METRICS = frozenset(
    [
        "engine.retained_ratio",
        "store.wal_fsyncs_per_ack",
        "store.wal_bytes_per_add",
        "service.admission_batch_mean",
        "service.compactions",
        "service.compaction_s",
        "service.compaction_folded_bytes",
        "replication.sync_ms",
        "replication.fetched_bytes_per_sync",
        "replication.reused_ratio",
        "replication.wal_records_per_sync",
        "replication.full_syncs",
        "replica.first_read_ms",
        "transport.rtt_ms.v2_add",
    ]
    + [
        f"{layer}.v2_metric_s2"
        for layer in (
            "transport.rtt_ms", "transport.encode_ms", "transport.decode_ms",
            "transport.response_bytes", "transport.residual_ms", "client.rebuild_ms",
            "service.execute_ms", "service.render_ms",
        )
    ]
)


def all_classes() -> List[RequestClass]:
    """Every request of the mix, on both connections."""
    return [RequestClass(protocol, *kind) for protocol in (2, 1) for kind in inputs.hot_requests()]


class Deployment:
    """One generated store behind one server process, warmed; a context
    manager that stops the server and closes the clients on exit."""

    def __init__(self, seed: int, scratch) -> None:
        from repro import IndexStore
        from repro.service.transport import ServiceClient

        self.server = None
        self.clients = {}
        try:
            self.h = inputs.livejournal(seed)
            self.store = scratch / "store"
            IndexStore.build(self.h, self.store)
            self.server, port = start_server(self.store)
            self.clients[2] = ServiceClient("127.0.0.1", port, timeout=60.0).connect()
            self.clients[1] = ServiceClient(
                "127.0.0.1", port, timeout=60.0, protocol_max=1
            ).connect()
            self.reference = {cls: issue(self.clients, cls) for cls in all_classes()}
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for client in self.clients.values():
            client.close()
        if self.server is not None:
            self.server.close()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def check_references(h, reference, result: WorkloadResult) -> None:
    """Every distinct answer against the pipeline / SpGEMM oracles."""
    expected_values = {}
    edge_counts, active_counts = oracle.sweep_counts(h, range(1, 9))
    for cls, answer in reference.items():
        result.attempted += 1
        if cls.op == "metric":
            key = (cls.s, cls.metric)
            if key not in expected_values:
                expected_values[key] = oracle.pipeline_values(h, cls.s, cls.metric)
            if not oracle.same_bytes(answer, expected_values[key]):
                result.fail(f"{cls.label}: served values differ from the pipeline oracle")
        elif cls.op == "sweep":
            if answer != {"edge_counts": edge_counts, "active_counts": active_counts}:
                result.fail(f"{cls.label}: sweep counts differ from SpGEMM")
        elif answer != oracle.components_count(h, cls.s):
            result.fail(f"{cls.label}: component count differs from the oracle")


def run_loop(
    dep: Deployment, stream, position: int, seconds: float, result, samples: ClassSamples
) -> int:
    """The closed loop over the stream from ``position``; returns the next position."""
    from repro.service.transport import TransportError

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        cls = stream[position % len(stream)]
        position += 1
        result.spans.next_request()
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            with result.spans.span("transport.client"):
                answer = issue(dep.clients, cls)
        except (TransportError, OSError) as exc:
            result.fail(f"{cls.label}: {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - t0
        if answer == dep.reference[cls]:
            samples.record(cls, elapsed)
        else:
            result.fail(f"{cls.label}: answer changed between identical requests")
    return position


def e2e(samples: ClassSamples) -> Dict[str, Metric]:
    qps = percentile([CHUNK / s for s in samples.chunk_seconds(CHUNK)], 0.5)
    return {
        "hit_p50_ms": from_percentile(samples.percentile(HIT, 0.5)),
        "hit_tail_ms": from_percentile(samples.tail(HIT)),
        "v1_hit_p50_ms": from_percentile(samples.percentile(HIT_V1, 0.5)),
        "sweep_p50_ms": from_percentile(samples.percentile(SWEEP, 0.5)),
        "hot_qps": Metric(
            qps.value, "1/s", qps.n, f"median over chunks of {CHUNK} requests / busy time"
        ),
    }


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    result = WorkloadResult("hot_reads")
    stream = inputs.hot_stream(seed, STREAM_LENGTH)
    undo = instrument_program(result.spans) if trace else None
    try:
        with workdir("hot_reads") as scratch:
            (traced_run if trace else timed_run)(seed, seconds, stream, scratch, result)
    finally:
        result.spans.enabled = False
        if undo is not None:
            undo()
    return result


def describe(dep: Deployment, result: WorkloadResult) -> None:
    """Check the warm-up answers against the oracles and record the sizes."""
    check_references(dep.h, dep.reference, result)
    result.sizes.append(
        f"livejournal x1.0: |E|={dep.h.num_edges} |V|={dep.h.num_vertices} "
        f"pairs={edge_pairs(dep)} L_1 vertices={len(dep.reference[HIT])}"
    )


def timed_run(seed, seconds, stream, scratch, result: WorkloadResult) -> None:
    """:data:`SETUPS` identical deployments, each measured for a share of
    the window, so the window samples more of the machine's slow drift."""
    samples = ClassSamples()
    setup_times: List[float] = []
    peaks: List[float] = []
    position = 0
    first = None
    for index in range(SETUPS):
        t0 = time.perf_counter()
        with Deployment(seed, scratch / f"setup{index}") as dep:
            setup_times.append(time.perf_counter() - t0)
            if first is None:
                first = dep.reference
                describe(dep, result)
            elif dep.reference != first:
                result.fail("a redeployment of the same seed served different answers")
            position = run_loop(dep, stream, position, seconds / SETUPS, result, samples)
            peaks.append(vm_hwm_mb(dep.server.proc.pid))
    result.named = {
        "setup_s": median_setup(setup_times),
        "peak_rss_mb": Metric(max(peaks), "MB", SETUPS, "server VmHWM, max over set-ups"),
        **e2e(samples),
    }
    result.end_to_end = gated(
        result.named,
        primary_ms="hit_p50_ms",
        secondary_ms="v1_hit_p50_ms",
        throughput_per_s="hot_qps",
    )


def traced_run(seed, seconds, stream, scratch, result: WorkloadResult) -> None:
    """One deployment: half the window untraced, half traced, then replays."""
    result.spans.enabled = True
    with Deployment(seed, scratch / "traced") as dep:
        result.spans.enabled = False
        describe(dep, result)
        before = dep.clients[2].stats()["engine"]
        untraced = ClassSamples()
        position = run_loop(dep, stream, 0, seconds / 2, result, untraced)
        undo = [
            result.spans.wrap(client, "call", "transport.rtt")
            for client in dep.clients.values()
        ]
        result.spans.enabled = True
        traced = ClassSamples()
        run_loop(dep, stream, position, seconds / 2, result, traced)
        result.spans.enabled = False
        for step in undo:
            step()
        after = dep.clients[2].stats()["engine"]
        per_layer(dep, result, before, after)
    untraced_p50 = untraced.percentile(HIT, 0.5)
    traced_p50 = traced.percentile(HIT, 0.5)
    result.per_layer["tracing.overhead_pct"] = Metric(
        (traced_p50.value / untraced_p50.value - 1.0) * 100.0,
        "%", traced_p50.n, "traced vs untraced hit p50",
    )


def edge_pairs(dep: Deployment) -> int:
    sweep = dep.reference[SWEEP]
    return int(sweep["edge_counts"][1])


def replay_misses(deployment: Deployment, result: WorkloadResult) -> None:
    """The mix's other s=1 metrics once, cold, in process: the graph
    kernels the set-up warm-up ran on the server."""
    from repro import QueryService

    result.spans.enabled = True
    try:
        with QueryService(deployment.store, read_only=True) as service:
            for metric in inputs.READ_METRICS[1:]:
                service.execute(wire_request(RequestClass(2, "metric", 1, metric)))
    finally:
        result.spans.enabled = False


def per_layer(deployment: Deployment, result: WorkloadResult, before, after) -> None:
    replay_classes(deployment, (HIT, HIT_V1), result)
    replay_misses(deployment, result)
    engine_span_metrics(result, inputs.READ_METRICS)
    core_span_metrics(result)
    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    result.per_layer["engine.cache_hit_ratio"] = Metric(
        ratio(hits, hits + misses, "engine lookup"), "ratio", hits + misses, "stats op deltas"
    )
    result.layer_rows = span_rows(result.spans)


