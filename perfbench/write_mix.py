"""``write_mix``: durable adds, invalidated reads and replica catch-up.

Set-up generates the livejournal surrogate (x1.0), builds its store, starts
``repro serve --listen --compact-after N`` in a subprocess and bootstraps a
``RemoteReadReplica`` in the benchmark process over its own connection.
The closed loop makes rounds of :data:`ROUND_ADDS` durable adds
(``wait=True``, 3..8 seeded members).  Each add is followed by a
``metric`` s=2 read, which the add invalidated, and an s=10 read, which
stays cached.  After a round's last ack the replica syncs and answers the
s=2 read; that interval is the catch-up time.  The loop keeps the
admission batch size at 1, so a group-commit change shows no change here.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List

from perfbench import inputs, oracle
from perfbench.env import scrape_text, start_server, vm_hwm_mb, workdir
from perfbench.layers import (
    core_span_metrics,
    engine_span_metrics,
    replay_in_process,
    span_rows,
)
from perfbench.report import Metric, WorkloadResult, from_percentile, gated, median_setup, ratio
from perfbench.spans import instrument_program
from perfbench.stats import ClassSamples, NotMeasured, RequestClass, percentile

ACK = RequestClass(2, "add")
MISS = RequestClass(2, "metric", 2, "pagerank")
CACHED = RequestClass(2, "metric", 10, "pagerank")
CATCHUP = RequestClass(2, "replica_catchup")
ROUND_ADDS = 6
#: Samples one round records: each add's ack and two reads, and one catch-up.
ROUND_SAMPLES = 3 * ROUND_ADDS + 1
#: ``--compact-after``: WAL records that trigger a background compaction.
COMPACT_AFTER = 12
#: Rounds per deployment per second of ``--seconds``: the work of a run is
#: fixed by the window, not by the machine's speed, so every run of a seed
#: makes the same adds and crosses the same compactions.
ROUNDS_PER_SECOND = 2.1
#: At least this many rounds per deployment (7 rounds of 6 adds cross 3
#: compactions, and 3 or more deployments give >= 100 acks and >= 20 catch-ups);
#: a deployment keeps going until it has also crossed this many compactions.
MIN_ROUNDS = 7
MIN_COMPACTIONS = 3
SETUPS = 5
ADD_STREAM_LENGTH = 20_000

#: Per-layer metrics of what this workload does not do: it reads no s=1
#: metric, so neither the s=1 wire classes nor the components kernels run.
BYPASSED_LAYER_METRICS = frozenset(
    [
        f"{layer}.{cls}"
        for cls in ("v2_metric_s1", "v1_metric_s1")
        for layer in (
            "transport.rtt_ms", "transport.encode_ms", "transport.decode_ms",
            "transport.response_bytes", "transport.residual_ms", "client.rebuild_ms",
            "service.execute_ms", "service.render_ms",
        )
    ]
    + ["graph.connected_components_s", "graph.lpcc_s"]
)


class Deployment:
    """A writer server with background compaction plus a remote replica; a
    context manager that closes all three on exit."""

    def __init__(self, seed: int, scratch) -> None:
        from repro import IndexStore
        from repro.service.remote import RemoteReadReplica
        from repro.service.transport import ServiceClient

        self.server = self.client = self.replica = None
        try:
            self.h = inputs.livejournal(seed)
            self.store = scratch / "store"
            IndexStore.build(self.h, self.store)
            self.server, port = start_server(self.store, ["--compact-after", str(COMPACT_AFTER)])
            self.client = ServiceClient("127.0.0.1", port, timeout=60.0).connect()
            # Syncs happen only when the loop asks, never on a query's poll.
            self.replica = RemoteReadReplica(
                "127.0.0.1", port, store_path=scratch / "replica", poll_interval=3600.0
            )
            self.cached_reference = self.client.metric(CACHED.s, CACHED.metric)
            self.base_reference = self.client.metric(MISS.s, MISS.metric)
            self.replica.metric_by_hyperedge(MISS.s, MISS.metric)
        except BaseException:
            self.close()
            raise

    def compactions(self) -> int:
        return int(self.client.stats().get("compactions", 0))

    def close(self) -> None:
        if self.replica is not None:
            self.replica.close()
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.close()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def oracle_states(seed: int, dep: Deployment) -> "OracleStates":
    adds = inputs.add_stream(seed, dep.h.num_vertices, ADD_STREAM_LENGTH)
    return OracleStates(dep.h, adds)


class OracleStates:
    """The pipeline oracle's s=2 values after the first k seeded adds."""

    def __init__(self, h, adds: List[List[int]]) -> None:
        self.h = h
        self.adds = adds
        self._base = oracle.edge_lists(h)
        self._values: Dict[int, Dict[int, float]] = {}

    def hypergraph(self, k: int):
        from repro import hypergraph_from_edge_lists

        edges = self._base + self.adds[:k]
        return hypergraph_from_edge_lists(edges, num_vertices=self.h.num_vertices)

    def values(self, k: int) -> Dict[int, float]:
        if k not in self._values:
            self._values[k] = oracle.pipeline_values(self.hypergraph(k), MISS.s, MISS.metric)
        return self._values[k]


class Ledger:
    """What the loop observed: acked adds in ack order and the s=2 answers."""

    def __init__(self) -> None:
        self.acked: List[List[int]] = []
        #: ``answers[k]``: the writer's s=2 values after ``acked[: k + 1]``.
        self.answers: List[Dict[int, float]] = []
        self.sync_reports: List[object] = []
        self.sync_seconds: List[float] = []
        self.first_read_seconds: List[float] = []


def rounds_for(seconds: float, deployments: int) -> int:
    return max(MIN_ROUNDS, math.ceil(seconds * ROUNDS_PER_SECOND / deployments))


def run_loop(
    dep: Deployment, adds, ledger: Ledger, rounds: int, result, samples: ClassSamples
) -> None:
    """``rounds`` closed-loop rounds of adds, each add followed by its two
    reads; more rounds if the deployment has crossed too few compactions
    once its background compaction has had time to finish."""
    from repro.service.transport import TransportError

    base_edges = dep.h.num_edges
    done = 0
    while done < rounds or not compacted(dep):
        done += 1
        for slot in range(ROUND_ADDS):
            members = adds[len(ledger.acked)]
            result.spans.next_request()
            result.attempted += 3
            try:
                t0 = time.perf_counter()
                with result.spans.span("transport.client.v2_add"):
                    edge_id = dep.client.add(members, wait=True)
                acked_at = time.perf_counter()
                samples.record(ACK, acked_at - t0)
                ledger.acked.append(members)
                expected_id = base_edges + len(ledger.acked) - 1
                if edge_id != expected_id:
                    result.fail(f"add acked as edge {edge_id}, expected {expected_id}")
                replica_answer = None
                if slot == ROUND_ADDS - 1:
                    replica_answer = catch_up(dep, ledger, samples, acked_at, result)
                t0 = time.perf_counter()
                with result.spans.span("transport.client.v2_metric_s2"):
                    answer = dep.client.metric(MISS.s, MISS.metric)
                samples.record(MISS, time.perf_counter() - t0)
                ledger.answers.append(answer)
                t0 = time.perf_counter()
                with result.spans.span("transport.client.v2_metric_s10"):
                    cached = dep.client.metric(CACHED.s, CACHED.metric)
                samples.record(CACHED, time.perf_counter() - t0)
            except (TransportError, OSError) as exc:
                result.fail(f"write round: {type(exc).__name__}: {exc}")
                return
            if cached != dep.cached_reference:
                result.fail("s=10 answer changed although no add can reach L_10")
            if replica_answer is not None and replica_answer != answer:
                added = len(ledger.acked)
                result.fail(f"replica s=2 answer differs from the writer after add {added}")


def catch_up(dep: Deployment, ledger: Ledger, samples, acked_at: float, result):
    """Sync the replica and read s=2 from it; the catch-up clock starts at the ack."""
    result.attempted += 1
    with result.spans.span("replication.sync"):
        t0 = time.perf_counter()
        report = dep.replica.sync()
        t1 = time.perf_counter()
    with result.spans.span("replication.first_read"):
        answer = dep.replica.metric_by_hyperedge(MISS.s, MISS.metric)
    done = time.perf_counter()
    samples.record(CATCHUP, done - acked_at)
    if report is None:
        result.fail("replica saw no change after an acked round")
    else:
        ledger.sync_reports.append(report)
    ledger.sync_seconds.append(t1 - t0)
    ledger.first_read_seconds.append(done - t1)
    return answer


def compacted(dep: Deployment, patience: float = 5.0) -> bool:
    """Whether the server has crossed :data:`MIN_COMPACTIONS`, waiting up
    to ``patience`` seconds for one still running in the background."""
    deadline = time.monotonic() + patience
    while dep.compactions() < MIN_COMPACTIONS:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def check_states(
    dep: Deployment, ledger: Ledger, states: OracleStates, result: WorkloadResult
) -> str:
    """Every distinct s=2 answer against the oracle rebuilt from the base
    hypergraph plus the acked adds in ack order; then writer, replica and
    oracle agree on the final fingerprint.  Returns that fingerprint."""
    result.attempted += 2
    if not oracle.same_bytes(dep.base_reference, states.values(0)):
        result.fail("base s=2 answer differs from the pipeline oracle")
    cached_oracle = oracle.pipeline_values(dep.h, CACHED.s, CACHED.metric)
    if not oracle.same_bytes(dep.cached_reference, cached_oracle):
        result.fail("s=10 answer differs from the pipeline oracle")
    acked = len(ledger.acked)
    if ledger.acked != states.adds[:acked]:
        result.fail("the acked adds are not the seeded adds in order")
        return ""
    for k, answer in enumerate(ledger.answers, start=1):
        if not oracle.same_bytes(answer, states.values(k)):
            result.fail(f"s=2 answer after add {k} differs from the pipeline oracle")
    result.attempted += 1
    dep.replica.sync()
    writer_fp = dep.client.fingerprint()
    if not writer_fp == dep.replica.fingerprint() == states.hypergraph(acked).fingerprint():
        result.fail("writer, replica and oracle disagree on the final fingerprint")
    replica_cached = dep.replica.metric_by_hyperedge(CACHED.s, CACHED.metric)
    if not oracle.same_bytes(replica_cached, dep.cached_reference):
        result.fail("replica s=10 answer differs from the writer")
    return writer_fp


def server_counters(dep: Deployment) -> Dict[str, float]:
    return scrape_text(dep.client.metrics_text())


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    result = WorkloadResult("write_mix")
    undo = instrument_program(result.spans) if trace else None
    try:
        with workdir("write_mix") as scratch:
            (traced_run if trace else timed_run)(seed, seconds, scratch, result)
    finally:
        result.spans.enabled = False
        if undo is not None:
            undo()
    return result


def describe(dep: Deployment, ledger: "Ledger", fingerprint: str, result: WorkloadResult) -> None:
    result.sizes.append(
        f"livejournal x1.0: |E|={dep.h.num_edges} |V|={dep.h.num_vertices} "
        f"pairs={int(overlap_pairs(dep))} L_2 vertices={len(dep.base_reference)}"
    )
    result.sizes.append(
        f"{len(ledger.acked)} acked adds in rounds of {ROUND_ADDS}, "
        f"{dep.compactions()} compactions (--compact-after {COMPACT_AFTER}), "
        f"final fingerprint {fingerprint[:12]}"
    )


def timed_run(seed, seconds, scratch, result: WorkloadResult) -> None:
    """:data:`SETUPS` identical deployments, each replaying the seeded adds
    from the base store for a share of the window."""
    samples = ClassSamples()
    setup_times: List[float] = []
    peaks: List[float] = []
    states = None
    for index in range(SETUPS):
        t0 = time.perf_counter()
        with Deployment(seed, scratch / f"setup{index}") as dep:
            setup_times.append(time.perf_counter() - t0)
            if states is None:
                states = oracle_states(seed, dep)
            ledger = Ledger()
            run_loop(dep, states.adds, ledger, rounds_for(seconds, SETUPS), result, samples)
            peaks.append(vm_hwm_mb(dep.server.proc.pid))
            fingerprint = check_states(dep, ledger, states, result)
            if index == 0:
                describe(dep, ledger, fingerprint, result)
    result.named = {
        "setup_s": median_setup(setup_times),
        "peak_rss_mb": Metric(max(peaks), "MB", SETUPS, "server VmHWM, max over set-ups"),
        **e2e(samples),
    }
    result.end_to_end = gated(
        result.named,
        primary_ms="ack_p50_ms",
        secondary_ms="miss_p50_ms",
        throughput_per_s="adds_per_s",
    )


def traced_run(seed, seconds, scratch, result: WorkloadResult) -> None:
    """One deployment: half the window untraced, half traced, then replays."""
    result.spans.enabled = True
    with Deployment(seed, scratch / "traced") as dep:
        result.spans.enabled = False
        states = oracle_states(seed, dep)
        ledger = Ledger()
        counters_before = server_counters(dep)
        engine_before = dep.client.stats()["engine"]
        untraced = ClassSamples()
        run_loop(dep, states.adds, ledger, rounds_for(seconds / 2, 1), result, untraced)
        undo_call = result.spans.wrap(dep.client, "call", "transport.rtt")
        result.spans.enabled = True
        traced = ClassSamples()
        run_loop(dep, states.adds, ledger, rounds_for(seconds / 2, 1), result, traced)
        result.spans.enabled = False
        undo_call()
        per_layer(dep, ledger, result, counters_before, engine_before)
        describe(dep, ledger, check_states(dep, ledger, states, result), result)
    untraced_ack = untraced.percentile(ACK, 0.5)
    traced_ack = traced.percentile(ACK, 0.5)
    result.per_layer["tracing.overhead_pct"] = Metric(
        (traced_ack.value / untraced_ack.value - 1.0) * 100.0,
        "%", traced_ack.n, "traced vs untraced ack p50",
    )


def overlap_pairs(dep: Deployment) -> int:
    from repro import s_line_graph

    return s_line_graph(dep.h, 1, algorithm="spgemm").num_edges


def e2e(samples: ClassSamples) -> Dict[str, Metric]:
    rate = percentile([ROUND_ADDS / s for s in samples.chunk_seconds(ROUND_SAMPLES)], 0.5)
    return {
        "ack_p50_ms": from_percentile(samples.percentile(ACK, 0.5)),
        "ack_p90_ms": from_percentile(samples.percentile(ACK, 0.9)),
        "miss_p50_ms": from_percentile(samples.percentile(MISS, 0.5)),
        "miss_p90_ms": from_percentile(samples.percentile(MISS, 0.9)),
        "cached_p50_ms": from_percentile(samples.percentile(CACHED, 0.5)),
        "catchup_p50_ms": from_percentile(samples.percentile(CATCHUP, 0.5)),
        "adds_per_s": Metric(
            rate.value, "1/s", rate.n, "median over rounds of acked adds / time in adds, "
            "reads and catch-up",
        ),
    }


# --------------------------------------------------------------------- #
# Traced run: per-layer numbers
# --------------------------------------------------------------------- #
def per_layer(
    dep: Deployment, ledger: Ledger, result: WorkloadResult, before, engine_before
) -> None:
    from repro.chaos.harness import metric_value

    after = server_counters(dep)
    engine_after = dep.client.stats()["engine"]

    def delta(name: str) -> float:
        values = [metric_value(scraped, name) for scraped in (after, before)]
        if None in values:
            raise NotMeasured(f"the server exports no {name}")
        return values[0] - values[1]

    acks = len(ledger.acked)
    batches = delta("repro_admission_batch_size_count")
    compactions = delta("repro_compactions_total")
    result.per_layer.update(
        {
            "store.wal_fsyncs_per_ack": Metric(
                ratio(delta("repro_wal_fsyncs_total"), acks, "ack"), "ratio", acks
            ),
            "store.wal_bytes_per_add": Metric(
                ratio(delta("repro_wal_appended_bytes_total"), acks, "ack"), "bytes", acks
            ),
            "service.admission_batch_mean": Metric(
                ratio(delta("repro_admission_batch_size_sum"), batches, "admission batch"),
                "count",
                int(batches),
            ),
            "service.compactions": Metric(compactions, "count", int(compactions)),
            "service.compaction_s": Metric(
                ratio(delta("repro_compaction_seconds_sum"), compactions, "compaction"),
                "s", int(compactions), "mean per compaction",
            ),
            "service.compaction_folded_bytes": Metric(
                ratio(delta("repro_compaction_folded_bytes_total"), compactions, "compaction"),
                "bytes", int(compactions), "mean per compaction",
            ),
        }
    )
    reports = ledger.sync_reports
    if not reports:
        raise NotMeasured("the replica never synced")
    fetched = sum(r.fetched_files for r in reports)
    reused = sum(r.reused_files for r in reports)
    syncs = len(reports)
    result.per_layer.update(
        {
            "replication.sync_ms": Metric(
                statistics.median(ledger.sync_seconds) * 1000.0, "ms", syncs, "median"
            ),
            "replication.fetched_bytes_per_sync": Metric(
                ratio(sum(r.fetched_bytes for r in reports), syncs, "sync"), "bytes", syncs, "mean"
            ),
            "replication.reused_ratio": Metric(
                ratio(reused, fetched + reused, "snapshot file transfer"),
                "ratio", fetched + reused, "reused / (fetched + reused) snapshot files",
            ),
            "replication.wal_records_per_sync": Metric(
                ratio(sum(r.wal_records for r in reports), syncs, "sync"), "count", syncs, "mean"
            ),
            "replication.full_syncs": Metric(
                float(sum(1 for r in reports if r.full_sync)), "count", syncs
            ),
            "replica.first_read_ms": Metric(
                statistics.median(ledger.first_read_seconds) * 1000.0, "ms", syncs, "median"
            ),
        }
    )

    def engine_delta(key: str) -> int:
        return int(engine_after[key]) - int(engine_before[key])

    hits, misses = engine_delta("cache_hits"), engine_delta("cache_misses")
    retained, invalidated = engine_delta("retained_entries"), engine_delta("invalidated_entries")
    result.per_layer["engine.cache_hit_ratio"] = Metric(
        ratio(hits, hits + misses, "engine lookup"), "ratio", hits + misses, "stats op deltas"
    )
    result.per_layer["engine.retained_ratio"] = Metric(
        ratio(retained, retained + invalidated, "cache migration"),
        "ratio", retained + invalidated, "stats op deltas",
    )
    add_rtt = result.spans.child_median_ms("transport.client.v2_add", "transport.rtt")
    result.per_layer["transport.rtt_ms.v2_add"] = Metric(add_rtt, "ms", acks, "median")
    miss_rtt = result.spans.child_median_ms("transport.client.v2_metric_s2", "transport.rtt")
    replay_in_process(dep.store, MISS, miss_rtt, result, fresh=True)
    result.per_layer["client.rebuild_ms.v2_metric_s2"] = Metric(
        result.spans.median_ms("transport.client.v2_metric_s2", self_time=True), "ms", acks,
        "client call minus its wire round trip",
    )
    engine_span_metrics(result, (MISS.metric,))
    core_span_metrics(result)
    result.layer_rows = span_rows(result.spans)
