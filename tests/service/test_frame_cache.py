"""Cache-hit ``metric`` reads served as frames encoded once.

The socket server hands :meth:`QueryService.execute` its connection's
frame encoding; the service keeps the encoded ``metric`` frame in the
engine's LRU next to the metric it encodes.  These tests pin that a hit
frame is byte-for-byte what a fresh execute-and-encode would send, that
updates, compactions and replica syncs reach the frames, and that the
frame cap and the cache counters behave as they did before frames were
cached.
"""

import socket
import sys
import threading

import pytest

from repro.chaos import failpoints as fp
from repro.core.pipeline import SLinePipeline
from repro.obs import MetricsRegistry, use_registry
from repro.service import QueryService, ServiceClient, SocketServer
from repro.service.transport.framing import (
    BINARY_FLAG,
    DEFAULT_MAX_FRAME_BYTES,
    E_BAD_FRAME,
    LENGTH_PREFIX,
    PROTOCOL_VERSION,
    encode_binary_frame,
    encode_frame,
    recv_exact,
    recv_frame,
    send_frame,
)
from repro.store.store import IndexStore

#: (offered protocols, offered codecs, columns) per wire encoding.
ENCODINGS = {
    "v1": ([1], [], False),
    "v2": ([1, 2], [], True),
    "v2+zlib": ([1, 2], ["zlib"], True),
}


@pytest.fixture
def store_path(community_hypergraph, tmp_path):
    IndexStore.build(community_hypergraph, tmp_path / "idx", num_shards=4)
    return str(tmp_path / "idx")


@pytest.fixture
def writer(store_path):
    with QueryService(store_path, max_batch=16) as service:
        yield service


@pytest.fixture
def server(writer):
    with SocketServer(writer, port=0) as srv:
        yield srv


def raw_connection(address, protocols, compression):
    """A handshaken socket that reads frames as raw bytes."""
    sock = socket.create_connection(address)
    send_frame(
        sock,
        {
            "op": "hello",
            "protocol": PROTOCOL_VERSION,
            "protocols": protocols,
            "compression": compression,
        },
    )
    hello = recv_frame(sock)
    assert hello["ok"]
    return sock, hello.get("negotiated", 1), hello.get("compression")


def raw_roundtrip(sock, request):
    """Send ``request`` and return the whole response frame, prefix included."""
    send_frame(sock, request)
    prefix = recv_exact(sock, LENGTH_PREFIX.size, at_boundary=True)
    (length,) = LENGTH_PREFIX.unpack(prefix)
    return prefix + recv_exact(sock, length & ~BINARY_FLAG, at_boundary=False)


def fresh_frame(store_path, request, proto, codec):
    """Encode a fresh execute of ``request`` on a new read-only service."""
    with QueryService(store_path, read_only=True) as service:
        response = service.execute(request)
    assert response["ok"]
    if proto >= 2 and request.get("columns"):
        return encode_binary_frame(response, DEFAULT_MAX_FRAME_BYTES, codec=codec)
    return encode_frame(response, DEFAULT_MAX_FRAME_BYTES)


def metric_request(s, metric="pagerank", columns=True):
    request = {"op": "metric", "s": s, "metric": metric}
    if columns:
        request["columns"] = True
    return request


def oracle(h, s, metric="pagerank"):
    pipeline = SLinePipeline(
        metrics=(metric,), drop_empty_edges=False, drop_isolated_vertices=False
    )
    return pipeline.run(h, s).metric_by_hyperedge(metric)


def engine_counts(service):
    stats = service.engine.stats()
    return stats.cache_hits, stats.cache_misses


class TestHitFrames:
    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_hit_frame_is_byte_identical_to_a_fresh_encode(self, server, store_path, encoding):
        protocols, compression, columns = ENCODINGS[encoding]
        sock, proto, codec = raw_connection(server.address, protocols, compression)
        with sock:
            request = metric_request(2, columns=columns)
            miss = raw_roundtrip(sock, request)
            hit = raw_roundtrip(sock, request)
        assert proto == max(protocols)
        assert codec == (compression[0] if compression else None)
        assert miss == hit == fresh_frame(store_path, request, proto, codec)

    def test_columns_come_in_ascending_edge_order(self, server):
        with ServiceClient(*server.address) as client:
            response = client.request(metric_request(1))
        edge_ids = response["edge_ids"].tolist()
        assert edge_ids and edge_ids == sorted(set(edge_ids))

    def test_frame_lookups_count_in_the_engine_counters(self, server, writer):
        with ServiceClient(*server.address) as client:
            client.metric(2, "pagerank")
            hits, misses = engine_counts(writer)
            assert misses >= 1
            client.metric(2, "pagerank")
            # A hit is exactly one lookup: the frame's.
            assert engine_counts(writer) == (hits + 1, misses)

    def test_each_encoding_has_its_own_frame(self, server, writer):
        with ServiceClient(*server.address) as v2:
            with ServiceClient(*server.address, protocol_max=1) as v1:
                assert v1.metric(3, "pagerank") == v2.metric(3, "pagerank")
                hits, misses = engine_counts(writer)
                v1.metric(3, "pagerank")
                v2.metric(3, "pagerank")
                assert engine_counts(writer) == (hits + 2, misses)


class TestInvalidation:
    def test_compaction_serves_the_new_generation(self, server, writer, store_path):
        writer.submit_add([0, 1, 2, 3])
        writer.flush()
        with ServiceClient(*server.address) as client:
            before = client.request(metric_request(2))
            client.request(metric_request(2))  # served from the cached frame
            assert writer.compact()
            after = client.request(metric_request(2))
        assert before["generation"] == 0
        assert after["generation"] == writer.generation == 1
        assert after["values"].tolist() == before["values"].tolist()
        sock, proto, codec = raw_connection(server.address, [1, 2], [])
        with sock:
            frame = raw_roundtrip(sock, metric_request(2))
        assert frame == fresh_frame(store_path, metric_request(2), proto, codec)

    def test_add_recomputes_frames_at_or_below_its_size_only(self, server, writer):
        members = [0, 1, 2]
        s_values = range(1, 7)
        with ServiceClient(*server.address) as client:
            for s in s_values:
                client.metric(s, "pagerank")
            retained = writer.engine.stats().retained_entries
            client.add(members, wait=True)
            assert writer.engine.stats().retained_entries > retained
            h = writer.engine.hypergraph
            for s in s_values:
                hits, misses = engine_counts(writer)
                assert client.metric(s, "pagerank") == oracle(h, s), s
                if s <= len(members):
                    assert engine_counts(writer)[1] > misses, s
                else:
                    # The frame survived the add, re-keyed to the new
                    # fingerprint: one lookup, one hit.
                    assert engine_counts(writer) == (hits + 1, misses), s

    def test_a_replica_serves_new_values_after_it_syncs(self, server, writer, tmp_path):
        with QueryService(
            str(tmp_path / "mirror"),
            read_only=True,
            remote_source=server.address,
        ) as replica:
            with SocketServer(replica, port=0) as replica_server:
                with ServiceClient(*replica_server.address) as client:
                    stale = client.metric(2, "pagerank")
                    assert client.metric(2, "pagerank") == stale
                    writer.submit_add([3, 4, 5, 6])
                    writer.flush()
                    replica.replica.sync()
                    fresh = client.metric(2, "pagerank")
        h = writer.engine.hypergraph
        assert fresh == oracle(h, 2)
        assert fresh != stale


class TestConcurrentReaders:
    def test_readers_only_move_forward_through_committed_states(self, server, writer):
        """Reader threads on both protocols hammer one cached metric while
        the writer adds and compacts.  Each reader's answers are oracles of
        committed states, never older than one it already saw: a frame
        built from one state but keyed by a newer one would go back."""
        valid = [oracle(writer.engine.hypergraph, 2)]
        stop = threading.Event()
        errors = []
        seen = {label: [] for label in range(4)}

        def reader(label):
            try:
                with ServiceClient(*server.address, protocol_max=1 + label % 2) as client:
                    while not stop.is_set():
                        seen[label].append(client.metric(2, "pagerank"))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(label,), daemon=True) for label in seen
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            with ServiceClient(*server.address) as client:
                for step in range(12):
                    client.add([step, step + 20, step + 40], wait=True)
                    valid.append(oracle(writer.engine.hypergraph, 2))
                    if step == 5:
                        assert writer.compact()
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        for answers in seen.values():
            states = [valid.index(answer) for answer in answers]  # ValueError: uncommitted
            assert states and states == sorted(states)
        for protocol_max in (1, 2):
            with ServiceClient(*server.address, protocol_max=protocol_max) as client:
                assert client.metric(2, "pagerank") == valid[-1]


class TestFrameCap:
    def test_an_oversized_response_is_answered_bad_frame_and_not_cached(self, writer):
        with SocketServer(writer, port=0, max_frame_bytes=2048) as small:
            with ServiceClient(*small.address) as client:
                for _ in range(2):
                    _, misses = engine_counts(writer)
                    response = client.call(metric_request(1))
                    assert response["ok"] is False
                    assert response["code"] == E_BAD_FRAME
                    # Still a miss the second time: nothing was cached.
                    assert engine_counts(writer)[1] > misses
                # Pairing survives: the connection answers the next request.
                assert client.components(2) >= 1

    def test_the_cap_is_checked_on_cache_hits(self, writer):
        with SocketServer(writer, port=0) as large:
            with ServiceClient(*large.address) as client:
                client.metric(1, "pagerank")  # caches the frame
        with SocketServer(writer, port=0, max_frame_bytes=2048) as small:
            with ServiceClient(*small.address) as client:
                hits, misses = engine_counts(writer)
                response = client.call(metric_request(1))
                assert engine_counts(writer) == (hits + 1, misses)
        assert response["ok"] is False
        assert response["code"] == E_BAD_FRAME


class TestRequestLatency:
    @pytest.fixture(autouse=True)
    def clean_failpoints(self):
        fp.reset()
        yield
        fp.reset()

    def test_histogram_covers_the_send(self, store_path):
        with use_registry(MetricsRegistry()) as registry:
            with QueryService(store_path) as svc, SocketServer(svc) as server:
                with ServiceClient(*server.address) as client:
                    client.metric(2, "pagerank")
                    fp.activate("transport.send", "delay", value=300, count=1)
                    client.metric(2, "pagerank")
                    # Served after the delayed request's observation.
                    client.stats()
            samples = registry.snapshot()["repro_request_seconds"]["values"]
        metric = next(v for v in samples if v["labels"] == {"op": "metric"})
        assert metric["count"] == 2
        assert metric["sum"] >= 0.3
