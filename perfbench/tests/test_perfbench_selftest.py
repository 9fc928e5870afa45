"""Self-tests of the benchmark's own machinery (not of the program).

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import hot_reads, inputs, write_mix  # noqa: E402
from perfbench.env import scrape_text  # noqa: E402
from perfbench.report import (  # noqa: E402
    Metric,
    WorkloadResult,
    catalogue,
    declare_bypassed,
    ratio,
    result_line,
)
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.stats import (  # noqa: E402
    MIN_BEYOND,
    ClassSamples,
    NotMeasured,
    RequestClass,
    TooFewSamples,
    percentile,
    tail_percentile,
)


class TestSeededInputs:
    def test_same_seed_same_hypergraph(self):
        assert inputs.livejournal(7).fingerprint() == inputs.livejournal(7).fingerprint()

    def test_other_seed_other_hypergraph(self):
        assert inputs.livejournal(7).fingerprint() != inputs.livejournal(8).fingerprint()

    def test_same_seed_same_request_stream(self):
        assert inputs.hot_stream(3, 500) == inputs.hot_stream(3, 500)
        assert inputs.hot_stream(3, 500) != inputs.hot_stream(4, 500)

    def test_same_seed_same_adds(self):
        assert inputs.add_stream(3, 3200, 200) == inputs.add_stream(3, 3200, 200)
        lo, hi = inputs.ADD_SIZES
        assert all(lo <= len(members) <= hi for members in inputs.add_stream(3, 3200, 200))

    def test_stream_mix_carries_a_v1_share(self):
        stream = inputs.hot_stream(1, 4000)
        share = sum(cls.protocol == 1 for cls in stream) / len(stream)
        assert 0.2 < share < 0.3

    def test_stream_draws_every_request_kind_alike(self):
        stream = inputs.hot_stream(1, 17_000)
        counts = {}
        for cls in stream:
            counts[(cls.op, cls.s, cls.metric)] = counts.get((cls.op, cls.s, cls.metric), 0) + 1
        assert set(counts) == set(inputs.hot_requests())
        assert all(800 < n < 1200 for n in counts.values())

    def test_stream_stays_inside_the_warmed_classes(self):
        assert set(inputs.hot_stream(2, 2000)) <= set(hot_reads.all_classes())


class TestPercentile:
    def test_reports_sample_count(self):
        p = percentile(list(range(1, 101)), 0.5)
        assert (p.value, p.n, p.label) == (50, 100, "p50")

    def test_median_needs_ten_samples_beyond(self):
        with pytest.raises(TooFewSamples):
            percentile(list(range(19)), 0.5)
        assert percentile(list(range(20)), 0.5).n == 20

    def test_p99_needs_a_thousand_samples(self):
        with pytest.raises(TooFewSamples):
            percentile([1.0] * 999, 0.99)
        assert percentile([1.0] * 1000, 0.99).n == 1000

    def test_tail_is_the_highest_supported(self):
        assert tail_percentile([0.0] * 100).label == "p90"
        assert tail_percentile([0.0] * 250).label == "p95"
        with pytest.raises(TooFewSamples):
            tail_percentile([0.0] * (4 * MIN_BEYOND - 1))


class TestClassesAreNeverPooled:
    FAST = RequestClass(2, "metric", 2, "pagerank")
    SLOW = RequestClass(1, "metric", 1, "pagerank")

    def samples(self) -> ClassSamples:
        samples = ClassSamples()
        for _ in range(30):
            samples.record(self.FAST, 1.0)
            samples.record(self.SLOW, 9.0)
        return samples

    def test_each_class_keeps_its_own_median(self):
        samples = self.samples()
        assert samples.percentile(self.FAST, 0.5).value == 1.0
        assert samples.percentile(self.SLOW, 0.5).value == 9.0

    def test_a_percentile_takes_exactly_one_class(self):
        samples = self.samples()
        for not_a_class in ((self.FAST, self.SLOW), "metric", (2, "metric"), None):
            with pytest.raises(TypeError):
                samples.percentile(not_a_class, 0.5)

    def test_throughput_chunks_follow_recording_order(self):
        samples = ClassSamples()
        for seconds in (1.0, 2.0, 3.0, 4.0, 5.0):
            samples.record(self.FAST if seconds % 2 else self.SLOW, seconds)
        assert samples.chunk_seconds(2) == [3.0, 7.0]

    def test_recording_requires_a_class(self):
        with pytest.raises(TypeError):
            ClassSamples().record(("v2", "metric"), 1.0)


class TestSpans:
    def test_self_time_excludes_children(self):
        recorder = SpanRecorder()
        recorder.enabled = True
        with recorder.span("service.execute"):
            with recorder.span("engine.metric"):
                pass
        parent, child = recorder.spans
        assert child.parent == parent.span_id
        assert recorder.self_seconds(parent) == pytest.approx(
            parent.duration - child.duration, abs=1e-9
        )

    def test_disabled_recorder_records_nothing(self):
        recorder = SpanRecorder()
        with recorder.span("engine.metric"):
            pass
        assert recorder.spans == []

    def test_wrap_and_undo(self):
        class Box:
            def value(self):
                return 3

        recorder = SpanRecorder()
        recorder.enabled = True
        undo = recorder.wrap(Box, "value", "engine.value")
        assert Box().value() == 3
        undo()
        assert Box().value() == 3
        assert [span.name for span in recorder.spans] == ["engine.value"]


def test_metrics_text_parses_like_a_scrape():
    text = (
        "# HELP repro_wal_fsyncs_total x\n"
        "repro_wal_fsyncs_total 7\n"
        'repro_request_seconds_count{op="metric"} 4\n'
    )
    assert scrape_text(text) == {
        "repro_wal_fsyncs_total": 7.0,
        'repro_request_seconds_count{op="metric"}': 4.0,
    }


class TestNothingMeasuredIsNeverZero:
    def test_median_of_no_spans_refuses(self):
        recorder = SpanRecorder()
        with pytest.raises(NotMeasured):
            recorder.median_ms("engine.squeeze")
        with pytest.raises(NotMeasured):
            recorder.child_median_ms("transport.client", "transport.rtt")

    def test_ratio_over_nothing_refuses(self):
        assert ratio(3, 4, "ack") == 0.75
        with pytest.raises(NotMeasured):
            ratio(0, 0, "compaction")

    def test_undeclared_missing_layer_metric_fails_the_run(self):
        result = WorkloadResult("write_mix", attempted=1)
        declare_bypassed(result, write_mix.BYPASSED_LAYER_METRICS)
        line = json.loads(result_line(result, trace=True))
        assert line["correct"] is False
        assert line["failed"] == len(catalogue()["per_layer"]) - len(
            write_mix.BYPASSED_LAYER_METRICS
        )

    def test_bypassed_metric_that_was_measured_fails_the_run(self):
        result = WorkloadResult("hot_reads", attempted=1)
        result.per_layer["replication.full_syncs"] = Metric(1.0, "count")
        declare_bypassed(result, hot_reads.BYPASSED_LAYER_METRICS)
        assert result.failed == 1

    @pytest.mark.parametrize("workload", [hot_reads, write_mix])
    def test_bypassed_names_are_catalogued(self, workload):
        names = {entry["name"] for entry in catalogue()["per_layer"]}
        assert workload.BYPASSED_LAYER_METRICS < names
