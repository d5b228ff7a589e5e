"""Observability subsystem: metrics registry, op profiler, trace export."""

import json
import sys
import threading

import numpy as np
import pytest

from repro.autograd import get_default_dtype, tensor
from repro.autograd.interpose import _FUNCTION_OPS, _TENSOR_METHODS
from repro.autograd.tensor import Tensor
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Profiler,
    SpanTotals,
    collect_spans,
    get_registry,
    percentiles,
    profile,
    render_hot_ops,
    render_profile,
    trace_span,
)
from repro.viz import ascii_bar


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------
class TestCounterGauge:
    def test_counter_increments_and_resets(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0

    def test_gauge_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        gauge.set(-1.0)
        assert gauge.value == -1.0
        gauge.reset()
        assert gauge.value == 0.0


class TestHistogram:
    def test_percentiles_match_numpy_exactly(self, rng):
        values = rng.random(101).tolist()
        histogram = Histogram("h")
        histogram.observe_many(values)
        for q in (50.0, 95.0, 99.0, 12.5):
            assert histogram.percentile(q) == float(np.percentile(values, q))

    def test_summary_fields(self):
        histogram = Histogram("h")
        histogram.observe_many([1.0, 2.0, 3.0, 4.0])
        summary = histogram.summary()
        assert summary.count == 4
        assert summary.total == 10.0
        assert summary.mean == 2.5
        assert summary.std == np.std([1.0, 2.0, 3.0, 4.0])
        assert summary.minimum == 1.0 and summary.maximum == 4.0
        assert summary.p50 == 2.5
        assert summary.as_dict()["p95"] == summary.p95

    def test_empty_summary_is_zeros(self):
        summary = Histogram("h").summary()
        assert summary.count == 0
        assert summary.mean == 0.0 and summary.p99 == 0.0

    def test_reset_clears_samples(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        histogram.reset()
        assert histogram.count == 0

    def test_percentiles_helper_empty_gives_zeros(self):
        assert percentiles([], (50.0, 95.0)) == (0.0, 0.0)

    def test_merge_is_associative(self, rng):
        # Property check over random shard decompositions: merging
        # per-rank histograms in any grouping/order gives the exact
        # quantiles of the pooled samples, and total/mean/std within
        # the documented ~1e-12 relative tolerance.
        for trial in range(20):
            shards = [
                rng.normal(size=rng.integers(1, 40)).tolist()
                for _ in range(rng.integers(2, 5))
            ]
            pooled = [v for shard in shards for v in shard]

            left = Histogram("left")  # ((a + b) + c) ...
            for shard in shards:
                left.merge(shard)
            right = Histogram("right")  # ... vs (c + (b + a))
            for shard in reversed(shards):
                right.merge(shard)
            nested = Histogram("nested")  # pre-merged pairs
            half = Histogram("half")
            for shard in shards[: len(shards) // 2]:
                half.merge(shard)
            nested.merge(half)
            nested.merge([v for s in shards[len(shards) // 2:] for v in s])

            for histogram in (left, right, nested):
                summary = histogram.summary()
                assert summary.count == len(pooled)
                for q in (50.0, 95.0, 99.0):
                    assert histogram.percentile(q) == float(
                        np.percentile(pooled, q)
                    )
                assert summary.total == pytest.approx(
                    float(np.sum(pooled)), rel=1e-12
                )
                assert summary.mean == pytest.approx(
                    float(np.mean(pooled)), rel=1e-12
                )
                assert summary.std == pytest.approx(
                    float(np.std(pooled)), rel=1e-9, abs=1e-12
                )


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("b") is registry.histogram("b")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_timer_observes_wall_time(self):
        registry = MetricsRegistry()
        with registry.timer("t"):
            pass
        summary = registry.histogram("t").summary()
        assert summary.count == 1 and summary.total >= 0.0

    def test_snapshot_plain_containers(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.25)
        snap = registry.snapshot()
        assert snap["c"] == 2
        assert snap["g"] == 1.5
        assert snap["h"]["count"] == 1
        assert json.loads(json.dumps(snap)) == snap

    def test_reset_keeps_handles_valid(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(7)
        registry.reset()
        assert counter.value == 0
        counter.inc()
        assert registry.counter("c").value == 1

    def test_render_mentions_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.histogram("lat").observe(0.5)
        text = registry.render()
        assert "hits" in text and "lat" in text and "p95" in text

    def test_global_registry_is_singleton(self):
        assert get_registry() is get_registry()

    def test_dump_merge_round_trip(self):
        # dump() → merge() is the transport for per-rank worker metrics:
        # counters add, gauges last-write-wins, histogram summaries of
        # the merged registry match pooling the raw samples.
        ranks = []
        for rank in range(3):
            registry = MetricsRegistry()
            registry.counter("steps").inc(4)
            registry.gauge("rank").set(rank)
            registry.histogram("lat").observe_many(
                [0.1 * rank + 0.01 * i for i in range(5)]
            )
            ranks.append(registry.dump())
        assert json.loads(json.dumps(ranks[0])) == ranks[0]

        merged = MetricsRegistry()
        for dump in ranks:
            merged.merge(dump)
        assert merged.counter("steps").value == 12
        assert merged.gauge("rank").value == 2.0
        pooled = [v for d in ranks for v in d["histograms"]["lat"]]
        assert merged.histogram("lat").count == 15
        assert merged.histogram("lat").percentile(95.0) == float(
            np.percentile(pooled, 95.0)
        )


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_inactive_span_records_nothing(self):
        collector = SpanTotals()
        with trace_span("ghost"):
            pass
        assert collector.totals == {}

    def test_collect_spans_gathers_totals_and_calls(self):
        with collect_spans() as collector:
            for _ in range(3):
                with trace_span("step"):
                    pass
        assert collector.calls["step"] == 3
        assert collector.totals["step"] >= 0.0
        assert collector.total(("step", "missing")) == collector.totals["step"]

    def test_broadcast_to_multiple_collectors(self):
        with collect_spans() as outer:
            with collect_spans() as inner:
                with trace_span("shared"):
                    pass
        assert outer.calls["shared"] == 1
        assert inner.calls["shared"] == 1

    def test_nested_spans_all_recorded(self):
        with collect_spans() as collector:
            with trace_span("outer"):
                with trace_span("inner"):
                    pass
        assert set(collector.calls) == {"outer", "inner"}


# ----------------------------------------------------------------------
# Op-level profiler
# ----------------------------------------------------------------------
def _tiny_graph():
    a = tensor(np.random.default_rng(0).random((4, 8)), requires_grad=True)
    b = tensor(np.random.default_rng(1).random((8, 4)), requires_grad=True)
    loss = a.matmul(b).relu().mean()
    loss.backward()


class TestProfilerOps:
    def test_records_forward_and_backward(self):
        with profile() as prof:
            _tiny_graph()
        stats = {s.name: s for s in prof.op_stats()}
        assert stats["matmul"].calls == 1
        assert stats["matmul"].backward_calls == 1
        assert stats["matmul"].forward_seconds > 0.0
        assert stats["matmul"].backward_seconds > 0.0

    def test_records_output_shape_and_bytes(self):
        with profile() as prof:
            _tiny_graph()
        matmul = [e for e in prof.events
                  if e.name == "matmul" and e.phase == "forward"]
        assert matmul[0].shape == (4, 4)
        assert matmul[0].nbytes == 4 * 4 * np.dtype(get_default_dtype()).itemsize

    def test_composite_ops_record_once(self):
        # mean lowers to sum+div and sub to add+neg; only the top-level
        # call may appear, so per-op totals attribute each FLOP once.
        with profile() as prof:
            x = tensor(np.ones(5), requires_grad=True)
            (x - tensor(np.ones(5))).mean().backward()
        names = [s.name for s in prof.op_stats()]
        assert "sub" in names and "mean" in names
        assert "neg" not in names and "div" not in names

    def test_patches_restored_on_exit(self):
        originals = {attr: getattr(Tensor, attr) for attr in _TENSOR_METHODS}
        with profile():
            assert getattr(Tensor, "matmul") is not originals["matmul"]
        for attr, fn in originals.items():
            assert getattr(Tensor, attr) is fn
        for label in _FUNCTION_OPS:
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if module is None or not name.startswith("repro"):
                    continue
                assert not hasattr(getattr(module, label, None), "__wrapped__")

    def test_patched_function_bindings_record(self):
        # Call through the package attribute — the enable-time scan
        # patches every repro module that re-binds a functional op.
        import repro.autograd as autograd

        with profile() as prof:
            autograd.softmax(
                tensor(np.random.default_rng(2).random((2, 5))), axis=-1
            )
        assert "softmax" in {s.name for s in prof.op_stats()}

    def test_two_ops_profilers_conflict(self):
        with profile():
            with pytest.raises(RuntimeError):
                Profiler(ops=True).__enter__()

    def test_profiler_single_use(self):
        prof = Profiler(ops=False)
        with prof:
            pass
        with pytest.raises(RuntimeError):
            prof.__enter__()

    def test_spans_only_mode_skips_ops(self):
        with profile(ops=False) as prof:
            with trace_span("only.span"):
                _tiny_graph()
        assert prof.op_stats() == []
        assert prof.span_totals()["only.span"] > 0.0

    def test_span_stats_sorted_by_total(self):
        with profile(ops=False) as prof:
            with trace_span("a"):
                with trace_span("b"):
                    np.dot(np.ones((64, 64)), np.ones((64, 64)))
        stats = prof.span_stats()
        totals = [total for _, _, total in stats]
        assert totals == sorted(totals, reverse=True)

    def test_wall_seconds_positive(self):
        with profile(ops=False) as prof:
            pass
        assert prof.wall_seconds >= 0.0


# ----------------------------------------------------------------------
# Chrome trace export + viz interplay
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_round_trips_json_with_monotonic_ts(self, tmp_path):
        with profile() as prof:
            with trace_span("block"):
                _tiny_graph()
        path = str(tmp_path / "trace.json")
        prof.export_chrome_trace(path)
        with open(path) as handle:
            payload = json.loads(handle.read())
        events = payload["traceEvents"]
        assert events, "trace exported no events"
        ts = [event["ts"] for event in events]
        assert ts == sorted(ts)
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 0
            assert event["dur"] >= 0.0
            assert event["ts"] >= 0.0

    def test_op_events_carry_shape_args(self):
        with profile() as prof:
            _tiny_graph()
        trace = prof.chrome_trace()
        op_events = [e for e in trace
                     if e["cat"] == "op" and e["args"].get("phase") == "forward"]
        assert all("shape" in e["args"] and "bytes" in e["args"]
                   for e in op_events)

    def test_thread_ids_recorded(self):
        with profile(ops=False) as prof:
            def work():
                with trace_span("thread.span"):
                    pass
            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
            with trace_span("main.span"):
                pass
        tids = {e["tid"] for e in prof.chrome_trace()}
        assert len(tids) == 2


class TestHotOpReport:
    def test_table_lists_ops_with_bars(self):
        with profile() as prof:
            _tiny_graph()
        table = render_hot_ops(prof, top=5)
        assert "matmul" in table and "relu" in table
        assert "#" in table  # proportional ascii bar
        assert "Total ms" in table

    def test_top_limits_rows(self):
        with profile() as prof:
            _tiny_graph()
        lines = render_hot_ops(prof, top=1).splitlines()
        # title + header + separator + exactly one data row
        data_rows = [l for l in lines if l.startswith(("matmul", "relu", "mean"))]
        assert len(data_rows) == 1

    def test_full_render_has_header_and_spans(self):
        with profile() as prof:
            with trace_span("unit"):
                _tiny_graph()
        report = render_profile(prof, top=3)
        assert "op events" in report
        assert "unit" in report

    def test_empty_profiler_renders_gracefully(self):
        with profile(ops=False) as prof:
            pass
        assert "no op events" in render_hot_ops(prof)


class TestAsciiBars:
    def test_bar_width_and_fill(self):
        assert ascii_bar(0.5, width=10) == "#####     "
        assert ascii_bar(0.0, width=4) == "    "
        assert ascii_bar(1.0, width=4) == "####"

    def test_bar_clamps_out_of_range(self):
        assert ascii_bar(2.0, width=4) == "####"
        assert ascii_bar(-1.0, width=4) == "    "

    def test_tiny_fraction_still_visible(self):
        assert ascii_bar(1e-6, width=10).count("#") == 1
