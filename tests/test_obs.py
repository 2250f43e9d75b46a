"""repro.obs: metrics primitives/registry, span tracing, profiling hooks,
and their integration with the serving stack.  End-to-end tests use the
same tiny model as test_serve.py so the file runs in seconds."""

import json

import numpy as np
import pytest

from repro.infer import InferenceSession
from repro.obs import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    RequestTrace,
    SessionProfiler,
    Span,
    Tracer,
    attach_profiler,
    detach_profiler,
    profile_predict,
    spans_from_stamps,
    to_chrome,
)
from repro.quant import QuantizedSession
from repro.serve import LatencyReservoir, LocalizationServer, RingCounters
from repro.serve.shm import RingAllocator
from repro.vit import VitalConfig, VitalModel


def _tiny_session(max_batch: int = 8, seed: int = 0) -> InferenceSession:
    config = VitalConfig(
        image_size=12, patch_size=3, projection_dim=24, num_heads=4,
        encoder_blocks=1, encoder_mlp_units=(32, 16), head_units=(32,),
    )
    model = VitalModel(config, image_size=12, channels=3, num_classes=5,
                      rng=np.random.default_rng(seed))
    model.eval()
    return InferenceSession(model, max_batch=max_batch)


@pytest.fixture(scope="module")
def session():
    return _tiny_session()


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(42)
    return rng.standard_normal((8, 12, 12, 3)).astype(np.float32)


class TestPrimitives:
    def test_counter_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(MetricsError):
            counter.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.dec(3)
        gauge.inc(0.5)
        assert gauge.value == 7.5

    def test_histogram_empty(self):
        hist = Histogram()
        assert hist.summary() == {"count": 0, "window": 0, "sum": 0.0,
                                  "p50": None, "p95": None, "p99": None,
                                  "mean": None}
        assert hist.percentile(50) is None

    def test_histogram_single_sample(self):
        hist = Histogram()
        hist.observe(7.0)
        summary = hist.summary()
        # With one sample every percentile IS that sample.
        assert summary["count"] == 1
        assert summary["window"] == 1
        assert summary["p50"] == summary["p95"] == summary["p99"] == 7.0
        assert summary["mean"] == 7.0

    def test_histogram_lifetime_count_vs_window(self):
        """The satellite-1 fix: count is lifetime, window is what the
        percentiles describe — both reported, never conflated."""
        hist = Histogram(window_size=10)
        for value in range(100):
            hist.observe(float(value))
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["window"] == 10
        # The window holds only 90..99, so p50 sits there, not near 50.
        assert summary["p50"] >= 90.0
        assert hist.total == sum(range(100))

    def test_histogram_rejects_bad_window(self):
        with pytest.raises(MetricsError):
            Histogram(window_size=0)


class TestLatencyReservoir:
    def test_empty_summary_reports_window(self):
        assert LatencyReservoir().summary() == {
            "count": 0, "window": 0, "sum_ms": 0.0, "p50_ms": None,
            "p95_ms": None, "p99_ms": None, "mean_ms": None,
        }

    def test_single_sample_percentiles(self):
        reservoir = LatencyReservoir()
        reservoir.add(12.5)
        summary = reservoir.summary()
        assert summary == {"count": 1, "window": 1, "sum_ms": 12.5,
                           "p50_ms": 12.5, "p95_ms": 12.5, "p99_ms": 12.5,
                           "mean_ms": 12.5}

    def test_window_diverges_from_count_after_overflow(self):
        reservoir = LatencyReservoir(maxlen=4)
        for value in (1.0, 2.0, 3.0, 4.0, 100.0, 100.0):
            reservoir.add(value)
        summary = reservoir.summary()
        assert summary["count"] == 6
        assert summary["window"] == 4
        assert summary["p50_ms"] == pytest.approx(52.0)  # window is 3,4,100,100


class TestMetricsRegistry:
    def test_get_or_create_returns_same_series(self):
        registry = MetricsRegistry()
        a = registry.counter("requests", {"route": "vital"})
        b = registry.counter("requests", {"route": "vital"})
        assert a is b
        a.inc()
        assert b.value == 1.0
        # Different labels → different series.
        other = registry.counter("requests", {"route": "canary"})
        assert other is not a
        assert registry.series_count == 2

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("depth")
        with pytest.raises(MetricsError, match="already registered"):
            registry.gauge("depth")

    def test_cardinality_bound(self):
        registry = MetricsRegistry(max_series=3)
        for index in range(3):
            registry.counter("x", {"id": str(index)})
        with pytest.raises(MetricsError, match="cardinality"):
            registry.counter("x", {"id": "overflow"})
        # Existing series stay reachable after the refusal.
        assert registry.counter("x", {"id": "0"}) is not None

    def test_snapshot_shape_and_order(self):
        registry = MetricsRegistry()
        registry.gauge("b_gauge").set(2)
        registry.counter("a_counter", {"k": "v"}).inc(5)
        registry.histogram("c_hist").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["schema"] == METRICS_SCHEMA
        names = [entry["name"] for entry in snapshot["series"]]
        assert names == sorted(names)
        by_name = {entry["name"]: entry for entry in snapshot["series"]}
        assert by_name["a_counter"]["value"] == 5.0
        assert by_name["a_counter"]["labels"] == {"k": "v"}
        assert by_name["c_hist"]["summary"]["count"] == 1
        json.dumps(snapshot)  # must be JSON-serializable as-is

    def test_collector_sees_replaced_objects(self):
        """The fleet swaps in fresh stats objects mid-flight; a collector
        must read the *current* one at scrape time."""
        registry = MetricsRegistry()
        holder = {"counter": Counter()}
        registry.add_collector(lambda: [
            {"name": "swappable", "labels": {}, "kind": "counter",
             "value": holder["counter"].value},
        ])
        holder["counter"].inc(3)
        assert registry.snapshot()["series"][0]["value"] == 3.0
        holder["counter"] = Counter()  # fresh window, e.g. canary start
        assert registry.snapshot()["series"][0]["value"] == 0.0

    def test_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("serve_requests_total", {"status": "ok"}).inc(7)
        hist = registry.histogram("latency_ms", {"route": "vital"})
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        text = registry.to_prometheus()
        assert "# TYPE serve_requests_total counter" in text
        assert 'serve_requests_total{status="ok"} 7' in text
        assert "# TYPE latency_ms summary" in text
        assert 'latency_ms{quantile="0.5",route="vital"} 2' in text
        assert 'latency_ms_count{route="vital"} 3' in text
        assert 'latency_ms_window{route="vital"} 3' in text
        assert text.endswith("\n")

    def test_prometheus_escapes_labels(self):
        registry = MetricsRegistry()
        registry.gauge("g", {"path": 'a"b\\c\nd'}).set(1)
        text = registry.to_prometheus()
        assert 'path="a\\"b\\\\c\\nd"' in text


class TestRingCounters:
    def test_peak_occupancy_survives_wraparound(self):
        """peak_used_bytes is a high-water mark: wrapping the ring (which
        resets offsets) must not reset the peak."""
        counters = RingCounters()
        ring = RingAllocator(256, counters=counters)
        a = ring.allocate(128)
        b = ring.allocate(64)
        assert counters.peak_used_bytes == 192
        ring.free(a)  # tail lease gone → reclaim
        # 128 does not fit after head (head=192, cap=256) but fits at 0:
        # this wraps, wasting the 64-byte tail gap.
        c = ring.allocate(128)
        assert c == 0
        assert counters.wraps == 1
        assert counters.peak_used_bytes == 256  # 64 live + 64 gap + 128 new
        ring.free(b)
        ring.free(c)
        assert ring.used == 0
        assert counters.allocations == 3
        assert counters.frees == 3
        assert counters.peak_used_bytes == 256  # high-water mark persists

    def test_alloc_failures_counted(self):
        counters = RingCounters()
        ring = RingAllocator(128, counters=counters)
        ring.allocate(128)
        assert ring.allocate(64) is None
        assert ring.allocate(1024) is None  # larger than capacity
        assert counters.alloc_failures == 2


class TestTracer:
    def test_deterministic_fraction_sampling(self):
        tracer = Tracer(sample_rate=0.25)
        decisions = [tracer.sample() for _ in range(16)]
        assert sum(decisions) == 4
        # Exactly every fourth request, deterministically.
        assert decisions == [False, False, False, True] * 4

    def test_rate_one_samples_everything(self):
        tracer = Tracer(sample_rate=1.0)
        assert all(tracer.sample() for _ in range(100))
        assert tracer.sampled == 100

    def test_disabled_tracer(self):
        tracer = Tracer(sample_rate=0.0)
        assert not tracer.enabled
        assert not any(tracer.sample() for _ in range(10))
        assert tracer.sampled == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="sample_rate"):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError, match="capacity"):
            Tracer(sample_rate=0.5, capacity=0)

    def _trace(self, request_id):
        spans = [Span("enqueue", 0.0, 1.0), Span("complete", 1.0, 2.0)]
        return RequestTrace(request_id, "m", 1, "pickle", 0, spans)

    def test_bounded_buffer_evicts_oldest(self):
        tracer = Tracer(sample_rate=1.0, capacity=3)
        for request_id in range(5):
            tracer.record(self._trace(request_id))
        summary = tracer.summary()
        assert summary["recorded"] == 5
        assert summary["buffered"] == 3
        assert summary["dropped"] == 2
        assert tracer.get(0) is None  # evicted
        assert tracer.get(4) is not None
        assert [t.request_id for t in tracer.traces()] == [2, 3, 4]
        assert [t.request_id for t in tracer.traces(limit=2)] == [3, 4]

    def test_export_json_and_chrome(self):
        tracer = Tracer(sample_rate=1.0, capacity=8)
        tracer.record(self._trace(7))
        doc = json.loads(tracer.export_json())
        assert doc["schema"] == TRACE_SCHEMA
        assert doc["traces"][0]["request_id"] == 7
        chrome = to_chrome(tracer.traces())
        assert chrome["displayTimeUnit"] == "ms"
        event = chrome["traceEvents"][0]
        assert event["ph"] == "X"
        assert event["tid"] == 7
        assert event["ts"] == 0.0
        assert event["dur"] == pytest.approx(1e6)  # 1 s in µs


class TestSpanChain:
    def test_contiguous_with_worker_stamps(self):
        spans = spans_from_stamps(
            enqueued=10.0, gathered=10.1, write_start=10.2, sent=10.3,
            collected=10.9, done=11.0, worker=(10.4, 10.45, 10.8),
        )
        names = [span.name for span in spans]
        assert names == ["enqueue", "batch_form", "shm_write", "worker_recv",
                         "compute", "shm_read", "complete"]
        # Contiguity: each span starts where the previous ended, so the
        # durations sum to done - enqueued exactly.
        for left, right in zip(spans, spans[1:]):
            assert left.end == right.start
        total = sum(span.duration_ms for span in spans)
        assert total == pytest.approx(1000.0)
        trace = RequestTrace(1, "m", 2, "shm", 0, spans)
        assert trace.complete
        assert trace.total_ms == pytest.approx(trace.span_sum_ms)

    def test_collapsed_without_worker_stamps(self):
        spans = spans_from_stamps(
            enqueued=0.0, gathered=0.1, write_start=0.2, sent=0.3,
            collected=0.8, done=1.0, worker=None,
        )
        names = [span.name for span in spans]
        assert names == ["enqueue", "batch_form", "shm_write", "compute",
                         "shm_read", "complete"]
        assert "worker_recv" not in names
        trace = RequestTrace(2, None, 1, "shm", None, spans)
        assert trace.complete  # worker_recv slot is optional in the chain

    def test_clamping_never_yields_negative_spans(self):
        # Worker recv stamp before "sent" (clock granularity / queue put
        # overlapping) must clamp, not produce a negative span.
        spans = spans_from_stamps(
            enqueued=0.0, gathered=0.2, write_start=0.1, sent=0.3,
            collected=0.6, done=0.5, worker=(0.25, 0.3, 0.55),
        )
        assert all(span.end >= span.start for span in spans)
        assert sum(span.duration_ms for span in spans) == pytest.approx(600.0)

    def test_incomplete_chain_detected(self):
        trace = RequestTrace(3, "m", 1, "shm", 0,
                             [Span("enqueue", 0.0, 1.0)])
        assert not trace.complete
        shuffled = spans_from_stamps(0.0, 0.1, 0.2, 0.3, 0.8, 1.0)
        assert not RequestTrace(4, "m", 1, "shm", 0,
                                list(reversed(shuffled))).complete


class TestProfiler:
    def test_lap_accumulates_calls_and_time(self):
        profiler = SessionProfiler()
        t0 = 0.0
        t0 = profiler.lap("phase_a", t0)
        profiler.add("phase_a", 0.5)
        profiler.add("phase_b", 0.25)
        summary = profiler.summary()
        assert summary["phase_a"]["calls"] == 2
        assert summary["phase_a"]["total_ms"] >= 500.0
        assert summary["phase_b"]["total_ms"] == pytest.approx(250.0)
        drained = profiler.drain()
        assert drained.keys() == summary.keys()
        assert profiler.summary() == {}  # drain resets

    def test_profile_predict_float_session(self, session, images):
        report = profile_predict(session, images[:4])
        phases = report["phases"]
        assert {"patch_gather", "embed", "block0", "final_norm_pool",
                "head"} <= set(phases)
        assert all(p["calls"] >= 1 for p in phases.values())
        # The profiler must be detached afterwards: a plain predict adds
        # nothing.
        assert session._profiler is None
        sites = {site["site"] for site in report["gemm_sites"]}
        assert {"embed", "qkv", "attn_out", "mlp0", "head0"} <= sites
        for site in report["gemm_sites"]:
            assert site["weight"] == "float32"
            assert site["k"] > 0 and site["n"] > 0

    def test_profile_predict_quantized_session(self, session, images):
        quantized = QuantizedSession(session, mode="int8")
        report = profile_predict(quantized, images[:4])
        assert "block0" in report["phases"]
        int8_sites = [site for site in report["gemm_sites"]
                      if site["weight"] == "int8"]
        assert int8_sites, "quantized session should report int8 GEMM sites"
        for site in int8_sites:
            assert site["scheme"] == quantized.scheme
            assert site["mode"] == "int8"
            assert set(site) == {"site", "m", "k", "n", "weight", "scheme",
                                 "mode"}

    def test_attach_detach_roundtrip(self, images):
        session = _tiny_session(max_batch=4)
        profiler = attach_profiler(session)
        session.predict(images[:2])
        assert profiler.summary()
        assert detach_profiler(session) is profiler
        assert detach_profiler(session) is None

    def test_profiler_not_pickled(self, images):
        import pickle
        session = _tiny_session(max_batch=4)
        attach_profiler(session)
        restored = pickle.loads(pickle.dumps(session))
        assert restored._profiler is None
        restored.predict(images[:2])  # scratch path works without profiler


class TestServerTracing:
    def test_traced_request_has_complete_breakdown(self, session, images):
        with LocalizationServer(session, workers=1, max_delay_ms=0.5,
                                trace_sample=1.0, profile=True) as server:
            request_id = server.submit(images[:2])
            logits, breakdown = server.result_with_breakdown(
                request_id, timeout=30.0)
            traces = server.traces()
            exported = json.loads(server.export_traces_json())
        assert logits.shape == (2, 5)
        assert breakdown is not None
        assert breakdown["complete"], breakdown
        assert breakdown["request_id"] == request_id
        span_sum = sum(s["duration_ms"] for s in breakdown["spans"])
        assert span_sum == pytest.approx(breakdown["total_ms"], rel=1e-6)
        assert breakdown["total_ms"] > 0
        # Worker-side compute profile rode back with the trace.
        assert "block0" in breakdown["compute_phases"]
        assert traces and traces[-1].request_id == request_id
        assert exported["schema"] == TRACE_SCHEMA

    def test_untraced_server_records_nothing(self, session, images):
        with LocalizationServer(session, workers=1,
                                max_delay_ms=0.5) as server:
            request_id = server.submit(images[:2])
            _logits, breakdown = server.result_with_breakdown(
                request_id, timeout=30.0)
            stats = server.stats()
            assert server.traces() == []
        assert breakdown is None
        assert stats["tracing"]["sample_rate"] == 0.0
        assert stats["tracing"]["recorded"] == 0

    def test_half_rate_traces_alternate_requests(self, session, images):
        with LocalizationServer(session, workers=1, max_delay_ms=0.5,
                                trace_sample=0.5) as server:
            breakdowns = []
            for _ in range(6):
                request_id = server.submit(images[:1])
                _logits, breakdown = server.result_with_breakdown(
                    request_id, timeout=30.0)
                breakdowns.append(breakdown)
            summary = server.stats()["tracing"]
        traced = [b is not None for b in breakdowns]
        assert sum(traced) == 3
        assert summary["sampled"] == 3

    def test_metrics_surface(self, session, images):
        with LocalizationServer(session, workers=1, max_delay_ms=0.5,
                                trace_sample=1.0) as server:
            for index in range(4):
                server.result(server.submit(images[index:index + 2]),
                              timeout=30.0)
            snapshot = server.metrics_snapshot()
            text = server.to_prometheus()
            stats = server.stats()
        assert snapshot["schema"] == METRICS_SCHEMA
        by_name = {}
        for entry in snapshot["series"]:
            by_name.setdefault(entry["name"], []).append(entry)
        completed = [e for e in by_name["serve_requests_total"]
                     if e["labels"].get("status") == "completed"]
        assert completed and completed[0]["value"] == 4
        assert by_name["serve_request_latency_ms"][0]["summary"]["count"] > 0
        assert "serve_traces_recorded_total" in by_name
        assert "# TYPE serve_requests_total counter" in text
        assert "serve_request_latency_ms_count" in text
        # Additive stats keys from this PR.
        assert stats["batcher"]["max_batch"] == server.max_batch
        assert stats["tracing"]["recorded"] > 0
        json.dumps(stats)  # whole stats doc stays JSON-serializable
