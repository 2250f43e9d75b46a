"""Tests for the continuous monitoring layer (`repro.obs.monitor` et al.):

timeline sampling (counter deltas/rates, histogram percentiles, bounded
retention, query/export), SLO burn-rate evaluation, alert hysteresis and
drift detection, the event journal, the Monitor facade, the server/fleet
lifecycle integration, and the satellite contracts (histogram lifetime
sum in Prometheus exposition, tracer counters as registry series,
collector-exception isolation).
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.obs import (AlertEngine, AlertError, BurnRateRule, DriftRule,
                       EventJournal, Histogram, MetricsRegistry, Monitor,
                       PageHinkley, RollingMeanShift, Slo, SloEngine,
                       SloError, ThresholdRule, Timeline, TimelineError,
                       Tracer, default_serving_rules, default_serving_slos)


def _registry_with_series():
    registry = MetricsRegistry()
    counter = registry.counter("reqs_total", {"status": "completed"})
    hist = registry.histogram("lat_ms")
    gauge = registry.gauge("queue_depth")
    return registry, counter, hist, gauge


class TestTimeline:
    def test_counter_points_carry_delta_and_rate(self):
        registry, counter, _, _ = _registry_with_series()
        timeline = Timeline(registry, interval_s=1.0)
        counter.inc(10)
        timeline.sample_once(now=100.0)
        counter.inc(30)
        timeline.sample_once(now=102.0)
        points = timeline.query("reqs_total", {"status": "completed"})
        assert points[0] == {"t": 100.0, "value": 10.0, "delta": 0.0,
                             "rate": 0.0}
        assert points[1]["delta"] == 30.0
        assert points[1]["rate"] == pytest.approx(15.0)

    def test_counter_reset_clamps_negative_delta(self):
        registry = MetricsRegistry()
        value = {"v": 100.0}
        registry.add_collector(lambda: [
            {"name": "c", "kind": "counter", "value": value["v"]}])
        timeline = Timeline(registry)
        timeline.sample_once(now=1.0)
        value["v"] = 5.0  # simulated restart: counter went backwards
        timeline.sample_once(now=2.0)
        points = timeline.query("c")
        assert points[1]["delta"] == 0.0
        assert points[1]["rate"] == 0.0

    def test_histogram_points_carry_percentiles_and_count_rate(self):
        registry, _, hist, _ = _registry_with_series()
        timeline = Timeline(registry)
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.observe(v)
        timeline.sample_once(now=10.0)
        for v in (5.0, 6.0):
            hist.observe(v)
        timeline.sample_once(now=11.0)
        points = timeline.query("lat_ms")
        assert points[0]["count"] == 4
        assert points[0]["p50"] == pytest.approx(2.5)
        assert points[1]["delta"] == 2.0
        assert points[1]["rate"] == pytest.approx(2.0)
        assert points[1]["mean"] == pytest.approx(3.5)

    def test_gauge_points(self):
        registry, _, _, gauge = _registry_with_series()
        timeline = Timeline(registry)
        gauge.set(7)
        timeline.sample_once(now=1.0)
        assert timeline.query("queue_depth") == [{"t": 1.0, "value": 7.0}]

    def test_retention_bounds_points(self):
        registry, counter, _, _ = _registry_with_series()
        timeline = Timeline(registry, retention=5)
        for i in range(12):
            counter.inc()
            timeline.sample_once(now=float(i))
        points = timeline.query("reqs_total", {"status": "completed"})
        assert len(points) == 5
        assert points[0]["t"] == 7.0  # oldest retained

    def test_query_time_range_and_values(self):
        registry, counter, _, _ = _registry_with_series()
        timeline = Timeline(registry)
        for i in range(5):
            counter.inc(2)
            timeline.sample_once(now=float(i))
        points = timeline.query("reqs_total", {"status": "completed"},
                                since=1.0, until=3.0)
        assert [p["t"] for p in points] == [1.0, 2.0, 3.0]
        vals = timeline.values("reqs_total", {"status": "completed"},
                               field="delta", since=1.0)
        assert [v for _, v in vals] == [2.0, 2.0, 2.0, 2.0]
        assert timeline.latest("reqs_total", {"status": "completed"}) == 10.0

    def test_ambiguous_query_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", {"a": "1"}).inc()
        registry.counter("x", {"a": "2"}).inc()
        timeline = Timeline(registry)
        timeline.sample_once(now=1.0)
        with pytest.raises(TimelineError, match="ambiguous"):
            timeline.query("x")
        assert timeline.query("missing") == []

    def test_max_series_bound(self):
        registry = MetricsRegistry()
        for i in range(6):
            registry.counter("c", {"i": str(i)})
        timeline = Timeline(registry, max_series=4)
        timeline.sample_once(now=1.0)
        assert len(timeline.series()) == 4
        assert timeline.dropped_series == 2

    def test_listener_errors_do_not_break_sampling(self):
        registry, counter, _, _ = _registry_with_series()
        timeline = Timeline(registry)
        timeline.add_listener(lambda tl, now: 1 / 0)
        counter.inc()
        timeline.sample_once(now=1.0)
        assert timeline.samples == 1
        assert timeline.listener_errors == 1

    def test_export_json_and_jsonl(self, tmp_path):
        registry, counter, hist, _ = _registry_with_series()
        timeline = Timeline(registry)
        counter.inc(3)
        hist.observe(1.5)
        timeline.sample_once(now=1.0)
        timeline.sample_once(now=2.0)
        doc = json.loads(timeline.export_json())
        assert doc["schema"] == "repro.obs.timeline.v1"
        names = {s["name"] for s in doc["series"]}
        assert {"reqs_total", "lat_ms", "queue_depth"} <= names
        path = tmp_path / "timeline.jsonl"
        written = timeline.export_jsonl(path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == written == 6  # 3 series x 2 samples
        assert all({"t", "name", "labels", "kind"} <= set(l) for l in lines)

    def test_background_thread_samples(self):
        registry, counter, _, _ = _registry_with_series()
        timeline = Timeline(registry, interval_s=0.02)
        counter.inc()
        timeline.start()
        try:
            deadline = time.perf_counter() + 5.0
            while timeline.samples < 3 and time.perf_counter() < deadline:
                time.sleep(0.01)
            assert timeline.running
            assert timeline.samples >= 3
        finally:
            timeline.stop()
        assert not timeline.running
        stats = timeline.stats()
        assert stats["samples"] >= 3
        assert stats["sample_errors"] == 0

    def test_invalid_config(self):
        registry = MetricsRegistry()
        with pytest.raises(TimelineError):
            Timeline(registry, interval_s=0.0)
        with pytest.raises(TimelineError):
            Timeline(registry, retention=1)


class TestSlo:
    def _timeline(self, p95s, interval=1.0):
        registry = MetricsRegistry()
        state = {"p95": 0.0}
        registry.add_collector(lambda: [
            {"name": "lat", "kind": "histogram",
             "summary": {"count": 1, "sum": state["p95"], "window": 1,
                         "p50": state["p95"], "p95": state["p95"],
                         "p99": state["p95"], "mean": state["p95"]}}])
        timeline = Timeline(registry)
        now = 0.0
        for v in p95s:
            state["p95"] = v
            now += interval
            timeline.sample_once(now=now)
        return timeline, now

    def test_threshold_slo_healthy(self):
        timeline, now = self._timeline([10.0] * 20)
        slo = Slo("lat", series="lat", field="p95", threshold=25.0,
                  target=0.95, fast_window_s=5.0, slow_window_s=20.0)
        report = slo.evaluate(timeline, now)
        assert not report["breaching"]
        assert report["budget_remaining"] == 1.0
        assert report["fast"]["burn_rate"] == 0.0
        assert report["current"] == 10.0

    def test_threshold_slo_breaching(self):
        timeline, now = self._timeline([10.0] * 10 + [90.0] * 10)
        slo = Slo("lat", series="lat", field="p95", threshold=25.0,
                  target=0.95, fast_window_s=5.0, slow_window_s=20.0,
                  max_burn_rate=2.0)
        report = slo.evaluate(timeline, now)
        assert report["fast"]["bad_fraction"] == 1.0
        assert report["breaching"]
        assert report["budget_remaining"] == 0.0

    def test_ratio_slo(self):
        registry = MetricsRegistry()
        ok = registry.counter("reqs", {"status": "completed"})
        bad = registry.counter("reqs", {"status": "failed"})
        timeline = Timeline(registry)
        now = 0.0
        for _ in range(20):
            ok.inc(98)
            bad.inc(2)
            now += 1.0
            timeline.sample_once(now=now)
        slo = Slo.error_rate(
            "errors", target=0.99,
            failed=("reqs", {"status": "failed"}),
            total=(("reqs", {"status": "completed"}),
                   ("reqs", {"status": "failed"})),
            fast_window_s=5.0, slow_window_s=20.0, max_burn_rate=1.5)
        report = slo.evaluate(timeline, now)
        assert report["kind"] == "ratio"
        assert report["fast"]["bad_fraction"] == pytest.approx(0.02)
        assert report["fast"]["burn_rate"] == pytest.approx(2.0)
        assert report["breaching"]

    def test_ratio_slo_no_traffic_is_healthy(self):
        registry = MetricsRegistry()
        registry.counter("reqs", {"status": "completed"})
        registry.counter("reqs", {"status": "failed"})
        timeline = Timeline(registry)
        timeline.sample_once(now=1.0)
        slo = Slo.error_rate("errors",
                             failed=("reqs", {"status": "failed"}),
                             total=("reqs", {"status": "completed"}))
        report = slo.evaluate(timeline, 1.0)
        assert not report["breaching"]
        assert report["fast"]["bad_fraction"] == 0.0

    def test_engine_caches_reports(self):
        timeline, now = self._timeline([1.0] * 4)
        engine = SloEngine(timeline, [
            Slo("a", series="lat", field="p95", threshold=5.0)])
        engine.evaluate(now=now)
        assert engine.evaluations == 1
        assert engine.last_reports()[0]["slo"] == "a"
        assert engine.breaching() == []

    def test_invalid_slo(self):
        with pytest.raises(SloError):
            Slo("x")  # threshold kind without series/threshold
        with pytest.raises(SloError):
            Slo("x", series="s", threshold=1.0, target=1.0)
        with pytest.raises(SloError):
            Slo("x", series="s", threshold=1.0, op="weird")
        with pytest.raises(SloError):
            Slo("x", series="s", threshold=1.0, fast_window_s=10.0,
                slow_window_s=5.0)


class TestEventJournal:
    def test_append_and_read_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = EventJournal(path=str(path), clock=lambda: 123.456)
        journal.append("deploy", model="vital", version=2)
        journal.append("alert", rule="lat", state="firing")
        journal.close()
        events = EventJournal.read(path, strict=True)
        assert [e["kind"] for e in events] == ["deploy", "alert"]
        assert events[0]["seq"] == 1 and events[1]["seq"] == 2
        assert events[0]["ts"] == 123.456
        assert events[0]["model"] == "vital"

    def test_capacity_bound_and_filters(self):
        journal = EventJournal(capacity=3)
        for i in range(5):
            journal.append("tick", i=i)
        journal.append("other")
        assert len(journal) == 3
        assert [e["i"] for e in journal.events(kind="tick")] == [3, 4]
        assert len(journal.events(limit=1)) == 1
        assert journal.seq == 6

    def test_malformed_lines(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"schema": "repro.obs.events.v1", "seq": 1, '
                        '"ts": 1.0, "kind": "ok"}\n'
                        'not json\n'
                        '{"seq": 2}\n')
        events = EventJournal.read(path)
        assert len(events) == 1  # malformed lines skipped
        with pytest.raises(AlertError):
            EventJournal.read(path, strict=True)
        with pytest.raises(AlertError, match="missing keys"):
            EventJournal.validate_line('{"seq": 2}')


class TestDetectors:
    def test_page_hinkley_detects_upward_shift(self):
        import random
        rng = random.Random(0)
        ph = PageHinkley(delta=0.3, lamb=12.0, min_samples=10)
        fired_at = None
        for i in range(200):
            x = rng.gauss(8.0 if i >= 100 else 4.0, 0.4)
            if ph.update(x):
                fired_at = i
                break
        assert fired_at is not None and 100 <= fired_at <= 103

    def test_page_hinkley_calm_stays_quiet(self):
        import random
        rng = random.Random(1)
        ph = PageHinkley()  # conservative defaults
        assert not any(ph.update(rng.gauss(4.0, 0.4)) for _ in range(500))

    def test_page_hinkley_direction_down(self):
        import random
        rng = random.Random(2)
        ph = PageHinkley(delta=0.3, lamb=12.0, direction="down")
        fired = False
        for i in range(200):
            fired = ph.update(rng.gauss(1.0 if i >= 100 else 4.0, 0.3))
            if fired:
                break
        assert fired

    def test_rolling_mean_shift(self):
        import random
        rng = random.Random(3)
        rm = RollingMeanShift(short=3, long=20, z_threshold=4.0)
        fired_at = None
        for i in range(100):
            if rm.update(rng.gauss(9.0 if i >= 60 else 4.0, 0.4)):
                fired_at = i
                break
        assert fired_at is not None and 60 <= fired_at <= 63

    def test_rolling_mean_needs_full_window(self):
        rm = RollingMeanShift(short=2, long=4)
        assert not any(rm.update(1.0) for _ in range(5))


class TestAlertEngine:
    def _setup(self, rules, journal=None):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        timeline = Timeline(registry)
        engine = AlertEngine(timeline, rules, journal=journal)
        return hist, timeline, engine

    def test_threshold_rule_immediate_fire_and_resolve(self):
        journal = EventJournal()
        rule = ThresholdRule("hot", "lat", field="p95", op="gt",
                             threshold=100.0)
        hist, timeline, engine = self._setup([rule], journal)
        hist.observe(10.0)
        timeline.sample_once(now=1.0)
        engine.evaluate(now=1.0)
        assert engine.fired == 0
        for _ in range(200):
            hist.observe(500.0)
        timeline.sample_once(now=2.0)
        engine.evaluate(now=2.0)
        assert engine.fired == 1
        assert engine.firing() == ["hot"]
        # recover: flood the window back down
        for _ in range(3000):
            hist.observe(1.0)
        timeline.sample_once(now=3.0)
        engine.evaluate(now=3.0)
        assert engine.resolved == 1
        assert engine.firing() == []
        kinds = [(e["kind"], e["state"]) for e in journal.events()]
        assert kinds == [("alert", "firing"), ("alert", "resolved")]

    def test_for_duration_hysteresis(self):
        rule = ThresholdRule("hot", "lat", field="p95", op="gt",
                             threshold=100.0, for_s=5.0)
        hist, timeline, engine = self._setup([rule])
        for _ in range(100):
            hist.observe(500.0)
        for step in range(4):  # 0..3s violating: still pending
            timeline.sample_once(now=float(step))
            engine.evaluate(now=float(step))
        assert engine.fired == 0
        states = {r["rule"]: r["state"] for r in engine.status()["rules"]}
        assert states["hot"] == "pending"
        timeline.sample_once(now=5.0)
        engine.evaluate(now=5.0)  # >= for_s: fires
        assert engine.fired == 1

    def test_burn_rate_rule_follows_slo(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        timeline = Timeline(registry)
        slo_engine = SloEngine(timeline, [
            Slo("lat_slo", series="lat", field="p95", threshold=25.0,
                target=0.95, fast_window_s=3.0, slow_window_s=6.0,
                min_samples=1)])
        journal = EventJournal()
        engine = AlertEngine(timeline, [BurnRateRule("burn", "lat_slo")],
                             slo_engine=slo_engine, journal=journal)
        for _ in range(50):
            hist.observe(500.0)
        for step in range(8):
            timeline.sample_once(now=float(step))
            engine.evaluate(now=float(step))
        assert engine.fired == 1
        event = journal.events(kind="alert")[0]
        assert event["rule"] == "burn" and event["slo"] == "lat_slo"

    def test_drift_rule_fires_once_and_resets(self):
        journal = EventJournal()
        rule = DriftRule("drift", "lat", field="p95",
                         detector="rolling_mean", short=2, long=6,
                         z_threshold=4.0)
        registry = MetricsRegistry()
        hist = registry.histogram("lat", window_size=16)
        timeline = Timeline(registry)
        engine = AlertEngine(timeline, [rule], journal=journal)
        import random
        rng = random.Random(0)
        for step in range(30):
            for _ in range(16):
                hist.observe(rng.gauss(50.0 if step >= 15 else 4.0, 0.3))
            timeline.sample_once(now=float(step))
            engine.evaluate(now=float(step))
        assert rule.detections >= 1
        events = journal.events(kind="drift")
        assert events and events[0]["rule"] == "drift"
        assert events[0]["state"] == "fired"
        # drift rules never latch: status shows "watch", not "firing"
        status = {r["rule"]: r["state"] for r in engine.status()["rules"]}
        assert status["drift"] == "watch"

    def test_rule_errors_are_isolated(self):
        ok_rule = ThresholdRule("ok", "lat", field="p95", op="gt",
                                threshold=1e9)
        bad = ThresholdRule("bad", "lat", field="p95", op="gt", threshold=0.0)
        bad.check = lambda *a, **k: 1 / 0  # sabotage one rule
        hist, timeline, engine = self._setup([bad, ok_rule])
        hist.observe(1.0)
        timeline.sample_once(now=1.0)
        statuses = engine.evaluate(now=1.0)
        assert engine.rule_errors == 1
        assert len(statuses) == 2  # surviving rule still evaluated

    def test_unknown_detector_or_op(self):
        with pytest.raises(AlertError):
            DriftRule("x", "s", detector="nope")
        with pytest.raises(AlertError):
            ThresholdRule("x", "s", op="nope")


class TestMonitor:
    def test_monitor_ticks_evaluate_slos_and_alerts(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        monitor = Monitor(
            registry, interval_s=1.0,
            slos=[Slo("lat_slo", series="lat", field="p95", threshold=25.0,
                      fast_window_s=3.0, slow_window_s=9.0, min_samples=1)],
            rules=[ThresholdRule("hot", "lat", field="p95", op="gt",
                                 threshold=100.0)])
        for _ in range(50):
            hist.observe(500.0)
        for step in range(4):
            monitor.tick(now=float(step))
        status = monitor.status()
        assert status["slos"][0]["breaching"]
        assert status["alerts"]["fired"] == 1
        assert status["timeline"]["samples"] == 4
        json.dumps(status)  # must stay serializable

    def test_monitor_lifecycle_events_and_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        registry = MetricsRegistry()
        monitor = Monitor(registry, interval_s=0.02, journal_path=str(path))
        monitor.start()
        assert monitor.running
        monitor.event("deploy", model="vital", version=3)
        deadline = time.perf_counter() + 5.0
        while monitor.timeline.samples < 2 and time.perf_counter() < deadline:
            time.sleep(0.01)
        monitor.stop()
        assert not monitor.running
        kinds = [e["kind"] for e in EventJournal.read(path, strict=True)]
        assert kinds[0] == "monitor_started"
        assert "deploy" in kinds
        assert kinds[-1] == "monitor_stopped"

    def test_default_serving_rule_and_slo_names(self):
        slos = default_serving_slos()
        rules = default_serving_rules()
        assert [s.name for s in slos] == ["request_latency", "request_errors"]
        assert {r.name for r in rules} == {
            "latency_p95_high", "latency_drift", "error_rate_shift",
            "trace_loss"}


class TestSatellites:
    def test_histogram_summary_has_lifetime_sum(self):
        hist = Histogram(window_size=4)
        assert hist.summary()["sum"] == 0.0
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):  # 1.0 leaves the window
            hist.observe(v)
        summ = hist.summary()
        assert summ["sum"] == 15.0  # lifetime, not window
        assert summ["count"] == 5
        assert summ["window"] == 4

    def test_prometheus_exposition_has_count_and_sum(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_ms", {"route": "a"})
        hist.observe(2.0)
        hist.observe(4.0)
        text = registry.to_prometheus()
        assert 'lat_ms_count{route="a"} 2' in text
        assert 'lat_ms_sum{route="a"} 6' in text
        assert 'lat_ms_window{route="a"} 2' in text

    def test_tracer_collect_exports_all_counters(self):
        tracer = Tracer(sample_rate=1.0, capacity=2)
        registry = MetricsRegistry()
        registry.add_collector(tracer.collect)
        for _ in range(3):
            tracer.sample()
        series = {e["name"]: e for e in registry.snapshot()["series"]}
        assert series["serve_traces_sampled_total"]["value"] == 3.0
        assert series["serve_traces_buffer_capacity"]["value"] == 2.0
        assert series["serve_traces_sample_rate"]["value"] == 1.0
        assert series["serve_traces_dropped_total"]["kind"] == "counter"

    def test_collector_exception_isolation(self):
        registry = MetricsRegistry()
        registry.counter("direct").inc(5)
        registry.add_collector(lambda: [
            {"name": "good", "kind": "gauge", "value": 1.0}])

        def explode():
            raise RuntimeError("collector crashed")

        registry.add_collector(explode)
        registry.add_collector(lambda: [
            {"name": "after", "kind": "gauge", "value": 2.0}])
        names = {e["name"] for e in registry.snapshot()["series"]}
        # the raising collector is skipped; everything else survives
        assert {"direct", "good", "after"} <= names
        assert registry.collector_errors == 1
        text = registry.to_prometheus()
        assert "direct 5" in text and "after 2" in text
        assert registry.collector_errors == 2

    def test_malformed_collector_entry_is_isolated(self):
        registry = MetricsRegistry()
        registry.add_collector(lambda: [{"kind": "gauge"}])  # missing name
        registry.add_collector(lambda: [
            {"name": "fine", "kind": "gauge", "value": 3.0}])
        names = {e["name"] for e in registry.snapshot()["series"]}
        assert "fine" in names
        assert registry.collector_errors == 1


@pytest.fixture(scope="module")
def tiny_server(tmp_path_factory):
    from repro.serve import LocalizationServer
    from repro.serve.bench import make_session

    journal = tmp_path_factory.mktemp("monitor") / "journal.jsonl"
    session = make_session(image_size=12, num_classes=4, seed=0)
    server = LocalizationServer(
        session, workers=1, max_delay_ms=1.0, monitor=True,
        monitor_interval_s=0.05, journal_path=str(journal))
    server.start()
    yield server, str(journal)
    server.close()


class TestServerIntegration:
    def test_monitor_runs_with_server_and_stats_key(self, tiny_server):
        server, _ = tiny_server
        rng = np.random.default_rng(0)
        images = rng.standard_normal((4, 12, 12, 3)).astype(np.float32)
        for _ in range(10):
            server.result(server.submit(images[:2]), timeout=60.0)
        deadline = time.perf_counter() + 10.0
        while (server.monitor.timeline.samples < 3
               and time.perf_counter() < deadline):
            time.sleep(0.02)
        stats = server.stats()
        assert stats["monitor"]["running"]
        assert stats["monitor"]["timeline"]["samples"] >= 3
        json.dumps(stats)
        points = server.monitor.timeline.query(
            "serve_requests_total", {"status": "completed"})
        assert points and points[-1]["value"] >= 10

    def test_injected_spike_fires_alert_through_real_path(self, tiny_server):
        server, journal_path = tiny_server
        with server._lock:
            for _ in range(4096):
                server._request_latency.add(500.0)
        deadline = time.perf_counter() + 10.0
        fired = []
        while not fired and time.perf_counter() < deadline:
            fired = server.monitor.journal.events(kind="alert")
            time.sleep(0.02)
        assert fired, "latency spike did not fire an alert"
        assert fired[0]["rule"] == "latency_p95_high"
        events = EventJournal.read(journal_path, strict=True)
        assert any(e["kind"] == "alert" for e in events)

    def test_monitor_disabled_by_default(self):
        from repro.serve import LocalizationServer
        from repro.serve.bench import make_session
        session = make_session(image_size=12, num_classes=4, seed=0)
        server = LocalizationServer(session, workers=1)
        assert server.monitor is None
        assert server.stats()["monitor"] is None


class TestFleetJournal:
    @pytest.mark.slow
    def test_fleet_lifecycle_events_reach_journal(self, tmp_path):
        from repro.fleet import FleetServer, ModelRegistry
        from repro.serve.bench import make_session

        registry_dir = tmp_path / "registry"
        journal = tmp_path / "journal.jsonl"
        registry = ModelRegistry(str(registry_dir))
        session = make_session(image_size=12, num_classes=4, seed=0)
        v1 = registry.publish("vital", session)
        v2 = registry.publish("vital", session.snapshot())
        with FleetServer(registry, workers=1, monitor=True,
                         monitor_interval_s=0.1,
                         journal_path=str(journal)) as fleet:
            fleet.deploy("vital", v1)
            rng = np.random.default_rng(0)
            images = rng.standard_normal((4, 12, 12, 3)).astype(np.float32)
            for _ in range(4):
                fleet.result(fleet.submit(images[:2], model="vital"),
                             timeout=60.0)
            fleet.swap("vital", v2)
        events = EventJournal.read(journal, strict=True)
        kinds = [e["kind"] for e in events]
        assert "deploy" in kinds
        assert "swap" in kinds
        swap = next(e for e in events if e["kind"] == "swap")
        assert swap["model"] == "vital"
        assert swap["to_version"] == v2
        assert kinds[-1] == "monitor_stopped"
