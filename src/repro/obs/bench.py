"""Observability and monitoring drills behind the ``observability`` and
``monitoring`` sections of ``BENCH_serving.json`` (see :mod:`repro.bench`).

Tracing (``observability``):

* **span-chain check** — serve a closed loop with ``trace_sample=1.0``
  and assert every completed request carries a complete
  enqueue→batch→transport→compute→complete chain whose span durations
  sum to within 10% of the trace's own end-to-end time (contiguous
  stamps make this exact server-side; the gate also compares against
  client-measured latency).
* **overhead A/B/A** — three arms (tracing off, tracing at 1.0, tracing
  off again) interleaved round-robin so OS noise hits them all equally.
  Gates: 100% sampling may cost at most 5% p50 over the disabled median,
  and the two disabled arms must sit within the noise floor of each
  other — with tracing off the only added work is one boolean per
  request/batch, so any disabled-path regression larger than that A/A
  spread would be detectable, and none is.

Monitoring (``monitoring``):

* **overhead A/B/A** — monitor off, monitor at the default 0.5 s cadence
  with the default SLO/rule set, monitor off again; same gates as the
  tracing overhead.
* **seeded drift drill** — a fully deterministic timeline driven by
  ``sample_once(now=...)`` over a synthetic latency histogram: the
  *drift arm* shifts its mean from 4 ms to 8 ms at a known interval, the
  *calm arm* stays stationary with a different seeded stream.  Both the
  Page–Hinkley and rolling-mean detectors watch the p95 series.  Gates:
  every detector flags the shift within ≤ 3 sampling intervals of
  injection, and fires **zero** alerts across the calm arm's full run.

:func:`trace_smoke` and :func:`monitor_smoke` are the CI lanes: the
span-chain contract plus one quick overhead round, and a real server
whose injected latency spike must fire an alert into a well-formed
journal line.
"""

import json
import os
import random
import statistics
import tempfile
import time

import numpy as np

from repro.obs import (AlertEngine, DriftRule, EventJournal, MetricsRegistry,
                       Timeline)
from repro.serve import loadgen
from repro.serve.bench import make_session
from repro.serve.server import LocalizationServer

#: Default sampling cadence the monitoring overhead gate is recorded at
#: (the ``monitor_interval_s`` default of ``LocalizationServer``).
DEFAULT_CADENCE_S = 0.5


def _images(session, samples: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(
        (samples, session.image_size, session.image_size, session.channels),
        dtype=np.float32,
    )


def run_span_check(quick: bool = False, seed: int = 0,
                   workers: int = 2) -> dict:
    """Serve under 100% sampling; verify every trace's chain + timing."""
    requests = 24 if quick else 120
    request_size = 2
    session = make_session(seed=seed)
    images = _images(session, request_size * 4, seed=seed)
    traced = []
    client_ms = []
    with LocalizationServer(session, workers=workers, max_delay_ms=1.0,
                            trace_sample=1.0, trace_buffer=requests + 8,
                            profile=True) as server:
        for index in range(requests):
            block = images[(index % 4) * request_size:][:request_size]
            start = time.perf_counter()
            request_id = server.submit(block)
            _logits, breakdown = server.result_with_breakdown(
                request_id, timeout=60.0
            )
            client_ms.append((time.perf_counter() - start) * 1e3)
            traced.append(breakdown)
    missing = sum(1 for b in traced if b is None)
    complete = sum(1 for b in traced if b is not None and b["complete"])
    # contiguity: span durations must reproduce the trace's own total
    sum_vs_total = [
        sum(s["duration_ms"] for s in b["spans"]) / b["total_ms"]
        for b in traced if b is not None and b["total_ms"] > 0
    ]
    # and the server-side total must account for the client-observed
    # latency (client adds submit/result call overhead on top)
    sum_vs_client = [
        sum(s["duration_ms"] for s in b["spans"]) / ms
        for b, ms in zip(traced, client_ms) if b is not None and ms > 0
    ]
    phases = sum(1 for b in traced
                 if b is not None and b.get("compute_phases"))
    result = {
        "requests": requests,
        "request_size": request_size,
        "traced": len(traced) - missing,
        "untraced": missing,
        "complete_chains": complete,
        "span_sum_vs_total_median": (statistics.median(sum_vs_total)
                                     if sum_vs_total else None),
        "span_sum_vs_client_median": (statistics.median(sum_vs_client)
                                      if sum_vs_client else None),
        "compute_phase_breakdowns": phases,
    }
    ratio = result["span_sum_vs_client_median"]
    result["ok"] = bool(
        missing == 0
        and complete == requests
        and result["span_sum_vs_total_median"] is not None
        and abs(result["span_sum_vs_total_median"] - 1.0) < 1e-6
        and ratio is not None and abs(ratio - 1.0) <= 0.10
        and phases == requests
    )
    return result


def _arm_p50(requests: int, request_size: int, workers: int, seed: int,
             **server_options) -> float:
    """One closed-loop overhead arm (``server_options`` set what the arm
    switches on); returns its p50 request latency (ms)."""
    session = make_session(seed=seed)
    images = _images(session, request_size * 4, seed=seed)

    def block(_client: int, step: int) -> np.ndarray:
        return images[(step % 4) * request_size:][:request_size]

    with LocalizationServer(session, workers=workers, max_delay_ms=1.0,
                            **server_options) as server:
        target = loadgen.ServerTarget(server)
        # warmup: populate worker caches / branch predictors off the clock
        loadgen.run(target, block, requests=4)
        run = loadgen.run(target, block, requests=requests)
    return run.latency_ms()["p50_ms"]


def _overhead(arms: dict[str, dict], quick: bool, seed: int,
              workers: int) -> dict:
    """Interleaved A/B/A: ``arms`` maps ``disabled_a``/``enabled``/
    ``disabled_b`` to the server options each arm runs with."""
    rounds = 2 if quick else 5
    requests = 20 if quick else 60
    request_size = 2
    p50s = {name: [] for name in arms}
    for round_index in range(rounds):
        for name, options in arms.items():
            p50s[name].append(_arm_p50(requests, request_size, workers,
                                       seed + round_index, **options))
    median = {name: statistics.median(values)
              for name, values in p50s.items()}
    disabled_p50 = statistics.median([median["disabled_a"],
                                      median["disabled_b"]])
    enabled_ratio = median["enabled"] / disabled_p50
    aa_ratio = max(median["disabled_a"], median["disabled_b"]) \
        / min(median["disabled_a"], median["disabled_b"])
    # Noise floor: the spread two identical (switched-off) configurations
    # show on this host.  The disabled path differs from pre-obs code by
    # one boolean check per request/batch; "no statistically detectable
    # regression" = the A/A arms are within that measured floor (25%
    # headroom for scheduler jitter on a 1-core container).
    return {
        "rounds": rounds,
        "requests_per_round": requests,
        "request_size": request_size,
        "p50_ms": median,
        "per_round_p50_ms": p50s,
        "disabled_p50_ms": disabled_p50,
        "enabled_p50_ratio": enabled_ratio,
        "disabled_aa_ratio": aa_ratio,
        "enabled_ok": bool(enabled_ratio <= 1.05),
        "disabled_ok": bool(aa_ratio <= 1.25),
    }


def run_trace_overhead(quick: bool = False, seed: int = 0,
                       workers: int = 2) -> dict:
    """Interleaved A/B/A: disabled, 100% sampling, disabled."""
    off = {"trace_sample": 0.0}
    return _overhead({"disabled_a": off, "enabled": {"trace_sample": 1.0},
                      "disabled_b": off}, quick, seed, workers)


def trace_smoke(seed: int = 0) -> list[str]:
    """CI lane: span-chain contract + one quick overhead sanity round;
    returns the problems found (empty = pass)."""
    spans = run_span_check(quick=True, seed=seed)
    print(json.dumps(spans, indent=2))
    if not spans["ok"]:
        return ["span-chain contract violated"]
    overhead = run_trace_overhead(quick=True, seed=seed)
    print(json.dumps({k: v for k, v in overhead.items()
                      if k != "per_round_p50_ms"}, indent=2))
    # Quick mode asserts only the A/A noise sanity (too few samples on a
    # shared CI runner to gate the 5% enabled bound reliably); the
    # committed record carries the full gate.
    if not overhead["disabled_ok"]:
        return ["disabled arms outside the noise floor"]
    return []


# ---------------------------------------------------------------------------
# monitoring
# ---------------------------------------------------------------------------


def run_monitor_overhead(quick: bool = False, seed: int = 0,
                         workers: int = 2) -> dict:
    """Interleaved A/B/A: monitor off, monitor at default cadence, off."""
    off = {"monitor": False}
    on = {"monitor": True, "monitor_interval_s": DEFAULT_CADENCE_S}
    return {"cadence_s": DEFAULT_CADENCE_S,
            **_overhead({"disabled_a": off, "enabled": on,
                         "disabled_b": off}, quick, seed, workers)}


_DETECTORS = {
    # The drill's histogram window equals one interval's samples, so the
    # p95 points are independent draws — PH can run tighter than its
    # autocorrelation-hardened default.
    "page_hinkley": {"delta": 0.3, "lamb": 12.0},
    "rolling_mean": {"short": 2, "long": 16, "z_threshold": 4.0},
}


def _drill_arm(shift_at: int | None, intervals: int, seed: int) -> dict:
    """Drive one synthetic arm through the full timeline→detector path.

    Feeds ``samples_per_interval`` latency draws per interval into a real
    registry histogram, samples the timeline on a synthetic clock, and
    runs one :class:`DriftRule` per detector over the p95 series.  The
    mean jumps 4 ms → 8 ms at interval ``shift_at`` (``None`` = calm arm).
    Returns per-detector detection intervals and total alerts.
    """
    interval_s = 0.25
    samples_per_interval = 40
    rng = random.Random(seed)
    registry = MetricsRegistry()
    # Window = one interval's samples: each sampled p95 point describes
    # fresh draws, keeping the detector inputs independent.
    hist = registry.histogram("drill_latency_ms",
                              window_size=samples_per_interval)
    timeline = Timeline(registry, interval_s=interval_s, retention=intervals)
    rules = {
        name: DriftRule(f"drift_{name}", "drill_latency_ms", field="p95",
                        detector=name, direction="up", **kwargs)
        for name, kwargs in _DETECTORS.items()
    }
    journal = EventJournal()
    engine = AlertEngine(timeline, list(rules.values()), journal=journal)
    detected_at = {name: None for name in rules}
    t0 = 1_000_000.0
    for interval in range(intervals):
        mean = 8.0 if shift_at is not None and interval >= shift_at else 4.0
        for _ in range(samples_per_interval):
            hist.observe(rng.gauss(mean, 0.4))
        now = t0 + interval * interval_s
        timeline.sample_once(now=now)
        engine.evaluate(now=now)
        for name, rule in rules.items():
            if detected_at[name] is None and rule.detections > 0:
                detected_at[name] = interval
    return {
        "intervals": intervals,
        "interval_s": interval_s,
        "samples_per_interval": samples_per_interval,
        "shift_at": shift_at,
        "detected_at": detected_at,
        "alerts": engine.fired,
        "journal_events": len(journal),
    }


def run_drift_drill(quick: bool = False, seed: int = 0) -> dict:
    """Drift vs calm arms; gates detection latency and false positives."""
    intervals = 60 if quick else 200
    shift_at = intervals // 2
    drift = _drill_arm(shift_at, intervals, seed=seed)
    calm = _drill_arm(None, intervals, seed=seed + 1)
    latencies = {
        name: (None if at is None else at - shift_at)
        for name, at in drift["detected_at"].items()
    }
    detected_ok = all(lat is not None and 0 <= lat <= 3
                      for lat in latencies.values())
    calm_ok = calm["alerts"] == 0
    return {
        "drift_arm": drift,
        "calm_arm": calm,
        "detection_latency_intervals": latencies,
        "max_detection_latency_intervals": 3,
        "calm_alerts": calm["alerts"],
        "detected_ok": bool(detected_ok),
        "calm_ok": bool(calm_ok),
        "ok": bool(detected_ok and calm_ok),
    }


def monitor_smoke(seed: int = 0) -> list[str]:
    """CI lane: real server + sampler, injected latency spike, assert the
    alert fires and the journal line is well-formed; returns the problems
    found (empty = pass)."""
    session = make_session(seed=seed)
    images = _images(session, 8, seed=seed)
    journal_path = os.path.join(tempfile.mkdtemp(prefix="obs_monitor_"),
                                "journal.jsonl")
    deadline_s = 30.0
    with LocalizationServer(session, workers=2, max_delay_ms=1.0,
                            monitor=True, monitor_interval_s=0.1,
                            journal_path=journal_path) as server:
        for index in range(24):  # calm traffic establishes the series
            server.result(server.submit(images[:2]), timeout=60.0)
        time.sleep(0.3)
        assert server.monitor.timeline.samples > 0, "sampler never ran"
        # Spike the reservoir the sampler scrapes: the alert must flow
        # through the real reservoir→collector→registry→timeline→rule
        # path, not a synthetic series.
        with server._lock:
            for _ in range(256):
                server._request_latency.add(500.0)
        fired = False
        deadline = time.perf_counter() + deadline_s
        while time.perf_counter() < deadline:
            if server.monitor.journal.events(kind="alert"):
                fired = True
                break
            time.sleep(0.05)
        status = server.monitor.status()
    if not fired:
        return [f"no alert within {deadline_s}s of a 500 ms latency spike "
                f"({json.dumps(status['alerts'])})"]
    events = EventJournal.read(journal_path, strict=True)
    alerts = [e for e in events if e["kind"] == "alert"]
    if not alerts:
        return ["alert fired in memory but not in the journal"]
    alert = alerts[0]
    if alert.get("rule") != "latency_p95_high" or alert.get("state") != "firing":
        return [f"unexpected alert line {alert}"]
    kinds = [e["kind"] for e in events]
    if "monitor_started" not in kinds or "server_started" not in kinds:
        return [f"lifecycle events missing from journal: {kinds}"]
    print(f"alert fired: {alert['rule']} at value {alert['value']:.1f} ms; "
          f"{len(events)} well-formed journal lines")
    return []
