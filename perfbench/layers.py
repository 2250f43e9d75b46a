"""Per-layer metrics of the traced run, and what each one should move.

Every metric is listed in ``PER_LAYER`` with its unit, its direction, the
repo module it measures and the end-to-end metric (and workload) a change
to that layer should move.  ``host.py`` computes the host-side ones from
the wrappers in :class:`Timings`, the server's span chains
(``trace_sample=1.0``, ``profile=True``), ``stats()`` and
``GatewayServer.summary()``; ``run.py`` adds the generator-side ones.  A
layer a workload does not pass through reads 0 on that workload (no
gateway on ``bulk_int8``, no cache lookups on ``gw_unique``).  Of the
end-to-end figures named, ``cpu_ms_per_sample`` is gated; the wall-clock
ones (``latency_p50_ms``, ``capacity_per_s``, ``slo_met_ratio``) are
printed next to it.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

GW = "gw_unique, gw_colocated"
BULK = "cpu_ms_per_sample, capacity_per_s on bulk_int8"
#: name, unit, better, layer (module), end-to-end metric it should move.
PER_LAYER = [
    ("gateway.protocol.decode_us_p50", "us", "lower", "serve.gateway.protocol",
     "cpu_ms_per_sample, latency_p50_ms on gw_colocated (largest share) and "
     "gw_unique; no change on bulk_int8"),
    ("gateway.protocol.request_bytes", "bytes", "lower",
     "serve.gateway.protocol", "as decode_us_p50"),
    ("gateway.cache.hit_ratio", "ratio", "higher", "serve.gateway.cache",
     "cpu_ms_per_sample, latency_p50_ms on gw_colocated; base: lookups; "
     "no change on gw_unique (cache off)"),
    ("gateway.cache.lookup_us_p50", "us", "lower", "serve.gateway.cache",
     "cpu_ms_per_sample, latency_p50_ms on gw_colocated"),
    ("gateway.cache.entries", "count", "higher", "serve.gateway.cache",
     "rp_match_ratio, mean_error_m on gw_colocated (1 entry = every "
     "reading collides on one 2 dB key)"),
    ("gateway.server.request_ms_p50", "ms", "lower", "serve.gateway.server",
     "latency_p50_ms on gw_unique (gateway-side, from its request traces)"),
    ("gateway.server.overhead_ms_p50", "ms", "lower", "serve.gateway.server",
     "latency_p50_ms on gw_unique (difference of medians: gateway miss "
     "p50 minus server request p50)"),
    ("gateway.server.window_stalls", "count", "lower", "serve.gateway.server",
     f"latency_p50_ms, capacity_per_s on {GW}"),
    ("serve.admission.admitted", "count", "higher", "serve.admission",
     "ok_ratio, slo_met_ratio on all"),
    ("serve.admission.rejected", "count", "lower", "serve.admission",
     "ok_ratio, slo_met_ratio on all"),
    ("serve.admission.shed", "count", "lower", "serve.admission",
     "ok_ratio, slo_met_ratio on all"),
    ("serve.admission.expired", "count", "lower", "serve.admission",
     "ok_ratio, slo_met_ratio on all"),
    ("serve.server.submit_us_p50", "us", "lower", "serve.server",
     f"latency_p50_ms on gw_unique; {BULK}"),
    ("serve.batcher.queue_wait_ms_p50", "ms", "lower", "serve.batcher",
     "latency_p50_ms on gw_unique (predicted largest bar at 200 req/s)"),
    ("serve.batcher.batch_form_ms_p50", "ms", "lower", "serve.batcher",
     f"latency_p50_ms on gw_unique; {BULK}"),
    ("serve.batcher.batch_size_mean", "samples", "higher", "serve.batcher",
     f"{BULK}; latency_p50_ms on gw_unique"),
    ("serve.server.complete_ms_p50", "ms", "lower", "serve.server",
     f"latency_p50_ms on gw_unique; {BULK}"),
    ("serve.shm.write_ms_p50", "ms", "lower", "serve.shm", BULK),
    ("serve.shm.spill_ratio", "ratio", "lower", "serve.shm",
     f"{BULK}; base: batches"),
    ("serve.shm.mb_per_s", "MB/s", "higher", "serve.shm",
     f"{BULK}; computed from tensor sizes"),
    ("infer.compute_ms_p50", "ms", "lower", "infer.session",
     f"{BULK}, with latency_p50_ms; small share on gw_unique"),
    ("infer.compute_us_per_sample", "us", "lower", "infer.session", BULK),
    ("infer.phase_ms.patch_gather", "ms", "lower", "infer.kernels", BULK),
    ("infer.phase_ms.embed", "ms", "lower", "infer.kernels", BULK),
    ("infer.phase_ms.block0", "ms", "lower", "infer.kernels", BULK),
    ("infer.phase_ms.final_norm_pool", "ms", "lower", "infer.kernels", BULK),
    ("infer.phase_ms.head", "ms", "lower", "infer.kernels", BULK),
    ("infer.inprocess_ms_per_batch", "ms", "lower", "quant.session",
     f"{BULK} (session.predict_many, same 32 samples)"),
    ("infer.kernels.mflop_per_sample", "MFLOP", "lower", "infer.kernels",
     f"{BULK}; computed from gemm_sites()"),
    ("infer.kernels.weight_mb", "MB", "lower", "infer.kernels",
     f"peak_rss_mb, {BULK}; computed from gemm_sites()"),
    ("obs.trace_overhead_ratio", "ratio", "lower", "obs.trace",
     "none (tracing cost: traced p50 / untraced p50)"),
    ("obs.span_coverage_ratio", "ratio", "higher", "obs.trace",
     "none (median share of client latency the measured spans cover)"),
    ("vit.train_s", "s", "lower", "vit",
     "none (offline set-up, timed around VitalLocalizer.fit)"),
    ("loadgen.late_p99_ms", "ms", "lower", "load generator",
     "none (generator health: send time minus due time)"),
    ("loadgen.unanswered", "count", "lower", "load generator",
     "ok_ratio on all (requests with no answer at run end)"),
]

PHASES = ("patch_gather", "embed", "block0", "final_norm_pool", "head")


def p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


class Timings:
    """Wall-clock samples ``(start, seconds, request id or None)`` per
    wrapped call name."""

    def __init__(self):
        self.samples: dict[str, list] = defaultdict(list)

    def wrap(self, name: str, fn):
        samples = self.samples[name]

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append((start, time.perf_counter() - start, None))

        return timed

    def timed_decoder(self, base):
        """A ``FrameDecoder`` subclass whose ``feed`` records the time
        spent producing each decoded message, keyed by its request id."""
        samples = self.samples["feed"]

        class TimedDecoder(base):
            def feed(self, data):
                events = super().feed(data)
                while True:
                    start = time.perf_counter()
                    try:
                        event = next(events)
                    except StopIteration:
                        return
                    rid = event[1].get("id") if event[0] == "msg" else None
                    samples.append((start, time.perf_counter() - start, rid))
                    yield event

        return TimedDecoder

    def seconds(self, name: str, window) -> np.ndarray:
        t0, t1 = window
        return np.array([d for s, d, _rid in self.samples.get(name, ())
                         if t0 <= s <= t1])

    def paired_us(self, first: str, second: str, window) -> np.ndarray:
        """Per-call sum of two wrapped calls made once each per request
        (feed+parse, key+get), paired in call order."""
        a, b = self.seconds(first, window), self.seconds(second, window)
        n = min(len(a), len(b))
        return (a[:n] + b[:n]) * 1e6


def _span_p50(traces, name) -> float:
    return p50([s["duration_ms"] for t in traces for s in t["spans"]
                if s["name"] == name])


def host_metrics(server, gateway, session, timings: Timings, window) -> dict:
    """Every host-side per-layer metric for requests started in ``window``."""
    t0, t1 = window
    stats = server.stats()
    traces = [t.to_dict() for t in server.traces()
              if t.spans and t0 <= t.spans[0].start <= t1]
    batches: dict[tuple, dict] = {}
    for trace in traces:
        compute = next(s for s in trace["spans"] if s["name"] == "compute")
        batch = batches.setdefault((trace["shard"], compute["start"]), {
            "samples": 0, "compute_ms": compute["duration_ms"],
            "phases": trace.get("compute_phases") or {}})
        batch["samples"] += trace["n"]
    samples = sum(b["samples"] for b in batches.values())
    info = server.route_info()
    sample_bytes = 4 * (info["image_size"] ** 2 * info["channels"]
                        + info["num_classes"])
    transport = stats["transport"]
    n_batches = transport["shm_batches"] + transport["pickle_batches"]
    counters = stats["admission"]["counters"].get("default", {})
    out = {
        "serve.admission.admitted": counters.get("admitted", 0),
        "serve.admission.rejected": counters.get("rejected", 0),
        "serve.admission.shed": counters.get("shed", 0),
        "serve.admission.expired": counters.get("expired", 0),
        "serve.server.submit_us_p50":
            p50(timings.seconds("submit", window) * 1e6),
        "serve.batcher.queue_wait_ms_p50": _span_p50(traces, "enqueue"),
        "serve.batcher.batch_form_ms_p50": _span_p50(traces, "batch_form"),
        "serve.batcher.batch_size_mean":
            samples / len(batches) if batches else 0.0,
        "serve.server.complete_ms_p50": _span_p50(traces, "complete"),
        "serve.shm.write_ms_p50": _span_p50(traces, "shm_write"),
        "serve.shm.spill_ratio":
            transport["spills"] / n_batches if n_batches else 0.0,
        "serve.shm.mb_per_s": samples * sample_bytes / (t1 - t0) / 1e6,
        "infer.compute_ms_p50":
            p50([b["compute_ms"] for b in batches.values()]),
        "infer.compute_us_per_sample":
            1e3 * sum(b["compute_ms"] for b in batches.values()) / samples
            if samples else 0.0,
    }
    for phase in PHASES:
        out[f"infer.phase_ms.{phase}"] = p50(
            [b["phases"][phase]["total_ms"] for b in batches.values()
             if phase in b["phases"]])
    out.update(_kernel_metrics(session))
    out.update(_gateway_metrics(gateway, traces, timings, window))
    out["coverage"] = (coverage_ms(gateway, timings, window)
                       if gateway is not None else {})
    return out


def inprocess_ms(session, batch, repeats: int = 21) -> float:
    """Median in-process ``predict_many`` time on one batch."""
    session.predict_many(batch)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        session.predict_many(batch)
        times.append((time.perf_counter() - start) * 1e3)
    return p50(times)


def _kernel_metrics(session) -> dict:
    flops = weight_bytes = 0
    for site in session.gemm_sites():
        rows = site["m"] if site["m"] is not None else 1
        flops += 2 * rows * site["k"] * site["n"]
        weight_bytes += site["k"] * site["n"] * (
            1 if site["weight"] == "int8" else 4)
    return {"infer.kernels.mflop_per_sample": flops / 1e6,
            "infer.kernels.weight_mb": weight_bytes / 1e6}


def _gateway_metrics(gateway, server_traces, timings, window) -> dict:
    names = [name for name, *_ in PER_LAYER if name.startswith("gateway.")]
    if gateway is None:
        return dict.fromkeys(names, 0.0)
    t0, t1 = window
    traces = [t for t in gateway.tracer.traces()
              if t.spans and t0 <= t.spans[0].start <= t1]
    misses = [t.total_ms for t in traces if t.transport == "server"]
    server_ms = [t["total_ms"] for t in server_traces]
    summary = gateway.summary()
    cache = summary["cache"]
    lookups = cache["hits"] + cache["misses"]
    received = summary["requests"]["received"]
    return {
        "gateway.protocol.decode_us_p50":
            p50(timings.paired_us("feed", "parse", window)),
        "gateway.protocol.request_bytes":
            summary["bytes"]["in"] / received if received else 0.0,
        "gateway.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "gateway.cache.lookup_us_p50":
            p50(timings.paired_us("cache_key", "cache_get", window)),
        "gateway.cache.entries": cache["entries"],
        "gateway.server.request_ms_p50": p50([t.total_ms for t in traces]),
        "gateway.server.overhead_ms_p50":
            p50(misses) - p50(server_ms) if misses else 0.0,
        "gateway.server.window_stalls": summary["inflight"]["window_stalls"],
    }


def coverage_ms(gateway, timings, window) -> dict:
    """Per request id: measured gateway time (decode plus the gateway's
    own request trace), to set against the client-observed latency."""
    t0, t1 = window
    decode = {rid: d * 1e3 for s, d, rid in timings.samples.get("feed", ())
              if rid is not None and t0 <= s <= t1}
    return {str(t.request_id): t.total_ms + decode.get(t.request_id, 0.0)
            for t in gateway.tracer.traces()
            if t.spans and t0 <= t.spans[0].start <= t1}
