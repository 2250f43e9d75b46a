"""Gateway benchmark: closed-loop *network* load against the front door.

Three lanes, recorded as the ``gateway`` section of
``BENCH_serving.json`` (see :mod:`repro.bench`):

* **connection_scaling** — N simulated devices (16/64/256; each a thread
  owning one framed-JSON connection, snippet-3 style) run closed-loop
  single-fingerprint requests; records requests/s, client-observed
  latency percentiles, and that zero requests were lost at every
  connection count.
* **cache_effectiveness** — a co-location sweep: each lane draws a
  configurable fraction of requests from a small shared fingerprint set
  (identical after RSSI bucketing → cache hits) and the rest unique.
  Records per-lane hit rate, the gateway-side hit/miss latency
  percentiles, and how many requests bypassed inference entirely
  (cross-checked against the serving layer's submitted counter).  The
  acceptance gate: hit-path p50 ≥ 5x lower than miss-path p50.
* **drain_drill** — live concurrent clients while the gateway drains:
  every request accepted before shutdown completes (0 lost), later ones
  get a structured ``draining`` error.

``run_gateway_smoke`` is the CI lane: a 2-worker server behind the
gateway, concurrent socket clients including one slow reader, asserting
zero lost responses and a warm cache.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.serve.bench import make_session
from repro.serve.gateway.client import GatewayClient
from repro.serve.gateway.server import GatewayServer
from repro.serve.server import LocalizationServer

#: The cache gate: recorded hit-path p50 must be at least this many
#: times lower than the miss path.
REQUIRED_CACHE_SPEEDUP = 5.0


def _fingerprint_pool(count: int, image_size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-90.0, -30.0,
                       size=(count, image_size * image_size * 3)
                       ).astype(np.float32)


def _run_clients(host: str, port: int, *, clients: int,
                 requests_per_client: int, pick_fingerprint,
                 timeout: float = 60.0) -> dict:
    """Closed-loop network load: each client thread owns one connection,
    submits a request, blocks for its response, repeats.  Returns
    client-side accounting (every request must come back — ok *or*
    structured error — to count as responded)."""
    latencies: list[list[float]] = [[] for _ in range(clients)]
    counters = {"sent": 0, "responded": 0, "ok": 0, "errors": 0,
                "transport_failures": 0}
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def worker(index: int) -> None:
        sent = responded = ok = errors = failures = 0
        try:
            client = GatewayClient(host, port, timeout=timeout)
        except OSError:
            with lock:
                counters["transport_failures"] += requests_per_client
            barrier.wait()
            barrier.wait()
            return
        barrier.wait()
        try:
            for step in range(requests_per_client):
                fingerprint = pick_fingerprint(index, step)
                begin = time.perf_counter()
                try:
                    rid = client.submit(fingerprint)
                    sent += 1
                    response = client.result(rid, timeout=timeout)
                except (OSError, ConnectionError):
                    failures += 1
                    break
                latencies[index].append(
                    (time.perf_counter() - begin) * 1e3)
                responded += 1
                if response.get("ok"):
                    ok += 1
                else:
                    errors += 1
        finally:
            client.close()
            with lock:
                counters["sent"] += sent
                counters["responded"] += responded
                counters["ok"] += ok
                counters["errors"] += errors
                counters["transport_failures"] += failures
            barrier.wait()

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()  # all connected
    start = time.perf_counter()
    barrier.wait()  # all done
    elapsed = time.perf_counter() - start
    for thread in threads:
        thread.join(timeout=5.0)
    flat = np.array([ms for per in latencies for ms in per],
                    dtype=np.float64)
    summary = {
        "count": int(flat.size),
        "p50_ms": float(np.percentile(flat, 50)) if flat.size else None,
        "p95_ms": float(np.percentile(flat, 95)) if flat.size else None,
        "p99_ms": float(np.percentile(flat, 99)) if flat.size else None,
        "mean_ms": float(flat.mean()) if flat.size else None,
    }
    return {
        **counters,
        "lost": counters["sent"] - counters["responded"],
        "elapsed_s": elapsed,
        "requests_per_s": (counters["responded"] / elapsed
                           if elapsed > 0 else 0.0),
        "latency_ms": summary,
    }


def run_connection_scaling(server, *, client_counts=(16, 64, 256),
                           requests_per_client: int = 6,
                           seed: int = 0, verbose: bool = False) -> list:
    """Closed-loop load at increasing connection counts over one gateway.

    Every request carries a unique fingerprint (all cache misses) so the
    curve measures the multiplexing front end, not the cache."""
    rows = []
    image_size = server.route_info()["image_size"]
    for count in client_counts:
        gateway = GatewayServer(
            server, max_connections=count + 16,
            cache_entries=0,  # scaling lane: measure the loop, not the cache
        ).start()
        try:
            unique = _fingerprint_pool(
                count * requests_per_client, image_size, seed + count)

            def pick(index, step, _pool=unique,
                     _stride=requests_per_client):
                return _pool[index * _stride + step]

            run = _run_clients(gateway.host, gateway.port, clients=count,
                               requests_per_client=requests_per_client,
                               pick_fingerprint=pick)
            summary = gateway.summary()
        finally:
            gateway.close()
        row = {
            "clients": count,
            "requests_per_client": requests_per_client,
            **{k: run[k] for k in ("sent", "responded", "lost", "errors",
                                   "transport_failures", "elapsed_s",
                                   "requests_per_s", "latency_ms")},
            "gateway": {
                "connections_total": summary["connections"]["total"],
                "shed": summary["requests"]["shed"],
                "window_stalls": summary["inflight"]["window_stalls"],
            },
        }
        rows.append(row)
        if verbose:
            print(f"    {count:4d} clients: {row['requests_per_s']:.0f} "
                  f"req/s, p50 {row['latency_ms']['p50_ms']:.2f} ms, "
                  f"lost={row['lost']}", flush=True)
    return rows


def run_cache_effectiveness(server, *, hit_ratios=(0.0, 0.5, 0.9),
                            clients: int = 4, requests_per_client: int = 30,
                            shared_fingerprints: int = 8, step_db: float = 2.0,
                            seed: int = 0, verbose: bool = False) -> dict:
    """The co-location sweep: per-lane hit rate and hit-vs-miss latency.

    A fresh gateway per lane keeps the gateway-side latency reservoirs
    lane-pure; the serving layer's ``submitted`` delta proves cached
    responses never reached inference."""
    image_size = server.route_info()["image_size"]
    # Snap the shared pool to bucket *centers* so a jittered re-reading
    # (below) can never straddle a quantization boundary — co-located
    # requests are guaranteed cache-identical, like the real-world repeats
    # the cache is built for.
    raw = _fingerprint_pool(shared_fingerprints, image_size, seed + 1)
    shared = (np.rint(raw / step_db) * step_db).astype(np.float32)
    lanes = []
    for ratio in hit_ratios:
        gateway = GatewayServer(
            server, max_connections=clients + 8,
            cache_step_db=step_db, cache_entries=4096, cache_ttl_s=300.0,
            trace_sample=0.25,
        ).start()
        try:
            # Warm the shared set so a "co-located" request is a real hit.
            with GatewayClient(gateway.host, gateway.port) as warmer:
                for fingerprint in shared:
                    warmer.localize(fingerprint)
            unique = _fingerprint_pool(
                clients * requests_per_client, image_size, seed + 7)
            choice = np.random.default_rng(seed + 11).random(
                (clients, requests_per_client))

            def pick(index, step, _ratio=ratio, _unique=unique,
                     _choice=choice, _stride=requests_per_client):
                if _choice[index, step] < _ratio:
                    jitter = (_choice[index, step] * 1e3) % 1.0 - 0.5
                    # A dB-scale perturbation of a shared (bucket-center)
                    # fingerprint: quantized-identical, so it must hit.
                    return shared[(index + step) % len(shared)] \
                        + np.float32(jitter * 0.9 * step_db)
                return _unique[index * _stride + step]

            submitted_before = server.stats()["requests"]["submitted"]
            run = _run_clients(gateway.host, gateway.port, clients=clients,
                               requests_per_client=requests_per_client,
                               pick_fingerprint=pick)
            submitted_delta = (server.stats()["requests"]["submitted"]
                               - submitted_before)
            summary = gateway.summary()
            traces = gateway.tracer.traces()
        finally:
            gateway.close()
        cache = summary["cache"]
        total = clients * requests_per_client
        hits = cache["hits"]
        lane = {
            "target_hit_ratio": ratio,
            "requests": total,
            "lost": run["lost"],
            "hits": hits,
            "misses": cache["misses"],
            "hit_rate": cache["hit_rate"],
            "hit_p50_ms": summary["latency_ms"]["hit"]["p50_ms"],
            "miss_p50_ms": summary["latency_ms"]["miss"]["p50_ms"],
            "client_latency_ms": run["latency_ms"],
            # Cached responses bypass inference: the serving layer saw
            # exactly the misses (plus nothing else from this lane).
            "server_submitted_delta": submitted_delta,
            "inference_bypassed": total - submitted_delta,
            "traced_cache_hits": sum(
                1 for trace in traces
                if any(span.name == "cache_hit" for span in trace.spans)),
        }
        lanes.append(lane)
        if verbose:
            print(f"    co-location {ratio:.1f}: hit rate "
                  f"{lane['hit_rate']:.2f}, hit p50 "
                  f"{lane['hit_p50_ms'] or float('nan'):.3f} ms vs miss "
                  f"p50 {lane['miss_p50_ms'] or float('nan'):.3f} ms",
                  flush=True)
    top = max(lanes, key=lambda lane: lane["target_hit_ratio"])
    hit_p50, miss_p50 = top["hit_p50_ms"], top["miss_p50_ms"]
    speedup = (miss_p50 / hit_p50
               if hit_p50 and miss_p50 and hit_p50 > 0 else None)
    return {
        "step_db": step_db,
        "shared_fingerprints": shared_fingerprints,
        "lanes": lanes,
        "total_hits": sum(lane["hits"] for lane in lanes),
        "hit_p50_ms": hit_p50,
        "miss_p50_ms": miss_p50,
        "speedup_hit_vs_miss": speedup,
        "required_speedup": REQUIRED_CACHE_SPEEDUP,
        "gate_cache_speedup": bool(
            speedup is not None and speedup >= REQUIRED_CACHE_SPEEDUP
            and top["hits"] > 0),
    }


def run_drain_drill(server, *, clients: int = 8, warmup_s: float = 0.4,
                    seed: int = 0) -> dict:
    """Graceful shutdown under live load: every request accepted before
    (and during) the drain gets a response — 0 lost."""
    gateway = GatewayServer(server, max_connections=clients + 8,
                            cache_entries=0).start()
    image_size = server.route_info()["image_size"]
    pool = _fingerprint_pool(64, image_size, seed + 3)
    stop = threading.Event()
    lock = threading.Lock()
    counters = {"sent": 0, "responded": 0, "ok": 0, "draining_errors": 0,
                "other_errors": 0, "send_failures": 0}

    def worker(index: int) -> None:
        sent = responded = ok = draining = other = failures = 0
        try:
            client = GatewayClient(gateway.host, gateway.port, timeout=30.0)
        except OSError:
            return
        try:
            step = 0
            while not stop.is_set():
                try:
                    rid = client.submit(pool[(index * 17 + step) % len(pool)])
                    sent += 1
                    response = client.result(rid, timeout=30.0)
                except (OSError, ConnectionError):
                    failures += 1
                    break
                responded += 1
                if response.get("ok"):
                    ok += 1
                elif (response.get("error") or {}).get("code") == "draining":
                    draining += 1
                    break  # the gateway told us it is going away
                else:
                    other += 1
                step += 1
        finally:
            client.close()
            with lock:
                counters["sent"] += sent
                counters["responded"] += responded
                counters["ok"] += ok
                counters["draining_errors"] += draining
                counters["other_errors"] += other
                counters["send_failures"] += failures

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(clients)]
    for thread in threads:
        thread.start()
    time.sleep(warmup_s)
    begin = time.perf_counter()
    gateway.close(timeout=15.0)
    drain_ms = (time.perf_counter() - begin) * 1e3
    stop.set()
    for thread in threads:
        thread.join(timeout=10.0)
    summary = gateway.summary()
    # A request whose *send* failed never reached the gateway; every
    # request that got in must have gotten a response back out.
    lost = counters["sent"] - counters["responded"] \
        - counters["send_failures"]
    return {
        "clients": clients,
        "accepted": counters["sent"] - counters["send_failures"],
        "responded": counters["responded"],
        "ok_responses": counters["ok"],
        "draining_errors": counters["draining_errors"],
        "other_errors": counters["other_errors"],
        "send_failures": counters["send_failures"],
        "lost": lost,
        "drain_latency_ms": drain_ms,
        "gateway_received": summary["requests"]["received"],
        "gateway_responded": summary["requests"]["responded"],
        "gate_drain_zero_lost": bool(
            lost == 0 and counters["ok"] > 0
            and summary["requests"]["responded"]
            >= summary["requests"]["received"]),
    }


def run_gateway_benchmark(image_size: int = 16, num_classes: int = 16,
                          max_batch: int = 32, workers: int = 2,
                          quick: bool = False, seed: int = 0,
                          verbose: bool = True) -> dict:
    """All three gateway lanes over one serving pool; returns the
    ``"gateway"`` section."""
    def log(message: str) -> None:
        if verbose:
            print(message, flush=True)

    client_counts = (4, 8, 16) if quick else (16, 64, 256)
    requests_per_client = 3 if quick else 6
    cache_requests = 12 if quick else 30

    session = make_session(image_size, num_classes, max_batch, seed)
    with LocalizationServer(session, workers=workers, max_batch=max_batch,
                            max_delay_ms=2.0) as server:
        log("  connection-scaling curve "
            f"({'/'.join(str(c) for c in client_counts)} clients)...")
        scaling = run_connection_scaling(
            server, client_counts=client_counts,
            requests_per_client=requests_per_client, seed=seed,
            verbose=verbose)
        log("  cache-effectiveness sweep (co-location 0.0/0.5/0.9)...")
        cache = run_cache_effectiveness(
            server, clients=4, requests_per_client=cache_requests,
            seed=seed + 1, verbose=verbose)
        log("  graceful-drain drill (live clients during shutdown)...")
        drain = run_drain_drill(server, clients=8, seed=seed + 2)
        log(f"  drain: {drain['responded']}/{drain['accepted']} accepted "
            f"answered, lost={drain['lost']}, "
            f"{drain['drain_latency_ms']:.0f} ms")
    return {
        "config": {
            "image_size": image_size,
            "num_classes": num_classes,
            "max_batch": max_batch,
            "workers": workers,
            "quick": quick,
            "seed": seed,
        },
        "connection_scaling": scaling,
        "cache_effectiveness": cache,
        "drain_drill": drain,
    }


def run_gateway_smoke(clients: int = 6, requests_per_client: int = 8,
                      seed: int = 0) -> dict:
    """The CI smoke lane: gateway over a 2-worker server, concurrent
    socket clients *including one slow reader*, zero lost + warm cache."""
    session = make_session(16, 16, 16, seed)
    shared = _fingerprint_pool(4, 16, seed + 1)
    problems: list[str] = []
    with LocalizationServer(session, workers=2, max_batch=16,
                            max_delay_ms=1.0) as server:
        gateway = GatewayServer(server, max_connections=clients + 4,
                                cache_step_db=2.0, cache_entries=256).start()
        try:
            lock = threading.Lock()
            got = {"responses": 0, "ok": 0}

            def normal(index: int) -> None:
                with GatewayClient(gateway.host, gateway.port) as client:
                    for step in range(requests_per_client):
                        response = client.localize(
                            shared[(index + step) % len(shared)])
                        with lock:
                            got["responses"] += 1
                            got["ok"] += bool(response.get("ok"))

            def slow_reader() -> None:
                # Pipeline everything up front, then read slowly — the
                # gateway must buffer (or shed with a structured error),
                # never drop an id.
                with GatewayClient(gateway.host, gateway.port) as client:
                    ids = [client.submit(shared[step % len(shared)])
                           for step in range(requests_per_client)]
                    time.sleep(0.3)
                    for rid in ids:
                        response = client.result(rid, timeout=30.0)
                        time.sleep(0.02)
                        with lock:
                            got["responses"] += 1
                            got["ok"] += bool(response.get("ok")
                                              or (response.get("error") or {})
                                              .get("code") == "overloaded")

            threads = [threading.Thread(target=normal, args=(i,),
                                        daemon=True)
                       for i in range(clients - 1)]
            threads.append(threading.Thread(target=slow_reader, daemon=True))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            expected = clients * requests_per_client
            summary = gateway.summary()
            if got["responses"] != expected:
                problems.append(
                    f"lost responses: {got['responses']}/{expected}")
            if got["ok"] != expected:
                problems.append(
                    f"unexpected failures: {got['ok']}/{expected} ok")
            if summary["cache"]["hits"] <= 0:
                problems.append("no cache hits on a shared fingerprint set")
        finally:
            gateway.close()
    return {
        "clients": clients,
        "requests": clients * requests_per_client,
        "responses": got["responses"],
        "cache_hits": summary["cache"]["hits"],
        "problems": problems,
        "ok": not problems,
    }


def format_gateway_summary(gateway: dict) -> str:
    """Human-readable summary of the gateway section."""
    lines = ["gateway benchmark "
             f"(workers={gateway['config']['workers']}, "
             f"image={gateway['config']['image_size']})"]
    for row in gateway["connection_scaling"]:
        lines.append(
            f"  {row['clients']:4d} clients: {row['requests_per_s']:8.0f} "
            f"req/s, p50 {row['latency_ms']['p50_ms']:.2f} ms, "
            f"lost={row['lost']}")
    cache = gateway["cache_effectiveness"]
    speedup = cache.get("speedup_hit_vs_miss")
    lines.append(
        f"  cache: hit p50 {cache['hit_p50_ms']:.3f} ms vs miss p50 "
        f"{cache['miss_p50_ms']:.3f} ms "
        + (f"({speedup:.1f}x)" if speedup else "(n/a)")
        + f" → {'OK' if cache['gate_cache_speedup'] else 'FAIL'}")
    drain = gateway["drain_drill"]
    lines.append(
        f"  drain: {drain['responded']}/{drain['accepted']} accepted "
        f"answered, lost={drain['lost']} → "
        f"{'OK' if drain['gate_drain_zero_lost'] else 'FAIL'}")
    return "\n".join(lines)
