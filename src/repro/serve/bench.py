"""Serving benchmark: worker-scaling and batching-deadline sweeps, the
kill-one-worker drill and the ring-vs-pickle marshalling comparison.

Four experiments, recorded as the ``serving`` section of
``BENCH_serving.json`` (see :mod:`repro.bench`); their load comes from
:mod:`repro.serve.loadgen`:

* **throughput_vs_workers** — closed-loop clients hammer the server with
  ``max_batch``-sized requests at worker counts 1/2/4; aggregate
  samples-per-second per worker count, plus the speedup over one worker.
  On a single-core host process sharding cannot beat one worker — the
  record carries ``cpu_count`` and a ``hardware_limited`` flag so the
  ≥2x @ 4-workers gate is asserted only where the hardware can express it.
* **deadline_sweep** — single-image closed-loop clients against a fixed
  shard count while the micro-batcher deadline sweeps; reads out the
  batching trade-off (mean coalesced batch size vs request latency).
* **fault_tolerance** — a kill-one-worker drill: SIGKILL a busy shard
  mid-load and verify every submitted request still completes (the
  monitor restarts the worker and re-dispatches its in-flight batches).
  The drill also asserts that every ring lease the dead worker held was
  reclaimed (no leaked segments).
* **transport** — a marshalling micro-benchmark: what one batch costs
  to cross the worker boundary and back as a pickle round trip each way
  vs a ring write, a zero-copy view and a logits copy-out.  The gate is
  ≥30% lower per-batch dispatch overhead for the ring.

Run via ``python -m repro.bench run serving``.
"""

from __future__ import annotations

import os
import pickle
import signal
import time

import numpy as np

from repro.infer.benchmark import thread_config
from repro.infer.session import InferenceSession
from repro.serve import loadgen
from repro.serve import shm as shm_transport
from repro.serve.server import LocalizationServer

def make_session(
    image_size: int = 24,
    num_classes: int = 32,
    max_batch: int = 32,
    seed: int = 0,
) -> InferenceSession:
    """A compiled session over the fast-scale VITAL geometry (random
    weights — serving throughput does not depend on training)."""
    from repro.vit.config import VitalConfig
    from repro.vit.model import VitalModel

    rng = np.random.default_rng(seed)
    model = VitalModel(
        VitalConfig.fast(image_size),
        image_size=image_size,
        channels=3,
        num_classes=num_classes,
        rng=rng,
    )
    return InferenceSession(model, max_batch=max_batch)


def run_fault_tolerance_drill(
    session: InferenceSession,
    images: np.ndarray,
    requests: int = 40,
    request_size: int = 8,
    workers: int = 2,
    timeout: float = 60.0,
) -> dict:
    """Kill a busy worker mid-load; verify no request is lost.

    Submits ``requests`` requests, SIGKILLs shard 0's process once a few
    results are in, then collects *every* result.  Success means all
    requests completed and the stats show at least one restart — and
    that every ring lease the crashed worker was holding has been
    reclaimed (``ring_leases_after == 0``): a crash
    must neither lose requests nor leak ring segments.

    The drill ends with an *expired-lease probe*: every worker is
    SIGSTOPped, one deadline-carrying request is dispatched (its payload
    now sits in a ring lease), the deadline passes, and the holding
    worker is SIGKILLed.  The restart path must recognise the batch as
    all-expired — free the lease and complete the request as
    ``DeadlineExpired`` instead of re-dispatching dead work.
    """
    from repro.serve.admission import DeadlineExpired

    rng = np.random.default_rng(7)
    with LocalizationServer(session, workers=workers, max_delay_ms=1.0,
                            health_interval_s=0.05) as server:
        ids = []
        victim = server._shards[0].process
        for index in range(requests):
            begin = int(rng.integers(0, max(1, len(images) - request_size)))
            ids.append(server.submit(images[begin : begin + request_size]))
            if index == requests // 4:
                victim.kill()  # SIGKILL — no cleanup, worst-case crash
            time.sleep(0.002)  # steady trickle keeps batches in flight
        completed = 0
        failures: list[str] = []
        for request_id in ids:
            try:
                logits = server.result(request_id, timeout=timeout)
                assert logits.shape == (request_size, server.num_classes)
                completed += 1
            except Exception as error:
                failures.append(str(error))

        # -- expired-lease probe -------------------------------------
        probe: dict = {"dispatched": False, "deadline_expired": False}
        for shard in server._shards:
            os.kill(shard.process.pid, signal.SIGSTOP)
        try:
            probe_id = server.submit(images[:request_size],
                                     deadline_ms=400.0)
            deadline = time.perf_counter() + 5.0
            holder = None
            while time.perf_counter() < deadline:
                for batch in list(server._in_flight.values()):
                    if any(r.id == probe_id for r in batch.requests):
                        holder = batch.shard
                        break
                if holder is not None:
                    break
                time.sleep(0.005)
            probe["dispatched"] = holder is not None
            time.sleep(0.6)  # let the probe's deadline lapse in flight
            if holder is not None:
                os.kill(server._shards[holder].process.pid, signal.SIGKILL)
        finally:
            for shard in server._shards:
                try:
                    os.kill(shard.process.pid, signal.SIGCONT)
                except (OSError, ValueError):
                    pass  # the killed holder, or already restarted
        try:
            server.result(probe_id, timeout=timeout)
        except DeadlineExpired:
            probe["deadline_expired"] = True
        except Exception as error:
            probe["error"] = str(error)
        stats = server.stats()
    restarts = sum(shard["restarts"] for shard in stats["shards"])
    leases_after = sum(ring["live_leases"]
                       for ring in stats["transport"]["rings"])
    probe["ring_leases_after"] = leases_after
    probe["ok"] = bool(probe["dispatched"] and probe["deadline_expired"]
                       and leases_after == 0)
    return {
        "requests": requests,
        "completed": completed,
        "lost": requests - completed,
        "failures": failures[:5],
        "restarts": restarts,
        "transport": stats["transport"]["mode"],
        "ring_leases_after": leases_after,
        "expired_lease_probe": probe,
        "ok": (completed == requests and restarts >= 1
               and leases_after == 0 and probe["ok"]),
    }


def run_served_parity(
    image_size: int = 16,
    num_classes: int = 16,
    max_batch: int = 16,
    samples: int = 48,
    workers: int = 2,
    seed: int = 0,
    timeout: float = 60.0,
) -> dict:
    """Serve one workload; the answers must equal in-process
    ``predict_many`` bit for bit (part of the ``serving`` smoke lane)."""
    session = make_session(image_size, num_classes, max_batch, seed)
    rng = np.random.default_rng(seed + 1)
    images = rng.standard_normal(
        (samples, image_size, image_size, 3)
    ).astype(np.float32)
    with LocalizationServer(session, workers=workers,
                            max_delay_ms=1.0) as server:
        served = server.predict_many(images, timeout=timeout)
    return {
        "samples": samples,
        "bit_identical": bool(
            np.array_equal(served, session.predict_many(images))
        ),
    }


def run_transport_benchmark(
    image_size: int = 24,
    num_classes: int = 32,
    max_batch: int = 32,
    quick: bool = False,
    seed: int = 0,
    verbose: bool = False,
) -> dict:
    """The ring-vs-pickle comparison recorded as the ``transport`` section.

    It isolates the per-batch *dispatch overhead* — what moving one
    ``(max_batch, size, size, 3)`` float32 batch to a worker and its
    logits back costs in marshalling alone: a pickle dumps/loads round
    trip each way vs a ring write + zero-copy view + logits copy-out.
    """
    iters = 60 if quick else 300
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal(
        (max_batch, image_size, image_size, 3)
    ).astype(np.float32)
    logits = rng.standard_normal((max_batch, num_classes)).astype(np.float32)

    start = time.perf_counter()
    for _ in range(iters):
        payload = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        _gathered = pickle.loads(payload)
        reply = pickle.dumps(logits, protocol=pickle.HIGHEST_PROTOCOL)
        _ = pickle.loads(reply)
    pickle_us = (time.perf_counter() - start) / iters * 1e6

    in_bytes = shm_transport.align(batch.nbytes)
    out_bytes = shm_transport.align(logits.nbytes)
    ring = shm_transport.ShmRing(4 * (in_bytes + out_bytes))
    try:
        start = time.perf_counter()
        for _ in range(iters):
            offset = ring.allocate(in_bytes + out_bytes)
            ring.view(offset, batch.shape)[:] = batch  # dispatch write
            gathered = ring.view(offset, batch.shape)  # worker view
            out = ring.view(offset + in_bytes, logits.shape)
            out[:] = logits  # worker writes its result block
            _ = np.array(out, copy=True)  # collector copies slices out
            del gathered, out
            ring.free(offset)
        shm_us = (time.perf_counter() - start) / iters * 1e6
    finally:
        ring.close()
    reduction = 1.0 - shm_us / pickle_us
    if verbose:
        print(f"    marshalling: pickle {pickle_us:.0f} us/batch vs "
              f"shm {shm_us:.0f} us/batch", flush=True)
    return {
        "config": {
            "image_size": image_size,
            "num_classes": num_classes,
            "max_batch": max_batch,
            "marshal_iters": iters,
        },
        "batch_payload_bytes": int(batch.nbytes + logits.nbytes),
        "dispatch_overhead_us": {
            "pickle": pickle_us,
            "shm": shm_us,
            "reduction": reduction,
        },
        # ≥30% lower per-batch dispatch overhead for the ring.
        "gate_transport": bool(reduction >= 0.30),
    }


def run_serving_benchmark(
    image_size: int = 24,
    num_classes: int = 32,
    max_batch: int = 32,
    worker_counts: tuple[int, ...] = (1, 2, 4),
    deadlines_ms: tuple[float, ...] = (0.5, 2.0, 8.0),
    quick: bool = False,
    seed: int = 0,
    verbose: bool = True,
) -> dict:
    """Run all four serving experiments; returns the result record."""
    requests_per_client = 6 if quick else 24
    clients = 4 if quick else 8
    deadline_requests = 30 if quick else 120
    drill_requests = 24 if quick else 60

    session = make_session(image_size, num_classes, max_batch, seed)
    rng = np.random.default_rng(seed + 1)
    pool = rng.standard_normal(
        (4 * max_batch, image_size, image_size, 3)
    ).astype(np.float32)

    def log(message: str) -> None:
        if verbose:
            print(message, flush=True)

    # --- experiment 1: throughput vs worker count (batched load)
    throughput_rows = []
    for workers in worker_counts:
        with LocalizationServer(session, workers=workers, max_batch=max_batch,
                                max_delay_ms=2.0) as server:
            run = loadgen.run(loadgen.ServerTarget(server),
                              loadgen.windows(pool, max_batch, seed),
                              clients=clients, requests=requests_per_client)
            stats = server.stats()
        row = {
            "workers": workers,
            "samples_per_s": run.samples_per_s,
            "elapsed_s": run.elapsed_s,
            "total_samples": run.tally()["samples"],
            "errors": run.failures,
            "request_latency_ms": stats["request_latency_ms"],
            "per_shard_samples": [s["samples"] for s in stats["shards"]],
        }
        throughput_rows.append(row)
        log(f"  workers={workers}: {row['samples_per_s']:.0f} samples/s "
            f"(shard split {row['per_shard_samples']})")
    base = throughput_rows[0]["samples_per_s"]
    for row in throughput_rows:
        row["speedup_vs_1"] = row["samples_per_s"] / base if base > 0 else 0.0

    # --- experiment 2: batching-deadline sweep (single-image load)
    deadline_rows = []
    sweep_workers = min(2, max(worker_counts))
    for deadline_ms in deadlines_ms:
        with LocalizationServer(session, workers=sweep_workers,
                                max_batch=max_batch,
                                max_delay_ms=deadline_ms) as server:
            run = loadgen.run(
                loadgen.ServerTarget(server), loadgen.windows(pool, 1, seed + 2),
                clients=max(8, clients),
                requests=max(4, deadline_requests // max(8, clients)))
            stats = server.stats()
        shards = stats["shards"]
        sizes = [s["mean_batch_size"] for s in shards if s["mean_batch_size"]]
        batches = sum(s["batches"] for s in shards)
        row = {
            "deadline_ms": deadline_ms,
            "workers": sweep_workers,
            "mean_batch_size": float(np.mean(sizes)) if sizes else None,
            "batches": batches,
            "samples_per_s": run.samples_per_s,
            "request_latency_ms": stats["request_latency_ms"],
        }
        deadline_rows.append(row)
        latency = row["request_latency_ms"]["p50_ms"]
        log(f"  deadline={deadline_ms}ms: mean batch "
            f"{row['mean_batch_size'] and round(row['mean_batch_size'], 2)}, "
            f"p50 {latency and round(latency, 2)} ms")

    # --- experiment 3: kill-one-worker drill
    log("  fault-tolerance drill (SIGKILL one busy worker)...")
    drill = run_fault_tolerance_drill(
        session, pool, requests=drill_requests, request_size=8, workers=2,
    )
    log(f"  drill: {drill['completed']}/{drill['requests']} completed, "
        f"{drill['restarts']} restart(s), lost={drill['lost']}, "
        f"leases leaked={drill['ring_leases_after']}")

    # --- experiment 4: ring-vs-pickle marshalling comparison
    log("  transport comparison (shm vs pickle dispatch overhead)...")
    transport_section = run_transport_benchmark(
        image_size=image_size, num_classes=num_classes, max_batch=max_batch,
        quick=quick, seed=seed + 7, verbose=verbose,
    )
    overhead = transport_section["dispatch_overhead_us"]
    log(f"  transport: pickle {overhead['pickle']:.0f} us/batch vs shm "
        f"{overhead['shm']:.0f} us/batch "
        f"({overhead['reduction']:.0%} lower dispatch overhead)")

    cpu_count = os.cpu_count() or 1
    hardware_limited = cpu_count < 4
    peak = max(throughput_rows, key=lambda row: row["samples_per_s"])
    four = next((r for r in throughput_rows if r["workers"] == 4), None)
    result = {
        "config": {
            "image_size": image_size,
            "num_classes": num_classes,
            "max_batch": max_batch,
            "worker_counts": list(worker_counts),
            "deadlines_ms": list(deadlines_ms),
            "clients": clients,
            "requests_per_client": requests_per_client,
            "cpu_count": cpu_count,
            "quick": quick,
            "seed": seed,
            "threads": thread_config(),
        },
        "throughput_vs_workers": throughput_rows,
        "deadline_sweep": deadline_rows,
        "fault_tolerance": drill,
        "transport": transport_section,
        "scaling": {
            "peak_samples_per_s": peak["samples_per_s"],
            "peak_workers": peak["workers"],
            "speedup_4_vs_1": four["speedup_vs_1"] if four else None,
            # One process per core is the most sharding can exploit; below
            # 4 usable cores the 2x@4-workers gate is not expressible.
            "hardware_limited": hardware_limited,
            # When the gate is skipped, the record says exactly why — a
            # reader of the JSON should not have to guess which gate was
            # not asserted or on what hardware.
            "skipped": (
                {
                    "gate": "gate_2x_at_4_workers",
                    "cpu_count": cpu_count,
                    "reason": (
                        f"host exposes {cpu_count} CPU core(s); process "
                        "sharding cannot express a >=2x speedup at 4 "
                        "workers below 4 cores"
                    ),
                }
                if hardware_limited else None
            ),
            "gate_2x_at_4_workers": (
                bool(four and four["speedup_vs_1"] >= 2.0)
                if not hardware_limited else None
            ),
        },
    }
    return result


def format_summary(result: dict) -> str:
    """Human-readable summary of a serving benchmark record."""
    lines = [
        "serving benchmark "
        f"(image={result['config']['image_size']}, "
        f"max_batch={result['config']['max_batch']}, "
        f"cpus={result['config']['cpu_count']})",
        "  throughput vs workers:",
    ]
    for row in result["throughput_vs_workers"]:
        lines.append(
            f"    {row['workers']} worker(s): {row['samples_per_s']:8.0f} "
            f"samples/s ({row['speedup_vs_1']:.2f}x vs 1)"
        )
    lines.append("  batching-deadline sweep:")
    for row in result["deadline_sweep"]:
        mean_batch = row["mean_batch_size"]
        p50 = row["request_latency_ms"]["p50_ms"]
        lines.append(
            f"    {row['deadline_ms']:5.1f} ms deadline: mean batch "
            f"{mean_batch:.2f}, p50 latency {p50:.2f} ms"
            if mean_batch is not None and p50 is not None
            else f"    {row['deadline_ms']:5.1f} ms deadline: (no data)"
        )
    drill = result["fault_tolerance"]
    lines.append(
        f"  fault tolerance: {drill['completed']}/{drill['requests']} "
        f"completed after SIGKILL, {drill['restarts']} restart(s), "
        f"lost={drill['lost']} → {'OK' if drill['ok'] else 'FAIL'}"
    )
    overhead = result["transport"]["dispatch_overhead_us"]
    lines.append(
        f"  transport (shm vs pickle): dispatch {overhead['shm']:.0f} vs "
        f"{overhead['pickle']:.0f} us/batch "
        f"({overhead['reduction']:.0%} lower) → "
        f"{'OK' if overhead['reduction'] >= 0.30 else 'FAIL'}"
    )
    scaling = result["scaling"]
    if scaling["hardware_limited"]:
        lines.append(
            f"  scaling gate: hardware-limited "
            f"({result['config']['cpu_count']} CPU(s) — the ≥2x @ 4 workers "
            "gate needs ≥4 cores)"
        )
    else:
        lines.append(
            f"  scaling gate (≥2x @ 4 workers): "
            f"{'PASS' if scaling['gate_2x_at_4_workers'] else 'FAIL'} "
            f"({scaling['speedup_4_vs_1']:.2f}x)"
        )
    return "\n".join(lines)
