"""Fleet benchmark: hot-swap latency, zero-lost drills, canary overhead.

Four experiments against a live :class:`repro.fleet.FleetServer`,
recorded as the ``fleet`` section of ``BENCH_serving.json`` (see
:mod:`repro.bench`):

* **hot_swap** — stream closed-loop traffic at a deployed model and swap
  it to a freshly published version mid-stream; record the swap latency
  (load-on-every-worker + routing flip), how much traffic was in flight
  and queued at the flip, and that **zero** requests were lost.
* **canary_rollback** — publish a deliberately broken version (restores
  fine, fails at predict), canary it at 50% under live traffic and
  verify it is auto-rolled-back with **zero client-visible failures**
  (broken-canary batches retry on the incumbent).
* **canary_promote** — canary a healthy version and verify auto-promote.
* **canary_overhead** — the same stream with and without an active
  canary split, read as a throughput overhead percentage.

Run via ``python -m repro.bench run fleet [--quick]``.
"""

from __future__ import annotations

import shutil
import tempfile
import time

import numpy as np

from repro.fleet.registry import ModelRegistry
from repro.fleet.server import FleetServer
from repro.serve import loadgen
from repro.serve.bench import make_session

def corrupt_snapshot(snapshot: dict) -> dict:
    """A structurally valid snapshot that restores but fails at predict.

    Truncating one column of the patch-embedding weight keeps every
    required state key (so the registry publishes it and workers restore
    it) while the first forward pass raises on the position-embedding
    add — the shape of "a retrain gone wrong" the canary drill needs.
    """
    state = dict(snapshot["state"])
    state["w_embed"] = np.ascontiguousarray(state["w_embed"][:, :-1])
    return {**snapshot, "state": state}


def run_fleet_benchmark(
    image_size: int = 24,
    num_classes: int = 32,
    max_batch: int = 32,
    workers: int = 2,
    quick: bool = False,
    seed: int = 0,
    verbose: bool = True,
    registry_dir: str | None = None,
) -> dict:
    """Run the four fleet experiments; returns the ``"fleet"`` record."""
    clients = 4 if quick else 6
    requests_per_client = 8 if quick else 24
    request_size = max(1, max_batch // 4)

    def log(message: str) -> None:
        if verbose:
            print(message, flush=True)

    own_dir = registry_dir is None
    root = registry_dir or tempfile.mkdtemp(prefix="repro-fleet-bench-")
    try:
        registry = ModelRegistry(root)
        model_id = "bldg-1"
        v1 = registry.publish(
            model_id, make_session(image_size, num_classes, max_batch, seed),
            metadata={"building": 1, "note": "incumbent"},
        )
        good = make_session(image_size, num_classes, max_batch, seed + 1)
        v2 = registry.publish(
            model_id, good, metadata={"building": 1, "note": "retrained"},
        )
        v3 = registry.publish(
            model_id, corrupt_snapshot(good.snapshot()),
            metadata={"building": 1, "note": "deliberately broken"},
        )
        rng = np.random.default_rng(seed + 2)
        pool = rng.standard_normal(
            (4 * max_batch, image_size, image_size, 3)
        ).astype(np.float32)

        with FleetServer(registry, workers=workers, max_batch=max_batch,
                         max_delay_ms=1.0) as server:
            server.deploy(model_id, v1)

            def stream(seed: int) -> loadgen.Load:
                """Closed-loop traffic at the deployment, not started."""
                return loadgen.Load(
                    loadgen.ServerTarget(server, model=model_id),
                    loadgen.windows(pool, request_size, seed),
                    clients=clients, requests=requests_per_client)

            # --- experiment 1: hot swap under live traffic ------------
            log(f"  hot-swap drill: v{v1} → v{v2} under "
                f"{clients}x{requests_per_client} requests...")
            traffic = stream(seed).start()
            # Let traffic build up, but flip well before the stream ends
            # so the swap really happens under load.
            time.sleep(0.02 if quick else 0.1)
            swap = server.swap(model_id, v2)
            run = traffic.join()
            hot_swap = {
                "requests": clients * requests_per_client,
                "completed": run.tally()["completed"],
                "lost": run.failures,
                "swap_latency_ms": swap["swap_latency_ms"],
                "in_flight_samples_at_flip": swap["in_flight_samples_at_flip"],
                "queued_samples_at_flip": swap["queued_samples_at_flip"],
                "drain_ms": swap["drain_ms"],
                "samples_per_s": run.samples_per_s,
                "ok": run.failures == 0,
            }
            log(f"    swap {swap['swap_latency_ms']:.1f} ms with "
                f"{swap['in_flight_samples_at_flip']} samples in flight; "
                f"lost={hot_swap['lost']}")

            # --- experiment 2: broken canary auto-rolls back ----------
            log(f"  canary-rollback drill: broken v{v3} at 50%...")
            server.start_canary(model_id, v3, fraction=0.5,
                                min_requests=16, max_failures=3)
            run = stream(seed + 3).start().join()
            outcome = server.wait_canary(model_id, timeout=120.0)
            canary_rollback = {
                "requests": clients * requests_per_client,
                "client_failures": run.failures,
                "retried": (outcome.get("canary_stats") or {}).get("retried", 0),
                "decision": outcome["decision"],
                "reason": outcome["reason"],
                "ok": (outcome["decision"] == "rollback"
                       and run.failures == 0),
            }
            log(f"    decision={outcome['decision']} "
                f"({canary_rollback['retried']} retried on the incumbent), "
                f"client failures={canary_rollback['client_failures']}")

            # --- experiment 3+4: healthy canary promotes; overhead ----
            log("  canary-overhead: plain stream vs 25% canary split...")
            plain = stream(seed + 4).start().join()
            server.start_canary(model_id, v1, fraction=0.25,
                                min_requests=10 ** 9)  # hold open to measure
            canaried = stream(seed + 5).start().join()
            promote_outcome = server.decide_canary(
                model_id, "promote", reason="benchmark: measured window over"
            )
            overhead_pct = (
                (plain.samples_per_s - canaried.samples_per_s)
                / plain.samples_per_s * 100.0
                if plain.samples_per_s > 0 else None
            )
            canary_promote = {
                "decision": promote_outcome["decision"],
                "client_failures": canaried.failures,
                "ok": (promote_outcome["decision"] == "promote"
                       and canaried.failures == 0),
            }
            canary_overhead = {
                "plain_samples_per_s": plain.samples_per_s,
                "canary_samples_per_s": canaried.samples_per_s,
                "overhead_pct": overhead_pct,
            }
            log(f"    plain {plain.samples_per_s:.0f} vs canaried "
                f"{canaried.samples_per_s:.0f} samples/s "
                f"({overhead_pct:+.1f}% overhead)")
            fleet_stats = server.stats()["fleet"]

        return {
            "config": {
                "image_size": image_size,
                "num_classes": num_classes,
                "max_batch": max_batch,
                "workers": workers,
                "clients": clients,
                "requests_per_client": requests_per_client,
                "request_size": request_size,
                "quick": quick,
                "seed": seed,
            },
            "registry": registry.stats(),
            "hot_swap": hot_swap,
            "canary_rollback": canary_rollback,
            "canary_promote": canary_promote,
            "canary_overhead": canary_overhead,
            "swaps": fleet_stats["swaps"],
            "canaries": fleet_stats["canaries"],
        }
    finally:
        if own_dir:
            shutil.rmtree(root, ignore_errors=True)


def format_fleet_summary(fleet: dict) -> str:
    """Human-readable summary of a fleet benchmark record."""
    swap = fleet["hot_swap"]
    rollback = fleet["canary_rollback"]
    promote = fleet["canary_promote"]
    overhead = fleet["canary_overhead"]
    lines = [
        "fleet benchmark "
        f"(workers={fleet['config']['workers']}, "
        f"max_batch={fleet['config']['max_batch']})",
        f"  registry: {fleet['registry']['models']} model(s), "
        f"{fleet['registry']['versions']} version(s), "
        f"{fleet['registry']['unique_blobs']} unique blob(s)",
        f"  hot swap: {swap['swap_latency_ms']:.1f} ms flip with "
        f"{swap['in_flight_samples_at_flip']} samples in flight, "
        f"lost={swap['lost']} → {'OK' if swap['ok'] else 'FAIL'}",
        f"  canary rollback: {rollback['decision']} after "
        f"{rollback['retried']} retried request(s), client failures="
        f"{rollback['client_failures']} → "
        f"{'OK' if rollback['ok'] else 'FAIL'}",
        f"  canary promote: {promote['decision']} → "
        f"{'OK' if promote['ok'] else 'FAIL'}",
    ]
    if overhead["overhead_pct"] is not None:
        lines.append(
            f"  canary overhead: {overhead['overhead_pct']:+.1f}% "
            f"({overhead['plain_samples_per_s']:.0f} → "
            f"{overhead['canary_samples_per_s']:.0f} samples/s)"
        )
    return "\n".join(lines)
