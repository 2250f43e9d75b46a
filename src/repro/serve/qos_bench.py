"""Overload and elasticity drills for the admission-control layer.

Two recorded experiments back the ``overload`` section of
``BENCH_serving.json`` (see :mod:`repro.bench`):

* :func:`run_overload_drill` — offered load far beyond capacity.  Phase
  one measures raw capacity with the plain closed-loop generator; phase
  two floods a QoS-enabled server (bounded route queue, a deliberately
  tight latency SLO driving the shedder, interactive clients with
  deadlines) and proves overload degrades *predictably*: goodput stays
  within 80% of capacity, every accepted request resolves (zero silently
  lost), batch-class traffic sheds while interactive p95 stays inside
  its SLO.
* :func:`run_two_tenant_drill` — two deployments on one
  :class:`~repro.fleet.server.FleetServer` with the
  :class:`~repro.serve.admission.Autoscaler` running.  A hot tenant
  borrows shard share from a cold one and gives it back after the burst,
  with zero lost requests throughout.

:func:`run_overload_smoke` is the CI lane: a tiny pool, a short flood,
asserting non-zero sheds/rejections and zero lost accepted requests.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.obs.slo import Slo
from repro.serve.admission import DeadlineExpired, QosPolicy, RouteOverloaded
from repro.serve.bench import closed_loop_load, make_session
from repro.serve.server import DEFAULT_MODEL, LocalizationServer

__all__ = [
    "format_overload_summary",
    "run_overload_drill",
    "run_overload_smoke",
    "run_two_tenant_drill",
]

#: Goodput under a sustained flood must stay within this fraction of the
#: measured clean-room capacity — overload degrades, never collapses.
REQUIRED_GOODPUT_RATIO = 0.8

_FLOOD_CLASSES = ("standard", "batch")


def _image_pool(count: int, image_size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-90.0, -30.0,
                       size=(count, image_size, image_size, 3)
                       ).astype(np.float32)


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _new_tally() -> dict:
    return {"accepted": 0, "rejected": 0, "completed": 0,
            "expired": 0, "failed": 0, "lost": 0}


def _merge_tallies(per_thread: list[dict]) -> dict:
    merged = _new_tally()
    for tally in per_thread:
        for key in merged:
            merged[key] += tally[key]
    return merged


def _collect(server: LocalizationServer, request_id: int, tally: dict,
             timeout: float = 30.0) -> bool:
    """Resolve one accepted request into exactly one tally bucket.
    ``lost`` means the server forgot an accepted id — the one outcome
    admission control exists to make impossible."""
    try:
        server.result(request_id, timeout=timeout)
    except DeadlineExpired:
        tally["expired"] += 1
    except (TimeoutError, KeyError):
        tally["lost"] += 1
    except RuntimeError:
        tally["failed"] += 1
    else:
        tally["completed"] += 1
        return True
    return False


def run_overload_drill(
    image_size: int = 24,
    num_classes: int = 32,
    workers: int = 2,
    max_batch: int = 32,
    flood_s: float = 3.0,
    interactive_clients: int = 2,
    flood_threads: int = 4,
    request_size: int = 4,
    interactive_deadline_ms: float = 400.0,
    interactive_slo_ms: float = 500.0,
    capacity_requests: int = 30,
    gate_goodput: bool = True,
    seed: int = 0,
) -> dict:
    """Flood a QoS-enabled server at open-loop rates far beyond capacity
    and verify the admission layer keeps the collapse away.

    Phase one measures clean capacity (no QoS pressure) with the plain
    closed-loop generator.  Phase two runs, concurrently for ``flood_s``
    seconds: ``interactive_clients`` closed-loop interactive clients with
    per-request deadlines, and ``flood_threads`` open-loop flooders
    mixing standard/batch traffic with no think time, so offered load is
    bounded only by the route queue.  A deliberately tight latency SLO
    (threshold well below the full-queue delay) drives the burn-rate
    shedder.  Every accepted id is resolved afterwards — the ``lost``
    counters must stay zero.

    ``gate_goodput=False`` (the smoke lane) skips the capacity-ratio and
    interactive-p95 gates, which need the longer full-drill windows to
    be stable on a noisy CI core.
    """
    session = make_session(image_size, num_classes, max_batch, seed)
    images = _image_pool(256, image_size, seed + 1)

    # -- phase 1: clean capacity -------------------------------------
    with LocalizationServer(session, workers=workers,
                            max_delay_ms=1.0) as server:
        capacity = closed_loop_load(server, images, clients=4,
                                    requests_per_client=capacity_requests,
                                    request_size=8, seed=seed)
    capacity_sps = capacity["samples_per_s"]

    # -- phase 2: the flood ------------------------------------------
    # Route queue bound ≈ 100 ms of backlog at measured capacity; the
    # shed-trigger SLO threshold sits well below the full-queue delay so
    # a sustained flood is guaranteed to breach it.
    queue_bound = max(4 * max_batch, int(capacity_sps * 0.10))
    full_queue_ms = queue_bound / max(capacity_sps, 1.0) * 1000.0
    trigger_ms = max(5.0, 0.4 * full_queue_ms)
    trigger = Slo.latency("overload-trigger", trigger_ms,
                          fast_window_s=0.5, slow_window_s=1.0,
                          max_burn_rate=1.0, min_samples=2)
    qos = {DEFAULT_MODEL: QosPolicy(priority="standard",
                                    max_queue=queue_bound)}

    interactive_out: list[dict] = [None] * interactive_clients
    flood_out: list[dict] = [None] * flood_threads
    latencies: list[list[float]] = [[] for _ in range(interactive_clients)]
    stop = threading.Event()

    with LocalizationServer(session, workers=workers, max_delay_ms=1.0,
                            monitor=True, monitor_interval_s=0.05,
                            monitor_slos=[trigger], monitor_rules=(),
                            qos=qos) as server:

        def interactive_worker(index: int) -> None:
            tally = _new_tally()
            step = 0
            while not stop.is_set():
                begin = (index * 37 + step) % (len(images) - 1)
                step += 1
                try:
                    request_id = server.submit(
                        images[begin:begin + 1], priority="interactive",
                        deadline_ms=interactive_deadline_ms)
                except RouteOverloaded:
                    tally["rejected"] += 1
                    time.sleep(0.002)
                    continue
                tally["accepted"] += 1
                start = time.perf_counter()
                if _collect(server, request_id, tally):
                    latencies[index].append(
                        (time.perf_counter() - start) * 1000.0)
            interactive_out[index] = tally

        def flood_worker(index: int) -> None:
            tallies = {cls: _new_tally() for cls in _FLOOD_CLASSES}
            pending: list[tuple[int, str]] = []
            step = 0
            while not stop.is_set():
                # 2/3 batch, 1/3 standard — the shed ordering gate needs
                # both classes present under pressure.
                cls = "batch" if step % 3 else "standard"
                begin = (index * 53 + step) % (len(images) - request_size)
                step += 1
                try:
                    request_id = server.submit(
                        images[begin:begin + request_size], priority=cls)
                except RouteOverloaded:
                    tallies[cls]["rejected"] += 1
                    time.sleep(0.002)
                    continue
                tallies[cls]["accepted"] += 1
                pending.append((request_id, cls))
                if len(pending) >= 128:  # bound uncollected ids
                    for rid, rcls in pending[:32]:
                        _collect(server, rid, tallies[rcls])
                    del pending[:32]
            for rid, rcls in pending:  # final drain: resolve every id
                _collect(server, rid, tallies[rcls])
            flood_out[index] = tallies

        threads = ([threading.Thread(target=interactive_worker, args=(i,),
                                     daemon=True)
                    for i in range(interactive_clients)]
                   + [threading.Thread(target=flood_worker, args=(i,),
                                       daemon=True)
                      for i in range(flood_threads)])
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        time.sleep(flood_s)
        stop.set()
        for thread in threads:
            thread.join(timeout=60.0)
        elapsed = time.perf_counter() - start

        admission = server.stats()["admission"]
        counters = server.qos.all_counters().get(DEFAULT_MODEL,
                                                 _new_tally())

    interactive = _merge_tallies([t for t in interactive_out if t])
    classes = {"interactive": interactive}
    for cls in _FLOOD_CLASSES:
        classes[cls] = _merge_tallies(
            [t[cls] for t in flood_out if t])

    all_latencies = [ms for per in latencies for ms in per]
    completed_samples = (interactive["completed"]
                         + sum(classes[cls]["completed"] * request_size
                               for cls in _FLOOD_CLASSES))
    goodput_sps = completed_samples / elapsed if elapsed > 0 else 0.0
    goodput_ratio = goodput_sps / capacity_sps if capacity_sps > 0 else 0.0
    lost = sum(tally["lost"] for tally in classes.values())
    failed = sum(tally["failed"] for tally in classes.values())
    rejected = sum(tally["rejected"] for tally in classes.values())
    p95 = _percentile(all_latencies, 95.0)

    gates = {
        "gate_zero_lost": lost == 0 and failed == 0,
        "gate_shed_engaged": counters.get("shed", 0) > 0,
        "gate_rejections_structured": rejected > 0,
        "gate_interactive_served": interactive["completed"] > 0,
    }
    if gate_goodput:
        gates["gate_goodput"] = goodput_ratio >= REQUIRED_GOODPUT_RATIO
        gates["gate_interactive_p95"] = (bool(all_latencies)
                                         and p95 <= interactive_slo_ms)

    return {
        "config": {
            "image_size": image_size, "num_classes": num_classes,
            "workers": workers, "max_batch": max_batch,
            "flood_s": flood_s, "interactive_clients": interactive_clients,
            "flood_threads": flood_threads, "request_size": request_size,
            "interactive_deadline_ms": interactive_deadline_ms,
            "interactive_slo_ms": interactive_slo_ms,
            "queue_bound_samples": queue_bound,
            "trigger_threshold_ms": round(trigger_ms, 2),
        },
        "capacity_samples_per_s": capacity_sps,
        "elapsed_s": elapsed,
        "classes": classes,
        "interactive_latency_ms": {
            "n": len(all_latencies),
            "p50_ms": _percentile(all_latencies, 50.0),
            "p95_ms": p95,
        },
        "goodput_samples_per_s": goodput_sps,
        "goodput_ratio": goodput_ratio,
        "shed_counters": counters,
        "admission": admission,
        "gates": gates,
        "ok": all(gates.values()),
    }


def run_overload_smoke(flood_s: float = 2.0, seed: int = 0) -> dict:
    """CI smoke lane: a tiny pool under a short flood — sheds and
    rejections must happen, zero accepted requests may be lost.  The
    goodput/p95 gates need the full drill's longer windows and are not
    evaluated here."""
    return run_overload_drill(image_size=16, num_classes=16, workers=2,
                              max_batch=16, flood_s=flood_s,
                              interactive_clients=1, flood_threads=3,
                              request_size=4, capacity_requests=10,
                              gate_goodput=False, seed=seed)


def run_two_tenant_drill(
    image_size: int = 24,
    num_classes: int = 32,
    workers: int = 2,
    max_batch: int = 16,
    warm_s: float = 0.5,
    hot_s: float = 2.0,
    cool_s: float = 2.0,
    request_size: int = 4,
    hot_threads: int = 4,
    seed: int = 0,
) -> dict:
    """Two tenants, one shard pool, the autoscaler live: a traffic burst
    on tenant A must borrow shard share from tenant B and hand it back
    once the burst ends — without losing a single request.

    Three closed-loop phases: balanced warmup, hot (``hot_threads``
    heavy clients on A vs one light client on B), cooldown (balanced
    again).  A poller records A's soft share throughout; the gates check
    the share peaked during the burst and returned near the balanced
    split afterwards, with at least two committed rebalances.
    """
    from repro.fleet.server import FleetServer  # lazy: avoids import cycle

    session = make_session(image_size, num_classes, max_batch, seed)
    snapshot = session.snapshot()
    images = _image_pool(256, image_size, seed + 1)
    errors: list[str] = []
    completed = {"tenant_a": 0, "tenant_b": 0}
    lock = threading.Lock()
    trajectory: list[float] = []

    with FleetServer(workers=workers, max_batch=max_batch,
                     autoscale=True, autoscale_interval_s=0.1) as server:
        server.deploy("tenant_a", version=1, snapshot=snapshot)
        server.deploy("tenant_b", version=1, snapshot=snapshot)

        def client(model: str, size: int, duration_s: float) -> None:
            deadline = time.perf_counter() + duration_s
            done = 0
            step = 0
            try:
                while time.perf_counter() < deadline:
                    begin = step % (len(images) - size)
                    step += 1
                    request_id = server.submit(images[begin:begin + size],
                                               model=model)
                    server.result(request_id, timeout=30.0)
                    done += size
            except Exception as error:  # any loss/failure fails the gate
                errors.append(f"{model}: {error}")
            with lock:
                completed[model] += done

        def run_phase(spec: list[tuple[str, int]], duration_s: float,
                      watch: bool = False) -> None:
            threads = [threading.Thread(target=client,
                                        args=(model, size, duration_s),
                                        daemon=True)
                       for model, size in spec]
            for thread in threads:
                thread.start()
            if watch:
                end = time.perf_counter() + duration_s
                while time.perf_counter() < end:
                    share = server.route_shares().get("tenant_a")
                    if share is not None:
                        trajectory.append(share)
                    time.sleep(0.05)
            for thread in threads:
                thread.join(timeout=60.0)

        run_phase([("tenant_a", 2), ("tenant_b", 2)], warm_s)
        share_before = server.route_shares().get("tenant_a", 0.5)
        run_phase([("tenant_a", request_size)] * hot_threads
                  + [("tenant_b", 2)], hot_s, watch=True)
        share_peak = max(trajectory, default=share_before)
        run_phase([("tenant_a", 2), ("tenant_b", 2)], cool_s, watch=True)
        share_after = server.route_shares().get("tenant_a", 0.5)
        rebalances = (server.autoscaler.rebalances
                      if server.autoscaler is not None else 0)

    gates = {
        "gate_zero_lost": not errors,
        "gate_share_borrowed": share_peak >= 0.6,
        "gate_share_returned": abs(share_after - 0.5) <= 0.15,
        "gate_rebalanced": rebalances >= 2,
    }
    return {
        "config": {
            "image_size": image_size, "num_classes": num_classes,
            "workers": workers, "max_batch": max_batch,
            "warm_s": warm_s, "hot_s": hot_s, "cool_s": cool_s,
            "hot_threads": hot_threads, "request_size": request_size,
        },
        "share_before": round(share_before, 4),
        "share_peak_hot": round(share_peak, 4),
        "share_after_cooldown": round(share_after, 4),
        "rebalances": rebalances,
        "completed_samples": dict(completed),
        "errors": errors,
        "gates": gates,
        "ok": all(gates.values()),
    }


def format_overload_summary(overload: dict) -> str:
    """Human-readable summary of the overload section."""
    lines = []
    drill = overload.get("overload_drill")
    if drill:
        lines.append(
            "overload drill "
            f"(workers={drill['config']['workers']}, "
            f"flood={drill['config']['flood_s']:.1f}s)")
        lines.append(
            f"  capacity {drill['capacity_samples_per_s']:8.0f} sps → "
            f"goodput {drill['goodput_samples_per_s']:8.0f} sps "
            f"({drill['goodput_ratio']:.2f}x)")
        for cls, tally in drill["classes"].items():
            lines.append(
                f"  {cls:11s}: accepted={tally['accepted']:5d} "
                f"rejected={tally['rejected']:5d} "
                f"completed={tally['completed']:5d} "
                f"expired={tally['expired']:4d} lost={tally['lost']}")
        latency = drill["interactive_latency_ms"]
        lines.append(
            f"  interactive p95 {latency['p95_ms']:.1f} ms "
            f"(n={latency['n']}), shed={drill['shed_counters'].get('shed', 0)}"
            f" → {'OK' if drill['ok'] else 'FAIL'}")
    tenants = overload.get("two_tenant_drill")
    if tenants:
        lines.append(
            "two-tenant drill: share "
            f"{tenants['share_before']:.2f} → peak "
            f"{tenants['share_peak_hot']:.2f} → cooled "
            f"{tenants['share_after_cooldown']:.2f} "
            f"({tenants['rebalances']} rebalances, "
            f"lost={len(tenants['errors'])}) → "
            f"{'OK' if tenants['ok'] else 'FAIL'}")
    return "\n".join(lines) if lines else "overload section: empty"
