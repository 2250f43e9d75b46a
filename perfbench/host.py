"""Serving host: the process that owns the served stack during a run.

Started by ``run.py`` (with ``src`` on ``PYTHONPATH``) with a spec file it
wrote: restores the snapshot (and, for the int8 workload, quantizes and
calibrates it), starts a ``LocalizationServer`` and, for the gateway
workloads, a ``GatewayServer`` in front of it, then prints one JSON line
``{"port": ...}``.  From then on it answers one JSON command per stdin
line with one JSON line on stdout:

* ``{"cmd": "bulk", ...}`` runs the offline re-localization job (a closed
  loop of 32-sample requests through ``submit``/``result``) and writes the
  returned logits to an ``.npz`` file;
* ``{"cmd": "stats", "window": [t0, t1]}`` (traced hosts) reports the
  per-layer metrics of requests that started inside the window
  (``time.perf_counter`` is system-wide on Linux, so the driver's phase
  stamps are comparable);
* end of input (or SIGTERM) shuts everything down.

On a traced host the wrappers installed by :func:`instrument` time the
public calls into each layer from this file; nothing in ``src/`` changes.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
import pickle
import queue
import signal
import sys
import time

import numpy as np

import layers
import workload
from repro.infer import restore_session
from repro.serve import GatewayServer, LocalizationServer
from repro.serve.gateway import protocol

TRACE_BUFFER = 8192


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _on_term(_signum, _frame):
    raise SystemExit(143)


def build(spec: dict):
    session = restore_session(spec["snapshot"])
    if spec["int8"]:
        session = workload.quantize(session, spec["calibration"])
    traced = spec["traced"]
    server = LocalizationServer(
        session, workers=spec["workers"], transport="shm",
        trace_sample=1.0 if traced else 0.0, trace_buffer=TRACE_BUFFER,
        profile=traced).start()
    gateway = None
    if spec["gateway"]:
        cache = {} if spec["cache"] else {"cache_entries": 0}
        gateway = GatewayServer(
            server, trace_sample=1.0 if traced else 0.0,
            trace_buffer=TRACE_BUFFER, **cache).start()
    return session, server, gateway


def instrument(server, gateway) -> layers.Timings:
    """Time the calls into each layer (traced hosts only)."""
    timings = layers.Timings()
    server.submit = timings.wrap("submit", server.submit)
    if gateway is not None:
        protocol.FrameDecoder = timings.timed_decoder(protocol.FrameDecoder)
        protocol.parse_request = timings.wrap("parse",
                                              protocol.parse_request)
        gateway.cache.key = timings.wrap("cache_key", gateway.cache.key)
        gateway.cache.get = timings.wrap("cache_get", gateway.cache.get)
    return timings


def bulk_job(server, traced: bool, cmd: dict) -> dict:
    """Closed loop: keep ``outstanding`` 32-sample requests in flight for
    ``seconds``, cycling through the spec's chunks."""
    pool = np.load(cmd["pool"])
    chunks = [pool["images"][c] for c in pool["chunks"]]
    done: queue.Queue = queue.Queue()
    live: dict[int, tuple[int, float]] = {}
    records = []  # (chunk, submit_t, done_t, ok, breakdown_ms)
    logits = []
    late_ms = []
    next_chunk = 0

    def send():
        nonlocal next_chunk
        chunk = next_chunk % len(chunks)
        next_chunk += 1
        t = time.perf_counter()
        live[server.submit(chunks[chunk], on_done=done.put)] = (chunk, t)

    start = time.perf_counter()
    end = start + cmd["seconds"]
    for _ in range(cmd["outstanding"]):
        send()
    while live:
        try:
            rid = done.get(timeout=max(0.05, end + 10.0 - time.perf_counter()))
        except queue.Empty:
            break  # what is still live counts as unanswered
        now = time.perf_counter()
        chunk, sent = live.pop(rid)
        breakdown_ms = 0.0
        try:
            if traced:
                out, breakdown = server.result_with_breakdown(rid, timeout=1)
                breakdown_ms = breakdown["total_ms"] if breakdown else 0.0
            else:
                out = server.result(rid, timeout=1)
            ok = True
            logits.append(out)
        except (RuntimeError, KeyError, TimeoutError):
            ok = False
        records.append((chunk, sent, now, ok, breakdown_ms))
        if now < end:
            send()
            late_ms.append((time.perf_counter() - now) * 1e3)
    for rid in live:
        server.cancel(rid)
    records_arr = np.array(records, dtype=np.float64).reshape(-1, 5)
    np.savez(cmd["out"], records=records_arr,
             logits=np.stack(logits) if logits else np.zeros((0, 0, 0)))
    return {"start": start, "end": end, "unanswered": len(live),
            "late_ms": late_ms}


def main() -> int:
    signal.signal(signal.SIGTERM, _on_term)
    with open(sys.argv[1], "rb") as handle:
        spec = pickle.load(handle)
    session = server = gateway = None
    try:
        session, server, gateway = build(spec)
        timings = instrument(server, gateway) if spec["traced"] else None
        _reply({"port": gateway.port if gateway is not None else None})
        for line in sys.stdin:
            cmd = json.loads(line)
            if cmd["cmd"] == "bulk":
                _reply(bulk_job(server, spec["traced"], cmd))
            elif cmd["cmd"] == "stats":
                out = layers.host_metrics(server, gateway, session, timings,
                                          cmd["window"])
                out["infer.inprocess_ms_per_batch"] = layers.inprocess_ms(
                    session, spec["probe"])
                _reply({"layers": out})
    finally:
        if gateway is not None:
            gateway.close(timeout=5.0)
        if server is not None:
            server.close(timeout=5.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
