"""Sharded multi-process serving layer for the VITAL reproduction.

Built on :class:`repro.infer.InferenceSession` (picklable flat float32
arrays — no tape, no closures), this package turns the compiled engine
into an online serving system:

* :class:`LocalizationServer` — forks N worker processes, each restoring
  a session from a snapshot shipped over its task pipe;
  fronted by a request queue, an adaptive micro-batcher
  (:class:`AdaptiveBatchPolicy`) and least-loaded shard routing, with
  health-checked workers that restart on crash without losing requests.
* :mod:`repro.serve.shm` — the one batch transport, zero-copy shared
  memory: per-shard rings (anonymous shared mappings, no ``/dev/shm``
  name; Linux ``os.memfd_create``) carry the float32 image/logit blocks
  while only small fixed records (offsets, sample count, generation)
  cross the task and result pipes; a full ring backpressures into the
  admission queue, never drops.
* :mod:`repro.serve.stats` — per-shard counters, batch-size histograms,
  transport/ring-occupancy counters and latency reservoirs surfaced by
  ``LocalizationServer.stats()`` — all built on the unified
  :mod:`repro.obs` primitives, which also give every server a
  per-request span tracer (``trace_sample=``), a labeled
  :class:`repro.obs.MetricsRegistry` (``server.metrics``) with a
  Prometheus exporter, and opt-in worker-side compute profiling
  (``profile=True``).
* :mod:`repro.serve.loadgen` — the one load generator: simulated
  clients (closed loop or pipelined) against an in-process server or a
  gateway address, with one per-tag outcome tally; every drill, bench
  lane and CLI demo drives its traffic through it.
* :mod:`repro.serve.bench` — the worker-scaling / batching-deadline /
  fault-tolerance / transport drills recorded in ``BENCH_serving.json``
  (run through :mod:`repro.bench`; the ``repro serve`` CLI is the
  load-gen demo).
* :mod:`repro.serve.gateway` — the network front door: a selectors-based
  TCP/HTTP gateway (length-prefixed JSON frames + ``POST /localize``)
  with pipelining, per-connection backpressure, graceful drain, and a
  quantized-RSSI result cache that answers co-located repeats without
  touching inference (CLI: ``repro gateway serve``).

* :mod:`repro.serve.admission` — the QoS layer between submit and the
  dispatcher: declarative per-route :class:`QosPolicy` (priority class,
  queue bound, default deadline) with synchronous
  :class:`RouteOverloaded` rejection, end-to-end deadlines finished as
  :class:`DeadlineExpired` instead of burning compute, an SLO-driven
  token-bucket shedder that drops batch-class traffic first, and the
  :class:`Autoscaler` moving elastic per-route shard shares with
  hysteresis (bench: :mod:`repro.serve.qos_bench`, recorded under the
  ``overload`` section of ``BENCH_serving.json``).

Workers hold a *table* of sessions keyed by route, so one pool can serve
many model versions at once — :mod:`repro.fleet` builds the multi-tenant
registry/hot-swap/canary control plane on exactly that protocol.
"""

from repro.serve.admission import (
    PRIORITIES,
    AdmissionController,
    Autoscaler,
    DeadlineExpired,
    QosPolicy,
    RouteOverloaded,
    load_qos_file,
    save_qos_file,
)
from repro.serve.batcher import AdaptiveBatchPolicy, assemble_images
from repro.serve.gateway import (
    GatewayClient,
    GatewayError,
    GatewayServer,
    QuantizedResultCache,
    http_localize,
)
from repro.serve.server import DEFAULT_MODEL, LocalizationServer
from repro.serve.shm import HAVE_SHM, RingAllocator, ShmRing, ShmTransportError
from repro.serve.stats import (
    LatencyReservoir,
    RingCounters,
    RouteStats,
    ShardStats,
    SnapshotTransport,
    TransportStats,
)

__all__ = [
    "LocalizationServer",
    "DEFAULT_MODEL",
    "AdaptiveBatchPolicy",
    "assemble_images",
    "HAVE_SHM",
    "RingAllocator",
    "ShmRing",
    "ShmTransportError",
    "LatencyReservoir",
    "RingCounters",
    "RouteStats",
    "ShardStats",
    "SnapshotTransport",
    "TransportStats",
    "GatewayServer",
    "GatewayClient",
    "GatewayError",
    "QuantizedResultCache",
    "http_localize",
    "PRIORITIES",
    "QosPolicy",
    "RouteOverloaded",
    "DeadlineExpired",
    "AdmissionController",
    "Autoscaler",
    "load_qos_file",
    "save_qos_file",
]
