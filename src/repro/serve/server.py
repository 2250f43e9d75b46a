"""Sharded multi-process serving layer over :class:`repro.infer.InferenceSession`.

Architecture::

    client thread ──submit()──┬── nothing queued and a shard idle ────────┐
                              │   (dispatched on the caller's thread)     │
                              ▼                                           │
                        pending deque ──▶ dispatcher thread               │
                                            │ adaptive micro-batcher      │
                                            │ + per-model routing         │
                                            ▼                             │
                        least-loaded shard's task pipe (one per worker) ◀─┘
                                            │
                 worker process 0..N-1: {route key → restored session}
                                            │
                        per-worker result pipe ──▶ collector thread
                                                       │
    client threads ◀──result()── request events ◀──────┘

* Each worker process holds a *table* of compiled sessions keyed by route
  key, each restored from a snapshot shipped as flat arrays over its task
  pipe — no model, no tape, no closures cross the process boundary.  A
  single-model :class:`LocalizationServer` uses one key
  (:data:`DEFAULT_MODEL`); the multi-tenant :class:`repro.fleet.FleetServer`
  loads one key per deployed model version and hot-swaps between them.
* Requests carry a model id, resolved to a route key at dispatch time (so
  a routing flip instantly redirects queued traffic).  A request that
  finds nothing queued and a shard idle is dispatched by ``submit``
  itself, on the caller's thread; otherwise the dispatcher thread
  coalesces same-key requests up to ``max_batch`` samples or an adaptive
  latency deadline (:mod:`repro.serve.batcher`), dispatching at once
  whenever a shard goes idle.  Each batch goes to the shard with the
  fewest outstanding samples.
* Every batch crosses to its worker through the **shared-memory ring**
  (:mod:`repro.serve.shm`): the dispatching thread writes each
  micro-batch's float32 image block straight into the target shard's
  ring (an anonymous shared mapping the worker inherits or receives as a
  file descriptor) and sends only a fixed ``struct`` record (offsets,
  sample count, generation) over the task pipe; the worker gathers by
  offset, writes its logits into the lease's reserved output block and
  answers with a 9-byte record.  A full ring applies backpressure: the
  dispatcher waits for a lease while the backlog stays in the admission
  queue.  Rings need ``os.memfd_create`` (Linux).
* Task-pipe messages are posted under the bookkeeping lock and written
  after it is released, by the posting thread under the shard's send
  lock (:meth:`LocalizationServer._flush`): a pipe write blocks while
  the pipe is full, and the worker only empties it while the collector
  can take the lock to read its results.  The collector posts nothing.
* Results travel over per-worker pipes (single writer each), so a worker
  dying mid-write can never corrupt another shard's channel.  A worker
  holds no parent-side end of its own pipes, so if the parent dies the
  worker reads EOF and exits (and with it the last mapping of its ring).
* A monitor thread health-checks the workers and restarts crashed ones;
  a restarted worker is re-seeded with *every* currently loaded snapshot
  and every dispatched-but-unfinished batch is tracked in ``_in_flight``
  and re-dispatched after the restart — no request is ever lost to a
  crash, and no request is ever lost to a hot swap (the outgoing version
  stays loaded until its last in-flight batch drains).
"""

from __future__ import annotations

import itertools
import math
import multiprocessing as mp
import os
import pickle
import selectors
import threading
import time
from collections import deque

import numpy as np

from repro.infer.session import (
    InferenceSession,
    _validate_max_batch,
    restore_session,
    snapshot_info,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profile import SessionProfiler
from repro.obs.monitor import (Monitor, default_serving_rules,
                               default_serving_slos)
from repro.obs.trace import RequestTrace, Tracer, spans_from_stamps
from repro.serve import shm as shm_transport
from repro.serve.admission import (
    PRIORITIES,
    AdmissionController,
    Autoscaler,
    DeadlineExpired,
    QosPolicy,
    RouteOverloaded,
)
from repro.serve.batcher import AdaptiveBatchPolicy, assemble_images
from repro.serve.stats import (
    LatencyReservoir,
    RouteStats,
    ShardStats,
    SnapshotTransport,
    TransportStats,
)

#: Model id (and route key) a single-model server serves under.
DEFAULT_MODEL = "default"

#: Longest a dispatch blocked on a full ring sleeps before it culls the
#: queued requests whose deadline lapsed.
_RING_TICK_S = 0.02

#: What ``multiprocessing.connection.wait`` polls with, kept open here.
_PipeSelector = getattr(selectors, "PollSelector", selectors.SelectSelector)


def _worker_main(worker_id: int, task_conn, result_conn,
                 ring: shm_transport.ShmRing, generation: int = 0,
                 profile: bool = False, parent_ends=()) -> None:
    """Worker process loop: restore sessions on demand, serve batches.

    ``parent_ends`` are the parent's own ends of this worker's pipes (its
    task writer and result reader).  A forked worker inherits them, and
    while it holds the task writer its task pipe never reads EOF, so it
    closes them first: once the parent dies, the worker reads EOF and
    exits instead of outliving it.  ``ring`` is the shard's
    :class:`~repro.serve.shm.ShmRing`.

    Task pipe (parent → worker), read one message at a time:

    * a batch is one fixed ``struct`` record
      (:func:`repro.serve.shm.batch_record`: batch id, input/output ring
      offsets, sample count, generation, traced flag, route key).  The
      shapes come from the route's session; a record stamped with
      another ``generation`` is reported as
      :class:`~repro.serve.shm.ShmTransportError`, and the parent
      restarts the shard;
    * everything else is pickled: ``("load", key, snapshot)``,
      ``("unload", key)`` and ``("stop",)``.

    Result pipe (worker → parent): an untraced batch answers with a
    :func:`repro.serve.shm.done_record` (its logits are already in the
    lease's output block); everything else is pickled:
    ``("loaded", worker_id, key)``,
    ``("load_failed", worker_id, key, message)``,
    ``("done", batch_id, timing)`` and ``("error", batch_id, message)``.

    ``traced`` marks a batch whose requests sampled tracing; only then
    does the worker stamp its side of the timeline — ``timing`` rides
    back as ``(recv, compute_start, compute_end, phases)`` in the same
    system-wide ``perf_counter`` timebase the parent stamps with.  With
    ``profile=True`` each restored session gets a
    :class:`repro.obs.profile.SessionProfiler`, and ``phases`` carries
    the per-phase compute breakdown of the batch (``None`` otherwise).
    """
    for conn in parent_ends:
        conn.close()
    try:
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ImportError, ValueError, OSError):
        pass

    sessions: dict[str, InferenceSession] = {}
    try:
        while True:
            data = task_conn.recv_bytes()
            if data[:1] != shm_transport.BATCH_TAG:
                message = pickle.loads(data)
                kind = message[0]
                if kind == "load":
                    _, key, snapshot = message
                    try:
                        sessions[key] = restore_session(snapshot)
                        if profile:
                            sessions[key]._profiler = SessionProfiler()
                    except Exception as error:  # report, keep serving others
                        result_conn.send(
                            ("load_failed", worker_id, key,
                             f"{type(error).__name__}: {error}")
                        )
                    else:
                        result_conn.send(("loaded", worker_id, key))
                elif kind == "unload":
                    sessions.pop(message[1], None)
                elif kind == "stop":
                    return
                continue
            (batch_id, in_offset, out_offset, n, stamp, traced,
             key) = shm_transport.read_batch_record(data)
            recv = time.perf_counter() if traced else 0.0
            try:
                session = sessions.get(key)
                if session is None:
                    raise RuntimeError(f"model {key!r} not loaded on worker")
                size, channels = session.image_size, session.channels
                images, out = shm_transport.open_batch(
                    ring, in_offset, (n, size, size, channels),
                    out_offset, (n, session.num_classes), stamp, generation,
                )
                start = time.perf_counter()
                session.predict_many(images, out=out)  # logits into the lease
                end = time.perf_counter()
                profiler = getattr(session, "_profiler", None)
                # drain per batch so phases never bleed across traces
                phases = profiler.drain() if profiler is not None else None
                if traced:
                    result_conn.send(("done", batch_id,
                                      (recv, start, end, phases)))
                else:
                    result_conn.send_bytes(shm_transport.done_record(batch_id))
            except Exception as error:  # report, keep serving
                result_conn.send(
                    ("error", batch_id, f"{type(error).__name__}: {error}")
                )
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        return  # parent went away — nothing sensible left to do


class _Request:
    """One client request: a micro-batch of images plus its rendezvous."""

    __slots__ = ("id", "images", "n", "model", "routed_key", "forced_key",
                 "enqueued", "event", "result", "error", "error_code",
                 "traced", "breakdown", "on_done", "priority", "deadline")

    def __init__(self, request_id: int, images: np.ndarray, model: str,
                 enqueued: float, on_done=None, priority: str = "standard",
                 deadline: float | None = None):
        self.id = request_id
        self.images = images
        self.n = len(images)
        self.model = model
        self.routed_key: str | None = None  # sticky dispatch-time resolution
        self.forced_key: str | None = None  # canary-retry pin to the incumbent
        self.enqueued = enqueued  # perf_counter when submit() was entered
        self.event = threading.Event()
        self.result: np.ndarray | None = None
        self.error: str | None = None
        self.error_code: str | None = None  # wire code ("timeout", …)
        self.traced = False  # sampling decision, made once at submit
        self.breakdown = None  # RequestTrace when traced
        self.on_done = on_done  # completion callback (gateway wakeup)
        self.priority = priority  # QoS class (admission.PRIORITIES)
        self.deadline = deadline  # absolute perf_counter deadline, or None


class _Batch:
    """A dispatched coalesced batch, retained until its results return.

    The batch carries no parent-side image array: its data lives in the
    shard's ring at ``lease`` ``(offset, out_offset, out_shape)`` until
    the lease is freed, which is also what a crash re-dispatch sends.
    """

    __slots__ = ("id", "shard", "key", "requests", "n", "dispatched",
                 "lease", "traced", "gathered", "write_started", "sent")

    def __init__(self, batch_id: int, shard: int, key: str,
                 requests: list[_Request], n: int, lease: tuple):
        self.id = batch_id
        self.shard = shard
        self.key = key
        self.requests = requests
        self.n = n
        self.lease = lease
        self.dispatched = time.perf_counter()
        # Trace stamps (absolute perf_counter, parent side); only batches
        # carrying at least one sampled request pay for them.
        self.traced = False
        self.gathered = 0.0
        self.write_started = 0.0
        self.sent = 0.0


class _Shard:
    """Parent-side handle of one worker process."""

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.task_conn = None  # parent end of the worker's task pipe
        #: Messages for the task pipe, ``(conn, message)`` in the order
        #: they were posted (under the bookkeeping lock); written by
        #: whoever holds ``send_lock`` — see ``LocalizationServer._flush``.
        self.outbox: deque = deque()
        self.send_lock = threading.Lock()
        self.result_conn = None  # parent end of the worker's result pipe
        self.outstanding = 0  # dispatched-but-unfinished samples
        self.ready = threading.Event()
        self.expected: set[str] = set()  # keys shipped at spawn
        self.load_acks: dict[str, threading.Event] = {}
        self.load_failures: dict[str, str] = {}
        self.stats = ShardStats()
        self.failed = False  # exceeded the restart budget
        self.conn_dead = False  # EOF or a fault seen; awaiting restart
        self.ring = None  # parent-held ShmRing; survives restarts
        self.generation = 0  # bumped per (re)spawn; stamps batch records


class LocalizationServer:
    """Fan localization inference out over ``workers`` shard processes.

    Parameters
    ----------
    source:
        A compiled :class:`InferenceSession`, a trained
        :class:`repro.vit.VitalModel`, or a session snapshot dict
        (:meth:`InferenceSession.snapshot`).  ``None`` starts the server
        with no model loaded — the multi-tenant mode used by
        :class:`repro.fleet.FleetServer`, which deploys models by key.
    workers:
        Number of worker processes (shards).
    max_batch:
        Micro-batcher capacity in samples; defaults to the session's
        ``max_batch`` (32 when starting empty).
    max_delay_ms:
        Hard ceiling on batching delay before a partial batch dispatches.
        The delay only applies while every live shard is busy; an idle
        shard takes pending requests at once.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork`` (cheap,
        zero-copy snapshot) and falls back to ``spawn``.
    restart_limit:
        Restarts allowed per shard before it is marked failed.
    transport:
        Only ``"shm"``: batch payloads move through per-shard
        shared-memory rings (:mod:`repro.serve.shm`) and only small
        fixed records through the task pipes.  Any other value raises
        ``ValueError``; a host without ``os.memfd_create`` raises
        ``RuntimeError``.
    ring_bytes:
        Per-shard ring size; default sizes ``ring_slots`` full
        batches of the largest loaded model geometry (floor 2 MiB).  An
        explicit size must hold one full ``max_batch`` batch of every
        loaded model (``ValueError`` otherwise, here and in
        :meth:`load_model`).
    trace_sample:
        Fraction of requests to trace end-to-end (0.0 — the default —
        disables tracing entirely; 1.0 traces every request).  Sampling
        uses a deterministic fraction accumulator, so 0.25 traces exactly
        every fourth request.  Traced requests land in a bounded buffer
        (see :meth:`traces`) and carry a ``breakdown`` span chain
        retrievable via :meth:`result_with_breakdown`.
    trace_buffer:
        Capacity of the in-memory trace buffer (oldest evicted first).
    profile:
        Attach a :class:`repro.obs.profile.SessionProfiler` to every
        worker-side session so traced batches additionally report the
        per-phase compute breakdown (``patch_gather``/``embed``/
        ``block{i}``/…) inside their compute span.
    monitor:
        ``True`` attaches a :class:`repro.obs.monitor.Monitor` to the
        server's metrics registry: a background timeline sampler plus SLO
        burn-rate and alert/drift evaluation after every sample.  The
        sampler starts with :meth:`start` and stops with :meth:`close`;
        server/fleet lifecycle events (start, stop, shard restarts,
        deploys, swaps, canary verdicts) are appended to its event
        journal.  ``False`` (default) keeps the continuous layer entirely
        absent — no thread, no per-request cost.
    monitor_interval_s / monitor_retention:
        Sampling cadence and per-series ring-buffer length of the
        timeline (defaults 0.5 s / 600 points ≈ 5 minutes).
    monitor_slos / monitor_rules:
        Objective and rule sets; ``None`` installs
        :func:`repro.obs.monitor.default_serving_slos` /
        :func:`repro.obs.monitor.default_serving_rules`.  Pass ``()`` to
        run the timeline without evaluation.
    journal_path:
        When set, the monitor's event journal is additionally persisted
        as append-only JSONL at this path.
    qos:
        Optional ``{model id → QosPolicy-or-dict}`` admission policies
        (see :class:`repro.serve.admission.QosPolicy`): per-route
        priority class, queue bound and default deadline.  Policies are
        keyed by model id, so they survive hot swaps and canaries.
        More can be set later via ``server.qos.set_policy``.
    max_queue:
        Server-wide bound on pending (not yet dispatched) requests,
        enforced on *every* submit — including shard-restart windows;
        a full queue rejects with
        :class:`repro.serve.admission.RouteOverloaded`.
    autoscale:
        ``True`` starts a background
        :class:`repro.serve.admission.Autoscaler` that elastically moves
        each route's soft share of the shard pool toward its observed
        load (``autoscale_interval_s`` cadence), with hysteresis;
        shares feed per-route concurrency caps in the dispatcher.
    """

    def __init__(
        self,
        source,
        workers: int = 2,
        max_batch: int | None = None,
        max_delay_ms: float = 2.0,
        start_method: str | None = None,
        restart_limit: int = 5,
        health_interval_s: float = 0.2,
        startup_timeout_s: float = 60.0,
        transport: str = "shm",
        ring_bytes: int | None = None,
        ring_slots: int = 4,
        trace_sample: float = 0.0,
        trace_buffer: int = 256,
        profile: bool = False,
        monitor: bool = False,
        monitor_interval_s: float = 0.5,
        monitor_retention: int = 600,
        monitor_slos=None,
        monitor_rules=None,
        journal_path=None,
        qos=None,
        max_queue: int = 4096,
        autoscale: bool = False,
        autoscale_interval_s: float = 0.25,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if transport != "shm":
            raise ValueError(f"transport must be 'shm', got {transport!r}")
        if not shm_transport.HAVE_SHM:
            raise RuntimeError(
                "LocalizationServer needs os.memfd_create (Linux) for its "
                "shared-memory batch rings"
            )
        self.workers = int(workers)
        self.max_delay_ms = float(max_delay_ms)
        self.restart_limit = int(restart_limit)
        self.health_interval_s = float(health_interval_s)
        self.startup_timeout_s = float(startup_timeout_s)

        self.transport = transport
        self.ring_bytes = None if ring_bytes is None else int(ring_bytes)
        self.ring_slots = max(1, int(ring_slots))
        #: Bytes in each shard's ring; None until start() sizes an
        #: automatic ring to the models loaded by then.
        self._ring_size = (None if ring_bytes is None
                           else shm_transport.align(self.ring_bytes))
        self._transport_totals = TransportStats()

        self.tracer = Tracer(trace_sample, capacity=trace_buffer)
        self.profile = bool(profile)
        self.metrics = MetricsRegistry()
        self.metrics.add_collector(self._collect_metrics)

        self.monitor = None
        if monitor:
            self.monitor = Monitor(
                self.metrics,
                interval_s=monitor_interval_s,
                retention=monitor_retention,
                slos=(default_serving_slos() if monitor_slos is None
                      else monitor_slos),
                rules=(default_serving_rules() if monitor_rules is None
                       else monitor_rules),
                journal_path=journal_path,
            )

        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(start_method)
        self.start_method = start_method

        # -- model table: route key → snapshot / metadata / transport ---
        self._snapshots: dict[str, dict] = {}
        self._model_info: dict[str, dict] = {}
        self._transports: dict[str, SnapshotTransport] = {}
        self._route_stats: dict[str, RouteStats] = {}
        self._routes: dict[str, str] = {}  # model id → route key
        # Cumulative accounting of unloaded (retired) versions, so a
        # long-lived hot-swapping server neither leaks per-version state
        # nor loses its transport totals.
        self._retired_routes = 0
        self._retired_bytes_shipped = 0

        self._shards: list[_Shard] = []
        self._pending: deque[_Request] = deque()
        self._cond = threading.Condition()  # guards _pending + policy
        self._lock = threading.RLock()  # guards requests/in-flight/shard state
        #: Signaled whenever a ring lease is freed — the dispatcher waits
        #: on this (releasing _lock) when a shard's ring is full.
        self._ring_cond = threading.Condition(self._lock)
        self._requests: dict[int, _Request] = {}
        self._in_flight: dict[int, _Batch] = {}
        #: Requests taken for dispatch (by the dispatcher's gather or an
        #: inline submit) but not yet in _in_flight, by request id —
        #: guarded by _cond, so anything holding both locks sees every
        #: live request in _pending, _staged or _in_flight.
        self._staged: dict[int, _Request] = {}
        #: Bumped (under _lock) whenever a shard's result pipe opens,
        #: closes or dies; the collector rebuilds its selector then.
        self._conn_epoch = 0
        self._request_ids = itertools.count()
        self._batch_ids = itertools.count()
        self._threads: list[threading.Thread] = []
        self._started = False
        self._stopping = False
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._request_latency = LatencyReservoir(maxlen=4096)
        self._lifecycle_hooks: list = []
        self._gateway = None  # attached network front end (stats only)

        # -- admission control / QoS ------------------------------------
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.max_queue = int(max_queue)
        self.qos = AdmissionController(resolve_model=self._model_for_key,
                                       on_event=self._journal_event)
        if qos:
            for model_id, policy in qos.items():
                if not isinstance(policy, QosPolicy):
                    policy = QosPolicy.from_dict(policy)
                self.qos.set_policy(model_id, policy)
        self._rejected = 0  # admission rejections (never entered the queue)
        #: Pending samples per model id — guarded by _cond alongside
        #: _pending; feeds per-route queue bounds and autoscaler load.
        self._pending_by_model: dict[str, int] = {}
        #: How many queued requests carry a deadline (guarded by _cond);
        #: zero keeps the expiry cull entirely off the dispatch path.
        self._deadline_count = 0
        #: Dispatched-but-unfinished samples per model id (guarded by
        #: _lock; read without it by the dispatcher's share-cap check,
        #: which is a heuristic and tolerates stale values).
        self._route_outstanding: dict[str, int] = {}
        #: Soft shares of the shard pool per model id (empty → no caps).
        self._route_shares: dict[str, float] = {}
        self.autoscaler = (Autoscaler(self, interval_s=autoscale_interval_s)
                           if autoscale else None)
        if self.monitor is not None:
            # Registered after the Monitor's own listener, so each sample
            # refreshes the SLO reports before the shedder reads them.
            self.monitor.timeline.add_listener(self._on_monitor_sample)

        if source is not None:
            session = self._as_session(source)
            self._register(DEFAULT_MODEL, session.snapshot())
            self._routes[DEFAULT_MODEL] = DEFAULT_MODEL
            if max_batch is None:
                max_batch = session.max_batch
        self.max_batch = _validate_max_batch(
            max_batch if max_batch is not None else 32
        )
        self._policy = AdaptiveBatchPolicy(self.max_batch, self.max_delay_ms)
        for info in self._model_info.values():
            self._check_ring_holds(info, self.max_batch)

    @staticmethod
    def _as_session(source) -> InferenceSession:
        if isinstance(source, InferenceSession):  # incl. QuantizedSession
            return source
        if isinstance(source, dict):  # a float32 or quantized snapshot
            return restore_session(source)
        from repro.vit.model import VitalModel

        if isinstance(source, VitalModel):
            return InferenceSession(source)
        raise TypeError(
            "LocalizationServer needs an InferenceSession, a "
            "QuantizedSession, a session snapshot, or a VitalModel; got "
            f"{type(source).__name__}"
        )

    def _register(self, key: str, snapshot: dict,
                  model: str | None = None, version: int | None = None) -> dict:
        """Record a snapshot under ``key``; returns its metadata."""
        info = snapshot_info(snapshot)
        info["model"] = model if model is not None else key
        info["version"] = version
        self._snapshots[key] = snapshot
        self._model_info[key] = info
        self._transports[key] = SnapshotTransport(
            snapshot.get("format"), len(pickle.dumps(snapshot))
        )
        self._route_stats_for(key)
        return info

    def _route_stats_for(self, key: str) -> RouteStats:
        """The stats of route ``key``, created on first use (a lookup on
        every later call: no throwaway ``RouteStats`` per batch)."""
        stats = self._route_stats.get(key)
        if stats is None:
            stats = self._route_stats[key] = RouteStats()
        return stats

    # -- single-model convenience geometry (the default route's) --------
    @property
    def _default_info(self) -> dict | None:
        key = self._routes.get(DEFAULT_MODEL)
        return self._model_info.get(key) if key is not None else None

    @property
    def image_size(self) -> int | None:
        info = self._default_info
        return info["image_size"] if info else None

    @property
    def channels(self) -> int | None:
        info = self._default_info
        return info["channels"] if info else None

    @property
    def num_classes(self) -> int | None:
        info = self._default_info
        return info["num_classes"] if info else None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "LocalizationServer":
        """Launch the worker processes and serving threads; blocks until
        every worker has restored its session(s) and reported loaded."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._ring_size = shm_transport.align(self._ring_capacity())
        for index in range(self.workers):
            shard = _Shard(index)
            # The parent holds the ring for the server's lifetime: it
            # survives restarts, and re-dispatched batch data lives in it.
            shard.ring = shm_transport.ShmRing(self._ring_size)
            self._shards.append(shard)
            self._spawn_worker(shard)
        for shard in self._shards:  # every worker boots while we write
            self._flush(shard)

        for name, target in (
            ("serve-collector", self._collector_loop),
            ("serve-dispatcher", self._dispatcher_loop),
            ("serve-monitor", self._monitor_loop),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

        deadline = time.perf_counter() + self.startup_timeout_s
        for shard in self._shards:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not shard.ready.wait(timeout=remaining):
                self.close(drain=False)
                raise RuntimeError(
                    f"worker {shard.index} failed to become ready within "
                    f"{self.startup_timeout_s:.0f}s"
                )
            if shard.load_failures:
                failures = dict(shard.load_failures)
                self.close(drain=False)
                raise RuntimeError(
                    f"worker {shard.index} failed to restore: {failures}"
                )
        if self.monitor is not None:
            self.monitor.start()
            self._journal_event("server_started", workers=self.workers,
                                transport=self.transport)
        if self.autoscaler is not None:
            self.autoscaler.start()
        return self

    def _journal_event(self, kind: str, **fields) -> None:
        """Fan a lifecycle event out to the monitor's journal (when
        monitoring is enabled) and to every registered lifecycle hook.
        Shared with the fleet layer, which journals deploy/swap/canary
        verdicts through the same hook — the gateway's result cache
        subscribes here to invalidate on swaps and canary promotions."""
        if self.monitor is not None:
            self.monitor.event(kind, **fields)
        for hook in list(self._lifecycle_hooks):
            try:
                hook(kind, dict(fields))
            except Exception:
                pass  # a broken observer must never break serving

    def add_lifecycle_hook(self, hook) -> None:
        """Register ``hook(kind, fields)`` to be called on every lifecycle
        event (server start/stop, deploy, swap, canary, shard restart),
        independent of whether monitoring is enabled."""
        self._lifecycle_hooks.append(hook)

    # -- shared-memory ring sizing --------------------------------------
    @staticmethod
    def _batch_bytes(info: dict, n: int) -> int:
        """Ring bytes a batch of ``n`` samples of ``info``'s geometry
        needs (aligned input block + aligned output block)."""
        frame = info["image_size"] * info["image_size"] * info["channels"] * 4
        return (shm_transport.align(n * frame)
                + shm_transport.align(n * info["num_classes"] * 4))

    def _ring_capacity(self) -> int:
        if self.ring_bytes is not None:
            return self.ring_bytes  # explicit size wins (tests force tiny rings)
        per_batch = [self._batch_bytes(info, self.max_batch)
                     for info in self._model_info.values()]
        need = max(per_batch) * self.ring_slots if per_batch else 0
        return max(need, shm_transport.MIN_RING_BYTES)

    def _check_ring_holds(self, info: dict, n: int) -> None:
        """Refuse a batch of ``n`` samples of ``info``'s geometry that no
        ring lease could ever hold: it would wait for space forever."""
        need = self._batch_bytes(info, n)
        if self._ring_size is not None and need > self._ring_size:
            raise ValueError(
                f"a batch of {n} {info['image_size']}x{info['image_size']}x"
                f"{info['channels']} sample(s) needs {need} ring bytes, but "
                f"each shard ring holds {self._ring_size}"
            )

    def _spawn_worker(self, shard: _Shard) -> None:
        """Create the task/result pipes and process for ``shard`` and post
        every currently loaded snapshot to it (the caller flushes them
        once it has released the bookkeeping lock).

        Each spawn bumps the shard generation, so batch records minted for
        a dead worker can never be honored by its replacement without
        being re-stamped."""
        shard.generation += 1
        task_recv, shard.task_conn = self._ctx.Pipe(duplex=False)
        receive_conn, send_conn = self._ctx.Pipe(duplex=False)
        shard.result_conn = receive_conn
        shard.conn_dead = False
        self._conn_epoch += 1
        shard.ready.clear()
        shard.expected = set(self._snapshots)
        # Keep existing ack events: a load_model() caller may be blocked on
        # one while this restart re-seeds the worker — the fresh worker's
        # "loaded" message must reach that same event, not a replacement.
        # (An already-set event stays set; that is safe, because every
        # batch is queued behind this spawn's load messages anyway.)
        previous_acks = shard.load_acks
        shard.load_acks = {
            key: previous_acks.get(key) or threading.Event()
            for key in shard.expected
        }
        shard.load_failures = {}
        shard.process = self._ctx.Process(
            target=_worker_main,
            args=(shard.index, task_recv, send_conn, shard.ring,
                  shard.generation, self.profile,
                  (shard.task_conn, receive_conn)),
            name=f"repro-serve-worker-{shard.index}",
            daemon=True,
        )
        shard.process.start()
        # The parent keeps only its own ends: the worker's death then
        # reads as EOF on the result pipe and EPIPE on the task pipe.
        send_conn.close()
        task_recv.close()
        for key, snapshot in self._snapshots.items():
            self._post(shard, ("load", key, snapshot))
            self._transports[key].record_ship()
        if not shard.expected:
            shard.ready.set()  # empty multi-tenant server: nothing to restore

    def __enter__(self) -> "LocalizationServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self, timeout: float = 10.0, drain: bool = True) -> None:
        """Stop serving: optionally drain outstanding work, then shut the
        workers down (politely first, forcibly after ``timeout``)."""
        if not self._started or self._stopping:
            return
        if drain:
            deadline = time.perf_counter() + timeout
            while time.perf_counter() < deadline:
                with self._lock, self._cond:
                    idle = not (self._in_flight or self._staged
                                or self._pending)
                if idle:
                    break
                time.sleep(0.01)
        self._stopping = True
        if self.autoscaler is not None:
            self.autoscaler.stop()
        with self._cond:
            self._cond.notify_all()
        with self._ring_cond:
            self._ring_cond.notify_all()  # unblock a backpressured dispatch
        for shard in self._shards:
            self._send_stop(shard)
        for thread in self._threads:
            thread.join(timeout=2.0)
        for shard in self._shards:
            process = shard.process
            if process is not None:
                process.join(timeout=2.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
                if process.is_alive():  # SIGSTOPped: SIGTERM stays pending
                    process.kill()
                    process.join(timeout=1.0)
            self._teardown_shard(shard, close_ring=True)
            self._flush(shard)  # the worker is gone: closes the task pipe
        self._fail_outstanding("server closed")
        if self.monitor is not None:
            self._journal_event("server_stopped",
                                completed=self._completed,
                                failed=self._failed)
            self.monitor.stop()

    def _teardown_shard(self, shard: _Shard, close_ring: bool = False) -> None:
        """Idempotently release a shard's IPC resources.

        Shared by the stop path (:meth:`close`) and the failure path
        (:meth:`_restart_shard`): each resource is nulled as it is
        released, so calling this twice — or once from each path — closes
        the pipes exactly once.  Messages still waiting for the old task
        pipe are dropped (a restart re-seeds the snapshots and re-sends
        every in-flight batch), and the pipe itself is closed by the next
        :meth:`_flush`, under the send lock, so no writer can be midway
        through it.  The ring is parent-held state that must *survive*
        restarts (re-dispatched batch data lives in it), so it is only
        released when ``close_ring`` is set — the shutdown path — and
        that too exactly once
        (:meth:`repro.serve.shm.ShmRing.close` is itself idempotent)."""
        shard.outbox.clear()
        if shard.task_conn is not None:
            shard.outbox.append((shard.task_conn, None))
            shard.task_conn = None
        if shard.result_conn is not None:
            try:
                shard.result_conn.close()
            except OSError:
                pass
            shard.result_conn = None
            self._conn_epoch += 1
        if close_ring and shard.ring is not None:
            shard.ring.close()
            shard.ring = None

    # -- task pipes ----------------------------------------------------
    def _post(self, shard: _Shard, message) -> None:
        """Queue ``message`` — a record's ``bytes`` or a picklable tuple —
        for ``shard``'s current task pipe.  Called under the bookkeeping
        lock and never blocks; the caller sends it with :meth:`_flush`
        once the lock is released."""
        if shard.task_conn is not None:
            shard.outbox.append((shard.task_conn, message))

    def _flush(self, shard: _Shard) -> None:
        """Write ``shard``'s queued messages in the order they were posted.

        Never called under the bookkeeping lock: a pipe write blocks while
        the pipe is full, and the worker only empties it while the
        collector — which needs that lock — takes its results.  Nor from
        the collector thread, for the same reason.  Whoever holds the
        send lock writes every queued message."""
        with shard.send_lock:
            outbox = shard.outbox
            while outbox:
                try:
                    conn, message = outbox.popleft()
                except IndexError:
                    return  # cleared by a teardown meanwhile
                try:
                    if message is None:
                        conn.close()
                    elif isinstance(message, bytes):
                        conn.send_bytes(message)
                    else:
                        conn.send(message)
                except (OSError, ValueError):
                    pass  # dead worker: the restart re-sends what matters

    def _send_stop(self, shard: _Shard) -> None:
        """Best-effort ``("stop",)`` that never waits on a full pipe: a
        worker that cannot take it is terminated by :meth:`close`."""
        conn = shard.task_conn
        if conn is None or not shard.send_lock.acquire(timeout=0.5):
            return
        try:
            os.set_blocking(conn.fileno(), False)
            conn.send(("stop",))
        except (OSError, ValueError):
            pass
        finally:
            shard.send_lock.release()

    def _free_lease(self, batch: _Batch) -> None:
        """Release a batch's ring lease (once); called under the
        bookkeeping lock."""
        if batch.lease is None:
            return
        ring = self._shards[batch.shard].ring
        if ring is not None:
            ring.free(batch.lease[0])
        batch.lease = None
        self._ring_cond.notify_all()

    def _fail_outstanding(self, message: str) -> None:
        with self._lock:
            batches = list(self._in_flight.values())
            self._in_flight.clear()
            with self._cond:
                staged = list(self._staged.values())
                self._staged.clear()
                pending = list(self._pending)
                self._pending.clear()
                self._pending_by_model.clear()
                self._deadline_count = 0
            self._route_outstanding.clear()
            for batch in batches:
                self._free_lease(batch)
                for request in batch.requests:
                    self._finish_error(request, message)
            for request in staged + pending:
                self._finish_error(request, message)

    # -- model management (used by repro.fleet) -------------------------
    def load_model(self, key: str, snapshot: dict, model: str | None = None,
                   version: int | None = None, timeout: float = 60.0) -> dict:
        """Ship ``snapshot`` to every live worker under route ``key``.

        Blocks until every worker acknowledges the restore (or raises on
        timeout / restore failure).  Before :meth:`start` it only records
        the snapshot — the spawn seeds it.  Returns the model metadata.
        """
        acks: list[tuple[_Shard, threading.Event]] = []
        with self._lock:
            if key in self._snapshots:
                raise ValueError(f"route key {key!r} already loaded")
            self._check_ring_holds(snapshot_info(snapshot), self.max_batch)
            info = self._register(key, snapshot, model=model, version=version)
            if self._started:
                for shard in self._shards:
                    if shard.failed or shard.task_conn is None:
                        continue
                    event = threading.Event()
                    shard.load_acks[key] = event
                    self._post(shard, ("load", key, snapshot))
                    self._transports[key].record_ship()
                    acks.append((shard, event))
        # A broken pipe drops the message; the monitor restart re-seeds it.
        for shard, _event in acks:
            self._flush(shard)
        deadline = time.perf_counter() + timeout
        for shard, event in acks:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not event.wait(timeout=remaining):
                self.unload_model(key)
                raise RuntimeError(
                    f"worker {shard.index} did not load {key!r} within {timeout}s"
                )
        failures = {
            shard.index: shard.load_failures.pop(key)
            for shard, _ in acks if key in shard.load_failures
        }
        if failures:
            self.unload_model(key)
            raise RuntimeError(f"loading {key!r} failed on workers: {failures}")
        return info

    def unload_model(self, key: str) -> None:
        """Drop ``key`` from the model table and from every live worker.

        The caller is responsible for making sure no route points at the
        key and no batch for it is in flight (see
        :meth:`repro.fleet.FleetServer.swap`, which drains first)."""
        with self._lock:
            self._snapshots.pop(key, None)
            self._model_info.pop(key, None)
            self._route_stats.pop(key, None)
            transport = self._transports.pop(key, None)
            if transport is not None:
                self._retired_routes += 1
                self._retired_bytes_shipped += \
                    transport.summary()["bytes_shipped"]
            for shard in self._shards:
                shard.load_acks.pop(key, None)
                shard.load_failures.pop(key, None)
                if not shard.failed:
                    self._post(shard, ("unload", key))
        for shard in self._shards:
            self._flush(shard)

    def set_route(self, model: str, key: str) -> None:
        """Atomically point ``model`` at route ``key`` (queued requests not
        yet dispatched follow the new route immediately)."""
        with self._lock:
            if key not in self._snapshots:
                raise ValueError(f"cannot route {model!r} to unloaded key {key!r}")
            self._routes[model] = key

    def _model_for_key(self, key: str) -> str:
        """Reverse route lookup (route key → model id), used to attribute
        route-labeled SLO reports to the model whose policy sheds.  Falls
        back to the ``model@vN`` key convention for retired keys.

        Takes no lock: the shed update calls it under _cond, and every
        dispatch takes _cond while holding _lock.  ``list()`` copies the
        table in one step under the GIL."""
        for model, route in list(self._routes.items()):
            if route == key:
                return model
        return key.split("@", 1)[0]

    # -- elastic shard shares (driven by the Autoscaler) ----------------
    def route_shares(self) -> dict[str, float]:
        """Current soft shares of the shard pool per model id (empty when
        elastic scaling never engaged)."""
        with self._lock:
            return dict(self._route_shares)

    def set_route_shares(self, shares: dict[str, float]) -> None:
        """Replace the soft share table (the dispatcher picks the new
        caps up on its next gather; in-flight work is untouched, so a
        rebalance can never lose a request)."""
        table = {model: float(share) for model, share in shares.items()}
        with self._lock:
            self._route_shares = table

    def _on_monitor_sample(self, timeline, now) -> None:
        """Timeline listener (sampler thread), registered *after* the
        monitor's own — each sample refreshes the SLO burn-rate reports
        first, then this feeds them to the admission shedder."""
        monitor = self.monitor
        if monitor is None or self._stopping:
            return
        with self._cond:  # shed state is read by submit under _cond
            self.qos.update_shedding(monitor.slo_engine.last_reports())

    # -- client API ----------------------------------------------------
    def route_info(self, model: str | None = None) -> dict:
        """Geometry of the route currently serving ``model`` (image_size /
        channels / num_classes) — what a network front end needs to
        validate an incoming fingerprint before :meth:`submit`."""
        model = model if model is not None else DEFAULT_MODEL
        route = self._routes.get(model)
        if route is None:
            known = sorted(self._routes)
            raise ValueError(f"unknown model {model!r} (deployed: {known})")
        return dict(self._model_info[route])

    def cache_route(self, model: str | None = None) -> str | None:
        """Route key under which ``model``'s results may be cached, or
        ``None`` when caching is unsafe.  The base server always caches
        under the live route; :class:`repro.fleet.FleetServer` overrides
        this to return ``None`` while the model has an active canary
        (a cached incumbent answer must not mask canary traffic)."""
        model = model if model is not None else DEFAULT_MODEL
        return self._routes.get(model)

    def attach_gateway(self, gateway) -> None:
        """Surface an attached network front end in :meth:`stats` (the
        ``"gateway"`` section); pass ``None`` to detach."""
        self._gateway = gateway

    def submit(self, images, model: str | None = None, on_done=None,
               priority: str | None = None,
               deadline_ms: float | None = None) -> int:
        """Enqueue one request (a single image or a small batch of images)
        for ``model`` (default: the single-model route); returns a request
        id for :meth:`result`.

        ``priority`` / ``deadline_ms`` override the model's
        :class:`~repro.serve.admission.QosPolicy` defaults per request.
        Admission is synchronous: a full queue (server-wide or the
        route's own bound) or an SLO-shed decision raises
        :class:`~repro.serve.admission.RouteOverloaded` *here* instead of
        queueing forever, and a request whose deadline lapses before it
        is served fails with
        :class:`~repro.serve.admission.DeadlineExpired` from
        :meth:`result`.

        ``on_done`` (optional) is called exactly once with the request id
        when the request finishes — success *or* failure — right after its
        completion event is set.  It runs on a server-internal thread with
        the bookkeeping lock held, so it must only hand off (enqueue +
        wake), never block or call back into the server.

        An empty request, or one too large for a shard ring to hold,
        raises ``ValueError`` like a wrong shape does.

        When nothing is queued, a live shard is idle and no elastic
        shares are set, the request is dispatched on the caller's thread:
        it is written to that shard's ring and its record to the shard's
        task pipe before ``submit`` returns, without waking the
        dispatcher.  The ring write never waits for space: if a race
        filled the ring first, the request is queued for the dispatcher
        instead.  The record write only waits while the pipe is full.
        Queued or coalesced work goes through the dispatcher."""
        entered = time.perf_counter()  # the trace's enqueue span starts here
        if not self._started:
            raise RuntimeError("server not started (call start() or use `with`)")
        if self._stopping:
            raise RuntimeError("server is shutting down")
        model = model if model is not None else DEFAULT_MODEL
        route = self._routes.get(model)
        if route is None:
            known = sorted(self._routes)
            raise ValueError(f"unknown model {model!r} (deployed: {known})")
        policy = self.qos.get_policy(model)
        if priority is None:
            priority = policy.priority
        elif priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {PRIORITIES}, got {priority!r}"
            )
        if deadline_ms is None:
            deadline_ms = policy.deadline_ms
        info = self._model_info[route]
        x = self._coerce(images, info)
        if not len(x):
            raise ValueError("a request needs at least one image, got "
                             f"{np.shape(images)}")
        self._check_ring_holds(info, len(x))
        deadline = (time.perf_counter() + float(deadline_ms) / 1e3
                    if deadline_ms is not None else None)
        request = _Request(next(self._request_ids), x, model, entered,
                           on_done=on_done, priority=priority,
                           deadline=deadline)
        with self._lock:
            self._requests[request.id] = request
            self._submitted += 1
            # One attribute check when tracing is off — the whole cost of
            # the disabled path.
            if self.tracer.enabled:
                request.traced = self.tracer.sample()
        reject = inline = None
        with self._cond:
            now = time.perf_counter()
            queued = self._pending_by_model.get(model, 0)
            if self._stopping:
                # Re-checked under _cond: close() fails whatever is queued
                # or staged under this lock, so nothing slips in after.
                reject = RuntimeError("server is shutting down")
            elif len(self._pending) >= self.max_queue:
                # Server-wide bound: holds unconditionally — including
                # shard-restart windows, when dispatch stalls but submits
                # keep arriving (the queue must stay bounded, not absorb
                # the outage).
                self.qos.record_rejected(model)
                reject = RouteOverloaded(
                    f"server queue full ({len(self._pending)} pending "
                    f"requests, bound {self.max_queue})",
                    model=model, retry_after_s=0.5,
                )
            elif policy.max_queue is not None \
                    and queued + request.n > policy.max_queue:
                self.qos.record_rejected(model)
                reject = RouteOverloaded(
                    f"route {model!r} queue full ({queued} pending samples, "
                    f"bound {policy.max_queue})",
                    model=model, retry_after_s=0.25,
                )
            elif queued > self.max_batch \
                    and self.qos.should_shed(model, priority, now=now):
                # Work-conserving: shedding relieves *queueing* pressure,
                # so it only applies once the route has a real backlog —
                # a near-empty queue means the pool can absorb the work
                # now, and shedding it would idle shards while the SLO
                # recovers.
                reject = RouteOverloaded(
                    f"route {model!r} is shedding {priority}-class traffic "
                    f"(SLO breach)",
                    model=model, retry_after_s=0.5, shed=True,
                )
            else:
                self.qos.record_admitted(model, now=now)
                self._policy.observe_arrival(now)
                if not self._pending and not self._route_shares \
                        and self._idle_shard():
                    # Work-conserving without a hand-off: nothing is queued
                    # ahead and a shard is idle, so this thread dispatches
                    # the request itself (staged until it is in flight).
                    inline = self._route_for(request)
                    self._staged[request.id] = request
                else:
                    self._account_pending(request)
                    self._pending.append(request)
                    self._cond.notify()
        if reject is not None:
            with self._lock:
                self._requests.pop(request.id, None)
                self._submitted -= 1
                if isinstance(reject, RouteOverloaded):
                    self._rejected += 1
            raise reject
        if inline is not None:
            self._dispatch(inline, [request], inline=True)
        return request.id

    def result(self, request_id: int, timeout: float | None = None) -> np.ndarray:
        """Block until ``request_id`` finishes; returns its ``(n, classes)``
        logits.  Raises ``KeyError`` for unknown ids, ``TimeoutError`` on
        timeout and ``RuntimeError`` if the request failed server-side.

        A timed-out request stays collectable (call ``result`` again), but
        a client that gives up on it should call :meth:`cancel` so the
        server can release the request's buffers."""
        with self._lock:
            request = self._requests.get(request_id)
        if request is None:
            raise KeyError(f"unknown request id {request_id}")
        if not request.event.wait(timeout):
            raise TimeoutError(f"request {request_id} not done within {timeout}s")
        with self._lock:
            self._requests.pop(request_id, None)
        if request.error is not None:
            self._raise_request_error(request_id, request)
        return request.result

    @staticmethod
    def _raise_request_error(request_id: int, request: _Request):
        """Map a finished request's error onto the client exception:
        deadline expiry gets its own type (wire code ``timeout``),
        everything else stays a ``RuntimeError``."""
        if request.error_code == "timeout":
            raise DeadlineExpired(
                f"request {request_id} {request.error}", model=request.model
            )
        raise RuntimeError(f"request {request_id} failed: {request.error}")

    def result_with_breakdown(
        self, request_id: int, timeout: float | None = None
    ) -> tuple[np.ndarray, dict | None]:
        """Like :meth:`result` but returns ``(logits, breakdown)`` where
        ``breakdown`` is the request's span-chain dict when its trace was
        sampled (``None`` otherwise) — same shape as
        :meth:`repro.obs.trace.RequestTrace.to_dict`."""
        with self._lock:
            request = self._requests.get(request_id)
        if request is None:
            raise KeyError(f"unknown request id {request_id}")
        if not request.event.wait(timeout):
            raise TimeoutError(f"request {request_id} not done within {timeout}s")
        with self._lock:
            self._requests.pop(request_id, None)
        if request.error is not None:
            self._raise_request_error(request_id, request)
        trace = request.breakdown
        return request.result, (trace.to_dict() if trace is not None else None)

    def cancel(self, request_id: int) -> bool:
        """Abandon a submitted request and release its bookkeeping.

        Returns True if the id was known.  A batch already dispatched to a
        worker still computes (results for cancelled requests are simply
        dropped), but the request no longer retains memory server-side."""
        with self._lock:
            request = self._requests.pop(request_id, None)
            if request is None:
                return False
            self._finish_error(request, "cancelled by client")
        with self._cond:
            try:
                self._pending.remove(request)
            except ValueError:
                pass  # already dispatched (or completed)
            else:
                self._unaccount_pending(request)
        return True

    def predict_many(self, images, timeout: float | None = None,
                     model: str | None = None) -> np.ndarray:
        """Logits for an arbitrary workload, fanned out across the shards in
        ``max_batch``-sample requests and reassembled in order."""
        model = model if model is not None else DEFAULT_MODEL
        route = self._routes.get(model)
        if route is None:
            known = sorted(self._routes)
            raise ValueError(f"unknown model {model!r} (deployed: {known})")
        info = self._model_info[route]
        x = self._coerce(images, info)
        if len(x) == 0:
            return np.empty((0, info["num_classes"]), dtype=np.float32)
        ids = [
            self.submit(x[begin : begin + self.max_batch], model=model)
            for begin in range(0, len(x), self.max_batch)
        ]
        return np.concatenate([self.result(i, timeout=timeout) for i in ids], axis=0)

    def predict_labels(self, images, timeout: float | None = None,
                       model: str | None = None) -> np.ndarray:
        """Argmax reference-point indices for an arbitrary workload."""
        return self.predict_many(images, timeout=timeout, model=model).argmax(axis=1)

    def _coerce(self, images, info: dict) -> np.ndarray:
        size, channels = info["image_size"], info["channels"]
        x = np.asarray(images, dtype=np.float32)
        if x.ndim == 3:
            x = x[None]
        if x.ndim != 4 or x.shape[1] != size or x.shape[2] != size \
                or x.shape[3] != channels:
            raise ValueError(
                f"expected (batch, {size}, {size}, {channels}) images, "
                f"got {np.shape(images)}"
            )
        return np.ascontiguousarray(x)

    # -- dispatcher ----------------------------------------------------
    def _dispatcher_loop(self) -> None:
        while not self._stopping:
            key, batch_requests = self._gather_batch()
            if batch_requests:
                self._dispatch(key, batch_requests)

    def _route_for(self, request: _Request) -> str:
        """Resolve (once, stickily) which route key serves ``request``.

        Resolution happens at dispatch time so a hot swap redirects even
        already-queued traffic; it sticks so a request skipped by one
        coalescing round keeps its assignment (canary fractions stay
        exact).  Called under _cond (the dispatcher's gather or an inline
        submit), which serializes every resolution."""
        if request.routed_key is not None:
            return request.routed_key
        if request.forced_key is not None:
            key = request.forced_key
        else:
            key = self._resolve_route(request.model)
        request.routed_key = key
        return key

    def _resolve_route(self, model: str) -> str:
        """Routing-table lookup; :class:`repro.fleet.FleetServer` overrides
        this to split a canary fraction off to a candidate version."""
        return self._routes[model]

    def _account_pending(self, request: _Request) -> None:
        """Bookkeeping for a request entering ``_pending`` (under _cond)."""
        self._pending_by_model[request.model] = \
            self._pending_by_model.get(request.model, 0) + request.n
        if request.deadline is not None:
            self._deadline_count += 1

    def _unaccount_pending(self, request: _Request) -> None:
        """Bookkeeping for a request leaving ``_pending`` (under _cond)."""
        left = self._pending_by_model.get(request.model, 0) - request.n
        if left > 0:
            self._pending_by_model[request.model] = left
        else:
            self._pending_by_model.pop(request.model, None)
        if request.deadline is not None:
            self._deadline_count = max(0, self._deadline_count - 1)

    def _cull_expired(self, now: float) -> None:
        """Finish every queued request whose deadline already lapsed with
        the ``timeout`` error code (under _cond) — an expired request
        never costs a batch slot.  Free when no queued request carries a
        deadline (``_deadline_count`` keeps the scan off that path)."""
        if not self._deadline_count:
            return
        kept: deque[_Request] = deque()
        for request in self._pending:
            if request.deadline is not None and now >= request.deadline \
                    and not request.event.is_set():
                self._unaccount_pending(request)
                self.qos.record_expired(request.model)
                self._finish_error(request, "deadline expired in queue",
                                   code="timeout")
            else:
                kept.append(request)
        self._pending = kept

    def _share_cap(self, model: str) -> int | None:
        """Soft concurrency cap (in samples) for ``model`` under the
        elastic shares, or ``None`` when the model has no share.  Floored
        at one full batch so every route always makes progress."""
        share = self._route_shares.get(model)
        if share is None:
            return None
        alive = sum(1 for s in self._shards if not s.failed) or 1
        return max(self.max_batch, int(share * alive * self.max_batch))

    def _prefer_under_share(self, head: _Request) -> _Request:
        """Elastic-share scheduling: when the popped head's route is over
        its share of the pool and an under-share route has queued work
        (bounded scan), serve that route first.  Soft caps — with no
        under-share work queued, the over-share head still dispatches,
        so the pool stays work-conserving.  ``_route_outstanding`` is
        read without the bookkeeping lock: stale values only soften the
        preference, never lose a request."""
        if not self._route_shares or not self._pending:
            return head
        cap = self._share_cap(head.model)
        if cap is None or self._route_outstanding.get(head.model, 0) < cap:
            return head
        for index, request in enumerate(self._pending):
            if index >= 64:
                break
            other = self._share_cap(request.model)
            if other is None \
                    or self._route_outstanding.get(request.model, 0) < other:
                del self._pending[index]
                self._pending.appendleft(head)
                return request
        return head

    def _nearest_deadline_slack(self, now: float) -> float | None:
        """Smallest remaining deadline slack among the first queued
        requests (bounded scan, under _cond) — the batcher must not wait
        out a deadline it could have met."""
        if not self._deadline_count:
            return None
        slack = None
        for index, request in enumerate(self._pending):
            if index >= 32:
                break
            if request.deadline is None:
                continue
            remaining = request.deadline - now
            if slack is None or remaining < slack:
                slack = remaining
        return slack

    def _idle_shard(self) -> bool:
        """Whether some live shard has no outstanding work.  Read without
        the bookkeeping lock: a stale value costs at most one early or
        one timed dispatch, never a request."""
        return any(s.outstanding == 0 and not s.failed for s in self._shards)

    def _gather_batch(self) -> tuple[str | None, list[_Request]]:
        """Coalesce pending same-route requests per the adaptive policy;
        blocks until there is something to dispatch or the server stops.

        Work-conserving: while a live shard is idle, whatever is pending
        dispatches at once — a lone request never waits for a partner a
        free worker does not need.  Only while every live shard is busy
        does the policy's coalescing wait apply, capped by
        ``max_delay_ms``; a shard going idle ends that wait early (the
        collector wakes the dispatcher).

        Admission-control duties on the way: already-expired requests
        are culled before they cost a batch slot, the batching delay is
        clamped to the nearest queued deadline, and under elastic shares
        an over-share head yields to queued under-share work."""
        with self._cond:
            while True:
                while not self._pending and not self._stopping:
                    self._cond.wait(timeout=0.1)
                if self._stopping:
                    return None, []
                self._cull_expired(time.perf_counter())
                if self._pending:
                    break
            while not self._idle_shard():
                now = time.perf_counter()
                pending_samples = sum(r.n for r in self._pending)
                oldest_age = now - self._pending[0].enqueued
                budget = self._policy.wait_budget(
                    pending_samples, oldest_age,
                    deadline_slack_s=self._nearest_deadline_slack(now),
                )
                if budget <= 0.0:
                    break
                self._cond.wait(timeout=budget)
                if self._stopping:
                    return None, []
                self._cull_expired(time.perf_counter())
                if not self._pending:
                    return None, []
            head = self._prefer_under_share(self._pending.popleft())
            self._unaccount_pending(head)
            key = self._route_for(head)
            taken: list[_Request] = [head]
            total = head.n
            # Collect same-route requests until the batch is full or a
            # same-route request no longer fits (stopping there preserves
            # per-route FIFO order); other routes are set aside in one
            # O(scanned) pass and restored to the front in order.
            skipped: deque[_Request] = deque()
            while self._pending and total < self.max_batch:
                request = self._pending.popleft()
                if self._route_for(request) != key:
                    skipped.append(request)
                    continue
                if total + request.n > self.max_batch:
                    skipped.append(request)
                    break
                self._unaccount_pending(request)
                taken.append(request)
                total += request.n
            self._pending.extendleft(reversed(skipped))
            # Stage the taken requests (still under _cond) so a concurrent
            # drain cannot see them in neither _pending nor _in_flight
            # during the hand-off to _dispatch.
            for request in taken:
                self._staged[request.id] = request
            return key, taken

    def _dispatch(self, key: str, requests: list[_Request],
                  inline: bool = False) -> None:
        """Send staged ``requests`` (one route) to the least-loaded shard
        as one batch written into its ring.  Runs on the dispatcher thread
        or, with ``inline``, in :meth:`submit`; the bookkeeping moves the
        requests from _staged to _in_flight under the lock, and the
        task-pipe write happens after the lock is released.

        A full ring is backpressure.  The dispatcher thread waits for the
        collector to free a lease, however long that takes, while the
        backlog stays in ``_pending``: the queue bounds and shedding act
        on it at submit, and every wake (at least every
        :data:`_RING_TICK_S`) culls the queued requests whose deadline
        lapsed.  An inline dispatch never waits: it is on the caller's
        thread (the gateway's event loop), so it queues its request for
        the dispatcher instead."""
        n = sum(r.n for r in requests)
        info = self._model_info.get(key)
        # A batch is traced when any of its requests sampled tracing; the
        # parent-side stamps (gathered / write_started / sent) are only
        # taken then, so untraced dispatches pay one boolean check.
        traced = self.tracer.enabled and any(r.traced for r in requests)
        gathered = time.perf_counter() if traced else 0.0
        with self._lock:
            while True:
                shards = [s for s in self._shards if not s.failed]
                if not shards or info is None:
                    reason = ("all shards failed" if info is not None
                              else f"model route {key!r} is not loaded")
                    for request in requests:
                        self._finish_error(request, reason)
                    self._unstage(requests)
                    return
                shard = min(shards, key=lambda s: (s.outstanding, s.index))
                in_shape = (n, info["image_size"], info["image_size"],
                            info["channels"])
                out_shape = (n, info["num_classes"])
                in_bytes = shm_transport.align(4 * math.prod(in_shape))
                offset = shard.ring.allocate(
                    in_bytes + shm_transport.align(4 * math.prod(out_shape)))
                if offset is not None:
                    break
                if inline:
                    with self._cond:
                        for request in requests:
                            self._staged.pop(request.id, None)
                            self._account_pending(request)
                        self._pending.extendleft(reversed(requests))
                        self._cond.notify()
                    return
                if self._stopping:
                    for request in requests:
                        self._finish_error(request, "server closed")
                    self._unstage(requests)
                    return
                # Wait (releasing _lock) for the collector to free leases;
                # shard health may change meanwhile, so re-pick on wake.
                self._ring_cond.wait(timeout=_RING_TICK_S)
                with self._cond:
                    self._cull_expired(time.perf_counter())

            write_started = time.perf_counter() if traced else 0.0
            batch_id = next(self._batch_ids)
            # Assemble the batch *in place*: request blocks are written
            # straight into the ring lease; only a fixed record crosses
            # the pipe.
            assemble_images([r.images for r in requests],
                            shard.ring.view(offset, in_shape))
            lease = (offset, offset + in_bytes, out_shape)
            batch = _Batch(batch_id, shard.index, key, requests, n, lease)
            batch.traced = traced
            batch.gathered = gathered
            batch.write_started = write_started
            self._in_flight[batch.id] = batch
            self._unstage(requests)  # same lock hold: staged→in-flight
            self._track_outstanding(requests, +1)
            shard.outstanding += batch.n
            shard.stats.record_dispatch(batch.n)
            payload_bytes = 4 * (math.prod(in_shape) + math.prod(out_shape))
            self._transport_totals.record_batch(payload_bytes)
            self._route_stats_for(key).transport.record_batch(payload_bytes)
            # A broken pipe drops the record and leaves the batch in
            # _in_flight: the monitor re-dispatches it on restart.
            self._post(shard, shm_transport.batch_record(
                batch_id, offset, offset + in_bytes, n, shard.generation,
                traced, key))
            if traced:
                batch.sent = time.perf_counter()
        self._flush(shard)

    def _unstage(self, requests: list[_Request]) -> None:
        """Drop ``requests`` from _staged (under _lock; takes _cond, the
        lock order :meth:`_requeue` already uses)."""
        with self._cond:
            for request in requests:
                self._staged.pop(request.id, None)

    # -- collector -----------------------------------------------------
    def _collector_loop(self) -> None:
        """Read every shard's result pipe through one persistent selector,
        rebuilt only when the set of live result pipes changes
        (``_conn_epoch``)."""
        selector, epoch = None, None
        try:
            while not self._stopping:
                if epoch != self._conn_epoch:
                    if selector is not None:
                        selector.close()
                    selector = _PipeSelector()
                    with self._lock:
                        epoch = self._conn_epoch
                        for shard in self._shards:
                            conn = shard.result_conn
                            if conn is None or shard.conn_dead:
                                continue
                            try:
                                selector.register(conn.fileno(),
                                                  selectors.EVENT_READ,
                                                  (conn, shard))
                            except (OSError, ValueError):
                                pass  # closed by a concurrent close()
                if not selector.get_map():
                    time.sleep(0.02)
                    continue
                try:
                    ready = selector.select(timeout=0.1)
                except OSError:
                    epoch = None  # a conn got closed under us; rebuild
                    continue
                for key, _events in ready:
                    conn, shard = key.data
                    try:
                        data = conn.recv_bytes()
                    except (EOFError, OSError, ValueError):
                        with self._lock:
                            self._mark_dead(shard, conn)
                        continue
                    self._handle_result(shard, conn, data)
        finally:
            if selector is not None:
                selector.close()

    def _mark_dead(self, shard: _Shard, conn) -> None:
        """Flag ``shard`` for the monitor to restart (under the bookkeeping
        lock) — only while ``conn`` is still its live result pipe: a stale
        one from before a restart must not condemn the replacement."""
        if conn is shard.result_conn and not shard.conn_dead:
            shard.conn_dead = True
            self._conn_epoch += 1

    def _handle_result(self, shard: _Shard, conn, data: bytes) -> None:
        if data[:1] == shm_transport.DONE_TAG:
            message = ("done", shm_transport.read_done_record(data), None)
        else:
            message = pickle.loads(data)
        kind = message[0]
        if kind in ("loaded", "load_failed"):
            _, _worker, key = message[:3]
            with self._lock:
                if kind == "load_failed":
                    shard.load_failures[key] = message[3]
                event = shard.load_acks.get(key)
                if event is not None:
                    event.set()
                if all(
                    shard.load_acks[k].is_set()
                    for k in shard.expected if k in shard.load_acks
                ):
                    shard.ready.set()
            return
        if kind == "done":
            _, batch_id, timing = message
            with self._lock:
                batch = self._in_flight.pop(batch_id, None)
                if batch is None:
                    return  # duplicate after a crash re-dispatch
                current = self._shards[batch.shard]
                current.outstanding = max(0, current.outstanding - batch.n)
                self._track_outstanding(batch.requests, -1)
                self._wake_if_idle(current)
                now = time.perf_counter()
                current.stats.record_complete(
                    batch.n, (now - batch.dispatched) * 1e3
                )
                # Gather the logits block from the ring; the lease is freed
                # right after the per-request slices are copied out, so the
                # block becomes reusable immediately.
                _offset, out_offset, out_shape = batch.lease
                logits = np.array(current.ring.view(out_offset, out_shape),
                                  copy=True)
                collected = time.perf_counter() if batch.traced else now
                self._free_lease(batch)
                route = self._route_stats_for(batch.key)
                offset = 0
                for request in batch.requests:
                    block = logits[offset : offset + request.n]
                    offset += request.n
                    if request.event.is_set():
                        # Cancelled while in flight: the slice is computed
                        # but the client is gone — drop it without touching
                        # the completed/failed accounting a second time.
                        continue
                    request.result = block
                    self._completed += 1
                    latency_ms = (now - request.enqueued) * 1e3
                    self._request_latency.add(latency_ms)
                    route.record_complete(latency_ms)
                    if request.traced:
                        self._record_trace(request, batch, timing, collected)
                    request.event.set()
                    self._notify_done(request)
                self._on_batch_done(batch)
            return
        if kind == "error":
            _, batch_id, text = message
            with self._lock:
                batch = self._in_flight.get(batch_id)
                if batch is None:
                    return
                current = self._shards[batch.shard]
                current.stats.record_error()
                if text.startswith("ShmTransportError") \
                        and not self._stopping:
                    # Parent and worker disagree on the shard's generation:
                    # a fault of the shard, not of the batch.  The batch
                    # stays in flight; the restart re-mints every lease
                    # under the replacement's generation.
                    self._mark_dead(current, conn)
                    return
                del self._in_flight[batch_id]
                current.outstanding = max(0, current.outstanding - batch.n)
                self._track_outstanding(batch.requests, -1)
                self._wake_if_idle(current)
                self._free_lease(batch)
                if self._on_batch_error(batch, text):
                    return  # handled (e.g. canary retry on the incumbent)
                route = self._route_stats_for(batch.key)
                for request in batch.requests:
                    route.record_failure()
                    self._finish_error(request, text)

    def _wake_if_idle(self, shard: _Shard) -> None:
        """End the dispatcher's coalescing wait when ``shard`` has just
        gone idle with requests still queued (called under the
        bookkeeping lock; the lock order _lock → _cond is the one
        :meth:`_requeue` already takes)."""
        if shard.outstanding == 0 and self._pending:
            with self._cond:
                self._cond.notify()

    def _on_batch_done(self, batch: _Batch) -> None:
        """Hook, called under the bookkeeping lock after a batch completes;
        :class:`repro.fleet.FleetServer` drives canary decisions here."""

    def _on_batch_error(self, batch: _Batch, text: str) -> bool:
        """Hook, called under the bookkeeping lock when a batch errors.
        Return True if the batch was handled (requests re-queued) — the
        fleet canary path retries on the incumbent; the base server fails
        the requests."""
        return False

    def _track_outstanding(self, requests: list[_Request], sign: int) -> None:
        """Maintain dispatched-but-unfinished samples per model id; called
        under the bookkeeping lock at dispatch (+1) and batch completion /
        failure / strand (−1)."""
        for request in requests:
            value = self._route_outstanding.get(request.model, 0) \
                + sign * request.n
            if value > 0:
                self._route_outstanding[request.model] = value
            else:
                self._route_outstanding.pop(request.model, None)

    def _requeue(self, requests: list[_Request], forced_key: str | None) -> None:
        """Put requests back at the head of the pending queue (canary
        retry / swap-drain path); called with the bookkeeping lock held."""
        with self._cond:
            for request in reversed(requests):
                request.routed_key = None
                request.forced_key = forced_key
                self._pending.appendleft(request)
                self._account_pending(request)
            self._cond.notify()

    def _finish_error(self, request: _Request, message: str,
                      code: str | None = None) -> None:
        """Finish ``request`` with ``message``; idempotent — a request that
        already finished (e.g. cancelled on client timeout while its batch
        was in flight, then the batch errors) is counted exactly once.
        ``code`` is the wire error code the failure maps to (``"timeout"``
        turns into :class:`DeadlineExpired` at :meth:`result`)."""
        if request.event.is_set():
            return
        request.error = message
        request.error_code = code
        self._failed += 1
        request.event.set()
        self._notify_done(request)

    def _notify_done(self, request: _Request) -> None:
        """Fire the request's completion callback (if any) exactly once;
        called right after ``request.event`` is set, with the bookkeeping
        lock held — the callback must only hand off, never block."""
        callback, request.on_done = request.on_done, None
        if callback is not None:
            try:
                callback(request.id)
            except Exception:
                pass  # a broken callback must never poison the collector

    # -- health monitor ------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stopping:
            time.sleep(self.health_interval_s)
            if self._stopping:
                return
            for shard in self._shards:
                process = shard.process
                crashed = (process is not None and not process.is_alive()) \
                    or shard.conn_dead
                if crashed and not shard.failed and not self._stopping:
                    self._restart_shard(shard)

    def _restart_shard(self, shard: _Shard) -> None:
        """Replace a crashed worker and re-dispatch its unfinished batches.

        The snapshots and batches for the replacement are posted under
        the bookkeeping lock and written after it is released."""
        try:
            self._replace_worker(shard)
        finally:
            self._flush(shard)

    def _replace_worker(self, shard: _Shard) -> None:
        with self._lock:
            if self._stopping or shard.failed:
                return
            shard.stats.record_restart()
            self._journal_event("shard_restart", shard=shard.index,
                                restarts=shard.stats.restarts)
            if shard.stats.restarts > self.restart_limit:
                shard.failed = True
                self._journal_event("shard_failed", shard=shard.index,
                                    restart_limit=self.restart_limit)
                stranded = [b for b in self._in_flight.values()
                            if b.shard == shard.index]
                for batch in stranded:
                    self._in_flight.pop(batch.id, None)
                    self._free_lease(batch)  # reclaim, don't leak the ring
                    self._track_outstanding(batch.requests, -1)
                    for request in batch.requests:
                        self._finish_error(
                            request,
                            f"shard {shard.index} exceeded restart limit "
                            f"({self.restart_limit})",
                        )
                return
            if shard.process is not None and shard.process.is_alive():
                shard.process.terminate()
            if shard.process is not None:
                shard.process.join(timeout=1.0)
            self._teardown_shard(shard)  # ring kept: re-dispatch data lives there
            self._spawn_worker(shard)
            # Everything this shard had not finished goes back on its pipe,
            # behind the fresh load messages — order guarantees the restored
            # sessions exist before the first re-dispatched batch runs.  A
            # batch's lease survived the crash (the parent owns the ring),
            # so only its record is re-minted, stamped with the
            # replacement worker's generation.
            redispatched = [b for b in self._in_flight.values()
                            if b.shard == shard.index]
            # A batch whose every request already expired (or was
            # cancelled) while the worker was down is not worth the
            # replacement's compute: free its ring lease and finish the
            # requests with the timeout code instead of re-dispatching.
            now = time.perf_counter()
            survivors = []
            for batch in redispatched:
                dead = all(
                    request.event.is_set()
                    or (request.deadline is not None
                        and now >= request.deadline)
                    for request in batch.requests
                )
                if not dead:
                    survivors.append(batch)
                    continue
                self._in_flight.pop(batch.id, None)
                self._free_lease(batch)
                self._track_outstanding(batch.requests, -1)
                for request in batch.requests:
                    if not request.event.is_set():
                        self.qos.record_expired(request.model)
                    self._finish_error(
                        request, "deadline expired during shard restart",
                        code="timeout",
                    )
            redispatched = survivors
            shard.outstanding = sum(b.n for b in redispatched)
            for batch in redispatched:
                batch.dispatched = time.perf_counter()
                if batch.traced:
                    batch.write_started = batch.dispatched
                offset, out_offset, _out_shape = batch.lease
                self._post(shard, shm_transport.batch_record(
                    batch.id, offset, out_offset, batch.n, shard.generation,
                    batch.traced, batch.key))
                if batch.traced:
                    batch.sent = time.perf_counter()

    # -- observability -------------------------------------------------
    def _record_trace(self, request: _Request, batch: _Batch, timing,
                      collected: float) -> None:
        """Assemble a traced request's span chain and record it; called
        under the bookkeeping lock from the collector's done path."""
        worker = timing[:3] if timing is not None else None
        phases = timing[3] if timing is not None else None
        spans = spans_from_stamps(
            request.enqueued, batch.gathered, batch.write_started,
            batch.sent, collected, collected, worker=worker,
        )
        trace = RequestTrace(request.id, request.model, request.n,
                             self.transport, batch.shard, spans,
                             compute_phases=phases)
        # ``complete`` ends once the trace is assembled: the request waits
        # for that too.  The dict form is built by the reader.
        trace.spans[-1].end = time.perf_counter()
        self.tracer.record(trace)
        request.breakdown = trace

    def traces(self, limit: int | None = None) -> list[RequestTrace]:
        """Buffered request traces, oldest → newest."""
        with self._lock:
            return self.tracer.traces(limit)

    def export_traces_json(self, limit: int | None = None) -> str:
        with self._lock:
            return self.tracer.export_json(limit)

    def metrics_snapshot(self) -> dict:
        """The unified metrics registry's JSON snapshot (direct series
        plus everything the serving collectors emit)."""
        return self.metrics.snapshot()

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the metrics registry."""
        return self.metrics.to_prometheus()

    def _collect_metrics(self) -> list[dict]:
        """Metrics collector: project the live serving state into labeled
        series at snapshot/scrape time.  Registered on ``self.metrics``
        at construction; uses the collector model (not direct series)
        because per-route stats objects are replaced at runtime (fresh
        canary windows) and derived values (queue depth) have no
        mutation site to hook."""
        series: list[dict] = []

        def emit(name, kind, value, **labels):
            series.append({"name": name, "labels": labels, "kind": kind,
                           "value": value})

        def emit_hist(name, reservoir, **labels):
            series.append({"name": name, "labels": labels,
                           "kind": "histogram",
                           "summary": Histogram.summary(reservoir)})

        with self._lock:
            emit("serve_queue_depth", "gauge", len(self._pending))
            emit("serve_in_flight_batches", "gauge", len(self._in_flight))
            emit("serve_requests_total", "counter", self._submitted,
                 status="submitted")
            emit("serve_requests_total", "counter", self._completed,
                 status="completed")
            emit("serve_requests_total", "counter", self._failed,
                 status="failed")
            emit("serve_requests_total", "counter", self._rejected,
                 status="rejected")
            emit_hist("serve_request_latency_ms", self._request_latency)
            for model, cell in self.qos.all_counters().items():
                for outcome, value in cell.items():
                    emit("serve_admission_total", "counter", value,
                         route=model, outcome=outcome)
            for model, share in self._route_shares.items():
                emit("serve_route_share", "gauge", round(share, 4),
                     route=model)
            for model, depth in self._pending_by_model.items():
                emit("serve_route_queue_depth", "gauge", depth, route=model)
            transport = self._transport_totals
            emit("serve_transport_batches_total", "counter",
                 transport.shm_batches, transport="shm")
            emit("serve_transport_bytes_total", "counter",
                 transport.shm_bytes, transport="shm")
            for key, route in self._route_stats.items():
                emit("serve_route_requests_total", "counter",
                     route.completed, route=key, outcome="completed")
                emit("serve_route_requests_total", "counter",
                     route.failed, route=key, outcome="failed")
                emit("serve_route_requests_total", "counter",
                     route.retried, route=key, outcome="retried")
                emit_hist("serve_route_latency_ms", route.latency_ms,
                          route=key)
            for key, snapshot_transport in self._transports.items():
                emit("serve_snapshot_ships_total", "counter",
                     snapshot_transport.shipped, route=key)
                emit("serve_snapshot_bytes", "gauge",
                     snapshot_transport.bytes, route=key)
            for shard in self._shards:
                label = str(shard.index)
                emit("serve_shard_outstanding_samples", "gauge",
                     shard.outstanding, shard=label)
                emit("serve_shard_batches_total", "counter",
                     shard.stats.batches, shard=label)
                emit("serve_shard_errors_total", "counter",
                     shard.stats.errors, shard=label)
                emit("serve_shard_restarts_total", "counter",
                     shard.stats.restarts, shard=label)
                emit_hist("serve_shard_service_ms", shard.stats.service_ms,
                          shard=label)
                if shard.ring is not None:  # None once closed
                    ring = shard.ring.stats()
                    emit("serve_ring_used_bytes", "gauge",
                         ring["used_bytes"], shard=label)
                    emit("serve_ring_peak_used_bytes", "gauge",
                         ring["peak_used_bytes"], shard=label)
                    emit("serve_ring_wraps_total", "counter",
                         ring["wraps"], shard=label)
                    emit("serve_ring_alloc_failures_total", "counter",
                         ring["alloc_failures"], shard=label)
            policy = self._policy.summary()
            if policy["ema_interarrival_ms"] is not None:
                emit("serve_batcher_ema_interarrival_ms", "gauge",
                     policy["ema_interarrival_ms"])
            series.extend(self.tracer.collect(prefix="serve_traces"))
        return series

    def _snapshot_summary(self) -> dict:
        """Transport accounting: the single-model server reports its one
        snapshot flat (back-compat); multi-tenant servers report per key
        plus cumulative totals for retired (unloaded) versions."""
        if len(self._transports) == 1 and not self._retired_routes:
            return next(iter(self._transports.values())).summary()
        per_key = {key: t.summary() for key, t in self._transports.items()}
        return {
            "models": per_key,
            "retired_routes": self._retired_routes,
            "bytes_shipped": self._retired_bytes_shipped
            + sum(s["bytes_shipped"] for s in per_key.values()),
        }

    def stats(self) -> dict:
        """Point-in-time serving statistics (JSON-serializable)."""
        with self._lock:
            shards = [
                {
                    "worker": shard.index,
                    "alive": bool(shard.process is not None
                                  and shard.process.is_alive()),
                    "failed": shard.failed,
                    "generation": shard.generation,
                    "outstanding_samples": shard.outstanding,
                    **shard.stats.summary(),
                }
                for shard in self._shards
            ]
            return {
                "workers": self.workers,
                "max_batch": self.max_batch,
                "max_delay_ms": self.max_delay_ms,
                "start_method": self.start_method,
                "queue_depth": len(self._pending),
                "in_flight_batches": len(self._in_flight),
                "requests": {
                    "submitted": self._submitted,
                    "completed": self._completed,
                    "failed": self._failed,
                },
                "request_latency_ms": self._request_latency.summary(),
                "snapshot": self._snapshot_summary(),
                # Per-route engine facts (snapshot_info): geometry plus —
                # for quantized routes — scheme/mode/bits.
                "models": {key: dict(info)
                           for key, info in self._model_info.items()},
                "transport": {
                    "mode": self.transport,
                    **self._transport_totals.summary(),
                    # Read by perfbench; nothing is pickled or spilled.
                    "pickle_batches": 0,
                    "spills": 0,
                    "rings": [
                        shard.ring.stats() if shard.ring is not None else None
                        for shard in self._shards
                    ],
                },
                "routes": dict(self._routes),
                "route_stats": {
                    key: stats.summary()
                    for key, stats in self._route_stats.items()
                },
                "shards": shards,
                "batcher": self._policy.summary(),
                "tracing": self.tracer.summary(),
                "monitor": (self.monitor.status()
                            if self.monitor is not None else None),
                "gateway": (self._gateway.summary()
                            if self._gateway is not None else None),
                "admission": {
                    **self.qos.summary(),
                    "max_queue": self.max_queue,
                    "rejected": self._rejected,
                    "route_queue_depth": dict(self._pending_by_model),
                    "route_outstanding": dict(self._route_outstanding),
                    "route_shares": {model: round(share, 4)
                                     for model, share
                                     in self._route_shares.items()},
                    "autoscaler": (self.autoscaler.summary()
                                   if self.autoscaler is not None else None),
                },
            }

    def __repr__(self) -> str:
        state = "running" if self._started and not self._stopping else "idle"
        return (
            f"{type(self).__name__}(workers={self.workers}, "
            f"max_batch={self.max_batch}, max_delay_ms={self.max_delay_ms}, "
            f"{state})"
        )
