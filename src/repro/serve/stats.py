"""Serving-side observability: latency reservoirs and per-shard counters.

Since the ``repro.obs`` PR these classes are thin domain wrappers over
the unified primitives in :mod:`repro.obs.metrics` — ``LatencyReservoir``
*is* an :class:`repro.obs.metrics.Histogram` with millisecond-suffixed
summary keys, and the counter bundles (:class:`TransportStats`,
:class:`RingCounters`, :class:`RouteStats`, :class:`ShardStats`,
:class:`SnapshotTransport`) store their tallies in
:class:`repro.obs.metrics.Counter` cells while keeping their historical
attribute and ``summary()`` wire shapes (``BENCH_serving.json`` embeds
them).

All recording methods are called under the server's bookkeeping lock, so
the classes themselves stay lock-free; ``summary()`` methods return plain
dicts ready for JSON serialization.
"""

from __future__ import annotations

from repro.obs.metrics import Counter, Histogram


class LatencyReservoir(Histogram):
    """Sliding reservoir of recent latency samples with percentile summary.

    Semantics (explicit since the obs PR): ``count`` in the summary is
    the **lifetime** number of recorded samples, while the percentiles
    and mean describe only the most recent ``window`` samples (bounded
    by ``maxlen``, default 2048).  Both are reported so a reader can
    tell "p95 over the last 2048 of 1M requests" from "p95 over all 12
    requests ever".
    """

    def __init__(self, maxlen: int = 2048):
        super().__init__(window_size=maxlen)

    def add(self, latency_ms: float) -> None:
        self.observe(latency_ms)

    def summary(self) -> dict:
        base = super().summary()
        return {
            "count": base["count"],
            "sum_ms": base["sum"],
            "window": base["window"],
            "p50_ms": base["p50"],
            "p95_ms": base["p95"],
            "p99_ms": base["p99"],
            "mean_ms": base["mean"],
        }


class SnapshotTransport:
    """Accounting for session snapshots shipped to worker processes.

    Every worker seed — at startup and after each crash restart — ships
    one snapshot over that worker's task queue.  The pickled byte size is
    measured once at server construction, so ``summary()`` reports the
    exact transport cost of the chosen snapshot precision (int8 snapshots
    from :class:`repro.quant.QuantizedSession` run ~4x below float32).
    Under the ``fork`` start method the initial seed is zero-copy; the
    recorded bytes are the pickled wire size a ``spawn`` context (or any
    restart) pays.
    """

    def __init__(self, snapshot_format: str | None, snapshot_bytes: int):
        self.format = snapshot_format
        self.bytes = int(snapshot_bytes)
        self._shipped = Counter()

    @property
    def shipped(self) -> int:
        return int(self._shipped.value)

    def record_ship(self) -> None:
        self._shipped.inc()

    def summary(self) -> dict:
        return {
            "format": self.format,
            "bytes": self.bytes,
            "shipped": self.shipped,
            "bytes_shipped": self.bytes * self.shipped,
        }


class TransportStats:
    """Per-scope accounting of the batch payloads the shared-memory rings
    carried across the worker boundary.

    One instance per route key (embedded in :class:`RouteStats`) plus one
    server-wide rollup.  ``shm_bytes`` counts the raw float32 payload
    (images plus logits) that crossed without a pickle pass.
    """

    def __init__(self):
        self._batches = Counter()
        self._bytes = Counter()

    @property
    def shm_batches(self) -> int:
        return int(self._batches.value)

    @property
    def shm_bytes(self) -> int:
        return int(self._bytes.value)

    def record_batch(self, payload_bytes: int) -> None:
        self._batches.inc()
        self._bytes.inc(int(payload_bytes))

    def summary(self) -> dict:
        return {"shm_batches": self.shm_batches, "shm_bytes": self.shm_bytes}


class RingCounters:
    """Occupancy counters of one shared-memory ring segment.

    Recorded by :class:`repro.serve.shm.RingAllocator` under the server's
    bookkeeping lock; ``peak_used_bytes`` is the high-water mark the ring
    actually needed — the number to size ``ring_bytes`` from.
    """

    def __init__(self):
        self._allocations = Counter()
        self._frees = Counter()
        self._wraps = Counter()
        self._alloc_failures = Counter()
        self.peak_used_bytes = 0

    @property
    def allocations(self) -> int:
        return int(self._allocations.value)

    @property
    def frees(self) -> int:
        return int(self._frees.value)

    @property
    def wraps(self) -> int:
        return int(self._wraps.value)

    @property
    def alloc_failures(self) -> int:
        return int(self._alloc_failures.value)

    def record_alloc(self, used_bytes: int) -> None:
        self._allocations.inc()
        if used_bytes > self.peak_used_bytes:
            self.peak_used_bytes = int(used_bytes)

    def record_free(self) -> None:
        self._frees.inc()

    def record_wrap(self) -> None:
        self._wraps.inc()

    def record_alloc_failure(self) -> None:
        self._alloc_failures.inc()

    def summary(self) -> dict:
        return {
            "allocations": self.allocations,
            "frees": self.frees,
            "wraps": self.wraps,
            "alloc_failures": self.alloc_failures,
            "peak_used_bytes": self.peak_used_bytes,
        }


class RouteStats:
    """Counters for one routed model version (a serving route key).

    Every dispatched batch carries a route key (``model_id@version`` in a
    :class:`repro.fleet.FleetServer`, the default key in a single-model
    :class:`repro.serve.LocalizationServer`); completions, failures and
    canary retries are tallied per key so ``stats()`` can report exactly
    where traffic went — the read-out the canary comparison runs on.
    ``transport`` counts the route's batches and payload bytes.
    """

    def __init__(self):
        self._completed = Counter()
        self._failed = Counter()
        self._retried = Counter()
        self.latency_ms = LatencyReservoir(maxlen=1024)
        self.transport = TransportStats()

    @property
    def completed(self) -> int:
        return int(self._completed.value)

    @property
    def failed(self) -> int:
        return int(self._failed.value)

    @property
    def retried(self) -> int:
        return int(self._retried.value)

    def record_complete(self, latency_ms: float) -> None:
        self._completed.inc()
        self.latency_ms.add(latency_ms)

    def record_failure(self) -> None:
        self._failed.inc()

    def record_retry(self) -> None:
        self._retried.inc()

    def error_rate(self) -> float:
        """Failures + retries over all finished requests for this route.

        A canary-retried request never fails at the client API, but it
        *is* evidence against the canary version — both count."""
        total = self.completed + self.failed + self.retried
        return (self.failed + self.retried) / total if total else 0.0

    def summary(self) -> dict:
        return {
            "completed": self.completed,
            "failed": self.failed,
            "retried": self.retried,
            "error_rate": self.error_rate(),
            "latency_ms": self.latency_ms.summary(),
            "transport": self.transport.summary(),
        }


class ShardStats:
    """Counters for one worker shard: batches, samples, restarts, timing.

    ``batch_size_hist`` maps dispatched batch size (samples) → count, the
    direct read-out of how well the micro-batcher is coalescing.
    ``service_ms`` measures dispatch → completion (queue wait + compute).
    """

    def __init__(self):
        self._batches = Counter()
        self._samples = Counter()
        self._errors = Counter()
        self._restarts = Counter()
        self.batch_size_hist: dict[int, int] = {}
        self.service_ms = LatencyReservoir(maxlen=512)

    @property
    def batches(self) -> int:
        return int(self._batches.value)

    @property
    def samples(self) -> int:
        return int(self._samples.value)

    @property
    def errors(self) -> int:
        return int(self._errors.value)

    @property
    def restarts(self) -> int:
        return int(self._restarts.value)

    def record_dispatch(self, batch_size: int) -> None:
        self._batches.inc()
        self.batch_size_hist[batch_size] = self.batch_size_hist.get(batch_size, 0) + 1

    def record_complete(self, batch_size: int, service_ms: float) -> None:
        self._samples.inc(batch_size)
        self.service_ms.add(service_ms)

    def record_error(self) -> None:
        self._errors.inc()

    def record_restart(self) -> None:
        self._restarts.inc()

    def mean_batch_size(self) -> float | None:
        if not self.batches:
            return None
        total = sum(size * count for size, count in self.batch_size_hist.items())
        return total / self.batches

    def summary(self) -> dict:
        return {
            "batches": self.batches,
            "samples": self.samples,
            "errors": self.errors,
            "restarts": self.restarts,
            "mean_batch_size": self.mean_batch_size(),
            "batch_size_hist": {str(k): v for k, v in
                                sorted(self.batch_size_hist.items())},
            "service_ms": self.service_ms.summary(),
        }
