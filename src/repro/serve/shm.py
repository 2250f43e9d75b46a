"""Zero-copy shared-memory ring transport for serving batch payloads.

The pickle transport ships every micro-batch across the worker boundary
twice — ``("batch", id, key, images)`` pickles the float32 image block
onto the shard's task pipe, and the prediction block pickles back over
the result pipe.  ``BENCH_serving.json`` shows that marshalling as the
dominant single-core dispatch overhead.  This module removes it:

* the dispatcher writes each batch's image block straight into a
  per-shard :class:`ShmRing` (one ``multiprocessing.shared_memory``
  segment per worker) and sends only a fixed ``struct`` record
  (:func:`batch_record`: batch id, input/output offsets, sample count,
  generation, traced flag, route key) over the task pipe — no pickle;
* the worker gathers the batch by offset — the only "copy" is the final
  ``np.ndarray`` view over the ring buffer — writes its logits into the
  reserved output block, and answers with a 9-byte :func:`done_record`
  (a traced batch answers with a pickled ``done`` that carries its
  worker-side timing instead);
* the parent copies the per-request logit slices out of the ring and
  frees the lease, making the block reusable.

Ring discipline
---------------
:class:`RingAllocator` hands out contiguous byte ranges in FIFO order
(allocate at the head, reclaim from the tail).  A batch that does not
fit the remaining tail *wraps*: the tail gap is recorded as a pre-freed
entry and the allocation restarts at offset 0.  Out-of-order frees (a
re-dispatched batch finishing late) are deferred — the range is marked
freed and reclaimed once everything older is freed too.  When no
contiguous range fits, ``allocate`` returns ``None`` and the dispatcher
applies backpressure: it waits for completions to free space and, past a
bounded wait, *spills* the batch to the pickle transport — a full ring
degrades throughput, never correctness.

Crash safety
------------
The parent owns every segment: a worker crash cannot unlink a ring, and
the batch data a crashed worker was holding is still in place, so the
restart path re-dispatches the *same* lease under the worker's new
``generation``.  Batch records are generation-stamped; a worker rejects a
record minted for a different generation with
:class:`ShmTransportError`, and the parent falls back to re-dispatching
that batch over pickle — requests are never lost to transport trouble.

Platforms without ``multiprocessing.shared_memory`` (or without a
functional ``/dev/shm``) are detected at import: :data:`HAVE_SHM` is
False and :class:`repro.serve.LocalizationServer` silently serves over
the pickle transport instead.
"""

from __future__ import annotations

import os
import secrets
import struct
from collections import deque

import numpy as np

from repro.serve.stats import RingCounters

try:  # pragma: no cover - platform probe
    from multiprocessing import shared_memory as _shared_memory

    HAVE_SHM = True
except ImportError:  # pragma: no cover - platform without _posixshmem
    _shared_memory = None
    HAVE_SHM = False

#: Byte alignment of every ring allocation (keeps float32 views aligned
#: and offsets cache-line friendly).
ALIGNMENT = 64

#: Floor on an auto-sized ring segment (2 MiB ≈ 9 default-geometry
#: batches) so even an empty multi-tenant server starts with usable rings.
MIN_RING_BYTES = 2 << 20


class ShmTransportError(RuntimeError):
    """A shared-memory batch record could not be honored by the worker.

    The parent recognizes this error *by name prefix* in the worker's
    error message and re-dispatches the affected batch over the pickle
    transport instead of failing its requests.
    """


def align(nbytes: int) -> int:
    """Round ``nbytes`` up to the ring allocation granularity."""
    return (int(nbytes) + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


class RingAllocator:
    """FIFO ring allocator over ``capacity`` bytes (no memory attached).

    Pure bookkeeping — the caller maps offsets onto a buffer and
    synchronizes access (the server does both under its bookkeeping
    lock), which keeps this class unit-testable without shared memory.
    """

    def __init__(self, capacity: int, counters: RingCounters | None = None):
        if capacity <= 0:
            raise ValueError(f"ring capacity must be > 0, got {capacity}")
        self.capacity = int(capacity)
        self.used = 0  # live bytes, wrap gaps included
        self.head = 0  # next allocation offset
        # Allocation-ordered entries [offset, size, freed]; wrap gaps are
        # inserted pre-freed so tail reclaim walks over them naturally.
        self._order: deque[list] = deque()
        self._by_offset: dict[int, list] = {}
        # Callers may pass shared RingCounters (e.g. a metrics registry's
        # view of several rings); by default each ring counts alone.
        self.counters = counters if counters is not None else RingCounters()

    @property
    def live_leases(self) -> int:
        return sum(1 for entry in self._order if not entry[2])

    def allocate(self, nbytes: int) -> int | None:
        """A contiguous ``nbytes`` range's offset, or None when full."""
        nbytes = align(nbytes)
        if nbytes <= 0 or nbytes > self.capacity:
            self.counters.record_alloc_failure()
            return None
        self._reclaim()
        if self.used + nbytes > self.capacity:
            self.counters.record_alloc_failure()
            return None
        if not self._order:  # empty ring: restart at 0
            return self._push(0, nbytes)
        tail = self._order[0][0]
        if self.head >= tail:
            # Live region is [tail, head); free space is the tail gap
            # [head, capacity) plus [0, tail).
            if self.head + nbytes <= self.capacity:
                return self._push(self.head, nbytes)
            if nbytes <= tail:
                gap = self.capacity - self.head
                if gap:  # waste the tail remainder, reclaimed with the tail
                    entry = [self.head, gap, True]
                    self._order.append(entry)
                    self._by_offset[self.head] = entry
                    self.used += gap
                self.counters.record_wrap()
                return self._push(0, nbytes)
        elif self.head + nbytes <= tail:  # free space is [head, tail)
            return self._push(self.head, nbytes)
        self.counters.record_alloc_failure()
        return None

    def _push(self, offset: int, nbytes: int) -> int:
        entry = [offset, nbytes, False]
        self._order.append(entry)
        self._by_offset[offset] = entry
        self.head = offset + nbytes
        self.used += nbytes
        self.counters.record_alloc(self.used)
        return offset

    def free(self, offset: int) -> bool:
        """Release the lease at ``offset``; True if it was live."""
        entry = self._by_offset.get(offset)
        if entry is None or entry[2]:
            return False
        entry[2] = True
        self.counters.record_free()
        self._reclaim()
        return True

    def _reclaim(self) -> None:
        while self._order and self._order[0][2]:
            offset, nbytes, _freed = self._order.popleft()
            self._by_offset.pop(offset, None)
            self.used -= nbytes
        if not self._order:
            self.head = 0

    def stats(self) -> dict:
        return {
            "capacity_bytes": self.capacity,
            "used_bytes": self.used,
            "live_leases": self.live_leases,
            **self.counters.summary(),
        }


class ShmRing:
    """Parent-side owner of one shared-memory ring segment.

    Creates (and eventually unlinks) the segment; hands out leases via
    an embedded :class:`RingAllocator` and materializes ``np.ndarray``
    views at lease offsets.  One instance per worker shard; the segment
    survives worker restarts — only :meth:`close` unlinks it.
    """

    def __init__(self, capacity: int, name: str | None = None,
                 counters: RingCounters | None = None):
        if not HAVE_SHM:
            raise ShmTransportError(
                "multiprocessing.shared_memory is unavailable on this platform"
            )
        capacity = align(capacity)
        if name is None:
            name = f"repro-ring-{os.getpid()}-{secrets.token_hex(4)}"
        self._shm = _shared_memory.SharedMemory(
            create=True, name=name, size=capacity
        )
        self.name = self._shm.name
        # The OS may round the segment up (page granularity): use it all.
        self.allocator = RingAllocator(max(capacity, self._shm.size),
                                       counters=counters)
        self._closed = False

    @property
    def capacity(self) -> int:
        return self.allocator.capacity

    def allocate(self, nbytes: int) -> int | None:
        return self.allocator.allocate(nbytes)

    def free(self, offset: int) -> bool:
        return self.allocator.free(offset)

    def view(self, offset: int, shape, dtype=np.float32) -> np.ndarray:
        """A zero-copy ndarray over ``shape`` at ``offset``."""
        return np.ndarray(shape, dtype=dtype, buffer=self._shm.buf,
                          offset=offset)

    def stats(self) -> dict:
        return {"name": self.name, **self.allocator.stats()}

    def close(self, unlink: bool = True) -> None:
        """Release the mapping and (once) unlink the segment; idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:  # a stray view still pinned the mmap
            pass
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


class ShmWorkerRing:
    """Worker-side attach to a parent-owned ring segment.

    A ``multiprocessing`` child worker — ``fork`` *and* ``spawn`` alike —
    shares the parent's resource tracker (spawn hands the tracker fd down
    in its preparation data), so the attach-register here is an
    idempotent no-op and must be left alone: un-registering would erase
    the *parent's* registration and the tracker would splutter when the
    parent unlinks.  ``untrack=True`` is for attaching from an unrelated
    process with its own tracker, which would otherwise unlink the
    owner's live segment when it exits (bpo-38119).
    """

    def __init__(self, name: str, untrack: bool = False):
        if not HAVE_SHM:
            raise ShmTransportError(
                "multiprocessing.shared_memory is unavailable on this platform"
            )
        self._shm = _shared_memory.SharedMemory(name=name)
        if untrack:
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(self._shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals moved
                pass

    def view(self, offset: int, shape, dtype=np.float32) -> np.ndarray:
        return np.ndarray(shape, dtype=dtype, buffer=self._shm.buf,
                          offset=offset)

    def close(self) -> None:
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover
            pass


# -- records (what actually crosses the pipes) ---------------------------
#: First byte of a shm batch record (parent -> worker task pipe).
BATCH_TAG = b"B"
#: First byte of an untraced shm ``done`` record (worker -> result pipe).
DONE_TAG = b"D"
# A pickled message starts with the PROTO opcode (0x80), so the first byte
# alone tells a record from a pickle on either pipe.
#: tag, batch id, input offset, output offset, samples, generation,
#: traced; the route key follows as UTF-8.
_BATCH = struct.Struct("<cqQQIIB")
#: tag, batch id.
_DONE = struct.Struct("<cq")


def batch_record(batch_id: int, in_offset: int, out_offset: int, n: int,
                 generation: int, traced: bool, key: str) -> bytes:
    """The task-pipe message replacing a pickled image block: where the
    batch's ``n`` samples sit in the ring and where its logits go.  The
    worker derives both shapes from the route's session."""
    return _BATCH.pack(BATCH_TAG, batch_id, in_offset, out_offset, n,
                       generation, traced) + key.encode()


def read_batch_record(record: bytes) -> tuple:
    """``(batch_id, in_offset, out_offset, n, generation, traced, key)``."""
    _tag, batch_id, in_offset, out_offset, n, generation, traced = \
        _BATCH.unpack_from(record)
    return (batch_id, in_offset, out_offset, n, generation, bool(traced),
            record[_BATCH.size:].decode())


def done_record(batch_id: int) -> bytes:
    """The result-pipe message of an untraced shm batch: its logits are
    already in the lease's output block."""
    return _DONE.pack(DONE_TAG, batch_id)


def read_done_record(record: bytes) -> int:
    """The batch id of a :func:`done_record`."""
    return _DONE.unpack_from(record)[1]


def open_batch(ring: ShmWorkerRing | None, in_offset: int, in_shape,
               out_offset: int, out_shape, stamp: int,
               generation: int) -> tuple[np.ndarray, np.ndarray]:
    """Worker-side gather: check the record's generation ``stamp``, then
    return views of the input block and of the logits block.  Raises
    :class:`ShmTransportError` on a generation mismatch or a missing ring
    attach."""
    if ring is None:
        raise ShmTransportError("worker has no ring segment attached")
    if int(stamp) != int(generation):
        raise ShmTransportError(
            f"stale record generation {stamp} "
            f"(worker is at generation {generation})"
        )
    return ring.view(in_offset, in_shape), ring.view(out_offset, out_shape)
