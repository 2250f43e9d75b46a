"""Zero-copy shared-memory rings: how every serving batch reaches a worker.

Pickling each micro-batch's float32 image block onto the shard's task
pipe, and the prediction block back, costs a marshalling pass each way
(``BENCH_serving.json``'s ``transport`` section measures it).  The rings
remove it:

* the dispatcher writes each batch's image block straight into a
  per-shard :class:`ShmRing` (one anonymous shared mapping per worker:
  ``os.memfd_create`` + ``mmap``) and sends only a fixed ``struct`` record
  (:func:`batch_record`: batch id, input/output offsets, sample count,
  generation, traced flag, route key) over the task pipe — no pickle;
* the worker gathers the batch by offset — the only "copy" is the final
  ``np.ndarray`` view over the ring buffer — writes its logits into the
  reserved output block, and answers with a 9-byte :func:`done_record`
  (a traced batch answers with a pickled ``done`` that carries its
  worker-side timing instead);
* the parent copies the per-request logit slices out of the ring and
  frees the lease, making the block reusable.

A ring has no name.  The parent creates it once per shard, and each
worker receives the same :class:`ShmRing` object: under ``fork`` it
inherits the mapping and its file descriptor; under ``spawn`` and
``forkserver`` the object is pickled the way a ``Connection`` is — a
reducer registered with :mod:`multiprocessing.reduction` wraps the
descriptor in ``DupFd`` and the child maps it again.

Ring discipline
---------------
:class:`RingAllocator` hands out contiguous byte ranges in FIFO order
(allocate at the head, reclaim from the tail).  A batch that does not
fit the remaining tail *wraps*: the tail gap is recorded as a pre-freed
entry and the allocation restarts at offset 0.  Out-of-order frees (a
re-dispatched batch finishing late) are deferred — the range is marked
freed and reclaimed once everything older is freed too.  When no
contiguous range fits, ``allocate`` returns ``None`` and the dispatcher
applies backpressure: it waits for completions to free space while the
backlog stays in the server's admission queue.  The server refuses, at
construction, ``load_model`` and ``submit``, any batch no ring could
ever hold, so a wait lasts only until in-flight batches complete.

Crash safety
------------
The parent holds every ring for the server's lifetime: a worker crash
cannot take one away, and the batch data a crashed worker was holding is
still in place, so the restart path re-dispatches the *same* lease under
the worker's new ``generation``.  Batch records are generation-stamped; a
worker rejects a record minted for a different generation with
:class:`ShmTransportError`, and the parent restarts that shard, which
re-mints every in-flight lease under the replacement's generation.
Cleanup after a crash is the kernel's: a ring's memory goes with the last
process that maps it or holds its descriptor, and there is no
``/dev/shm`` name to leak, so no resource-tracker process is needed.

Rings need ``os.memfd_create`` (Linux).  :data:`HAVE_SHM` says whether
this host has it; :class:`repro.serve.LocalizationServer` refuses to
start without it.
"""

from __future__ import annotations

import mmap
import os
import struct
from collections import deque
from multiprocessing import reduction

import numpy as np

from repro.serve.stats import RingCounters

#: What a ring needs: an anonymous shared mapping (``os.memfd_create``).
HAVE_SHM = hasattr(os, "memfd_create")

#: Byte alignment of every ring allocation (keeps float32 views aligned
#: and offsets cache-line friendly).
ALIGNMENT = 64

#: Floor on an auto-sized ring (2 MiB ≈ 9 default-geometry
#: batches) so even an empty multi-tenant server starts with usable rings.
MIN_RING_BYTES = 2 << 20


class ShmTransportError(RuntimeError):
    """A shared-memory batch record could not be honored by the worker.

    The parent recognizes this error *by name prefix* in the worker's
    error message and restarts the shard instead of failing the batch's
    requests.
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
    """One shard's ring: an anonymous shared mapping plus its allocator.

    The parent creates it (``memfd_create`` + ``mmap``), hands out leases
    via the embedded :class:`RingAllocator` and materializes
    ``np.ndarray`` views at lease offsets.  One instance per worker shard;
    it survives worker restarts, and each worker receives it as described
    in the module docstring (the worker only calls :meth:`view`).
    """

    def __init__(self, capacity: int, counters: RingCounters | None = None):
        if not HAVE_SHM:
            raise ShmTransportError(
                "os.memfd_create is unavailable on this platform"
            )
        self.allocator = RingAllocator(align(capacity), counters=counters)
        fd = os.memfd_create("repro-ring", os.MFD_CLOEXEC)
        try:
            os.ftruncate(fd, self.capacity)
            self._map(fd)
        except BaseException:
            os.close(fd)
            raise

    def _map(self, fd: int) -> None:
        self._fd = fd
        self._buf = mmap.mmap(fd, self.capacity)
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
        return np.ndarray(shape, dtype=dtype, buffer=self._buf,
                          offset=offset)

    def stats(self) -> dict:
        return self.allocator.stats()

    def close(self) -> None:
        """Release this process's mapping and descriptor; idempotent.  The
        memory itself goes once no process maps it or holds it open."""
        if self._closed:
            return
        self._closed = True
        try:
            self._buf.close()
        except BufferError:  # a stray view still pins the mapping
            pass
        os.close(self._fd)

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


def _reduce_ring(ring: ShmRing):
    return _rebuild_ring, (reduction.DupFd(ring._fd), ring.capacity)


def _rebuild_ring(dup_fd, capacity: int) -> ShmRing:
    ring = ShmRing.__new__(ShmRing)
    ring.allocator = RingAllocator(capacity)  # unused: the parent allocates
    ring._map(dup_fd.detach())
    return ring


reduction.register(ShmRing, _reduce_ring)


# -- records (what actually crosses the pipes) ---------------------------
#: First byte of a batch record (parent -> worker task pipe).
BATCH_TAG = b"B"
#: First byte of an untraced ``done`` record (worker -> result pipe).
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
    """The result-pipe message of an untraced batch: its logits are
    already in the lease's output block."""
    return _DONE.pack(DONE_TAG, batch_id)


def read_done_record(record: bytes) -> int:
    """The batch id of a :func:`done_record`."""
    return _DONE.unpack_from(record)[1]


def open_batch(ring: ShmRing, in_offset: int, in_shape,
               out_offset: int, out_shape, stamp: int,
               generation: int) -> tuple[np.ndarray, np.ndarray]:
    """Worker-side gather: check the record's generation ``stamp``, then
    return views of the input block and of the logits block.  Raises
    :class:`ShmTransportError` on a generation mismatch."""
    if int(stamp) != int(generation):
        raise ShmTransportError(
            f"stale record generation {stamp} "
            f"(worker is at generation {generation})"
        )
    return ring.view(in_offset, in_shape), ring.view(out_offset, out_shape)
