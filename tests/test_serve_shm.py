"""Shared-memory batch transport: ring allocator edge cases (wraparound,
FIFO reclaim, out-of-order frees), the anonymous ring mapping under fork
and spawn, server-level backpressure/spill, descriptor-generation safety
after worker restarts, transport parity, teardown idempotence, and the
lifetime of a serving host's processes.  End-to-end tests reuse the tiny
model from test_serve so the file stays fast on one core."""

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.infer import InferenceSession
from repro.serve import LocalizationServer
from repro.serve.shm import (
    ALIGNMENT,
    BATCH_TAG,
    DONE_TAG,
    HAVE_SHM,
    RingAllocator,
    ShmRing,
    ShmTransportError,
    align,
    batch_record,
    done_record,
    open_batch,
    read_batch_record,
    read_done_record,
)
from repro.vit import VitalConfig, VitalModel

needs_shm = pytest.mark.skipif(
    not HAVE_SHM, reason="os.memfd_create unavailable"
)

SRC = Path(__file__).resolve().parents[1] / "src"

#: Preamble of the fresh-interpreter scripts below: the same tiny model.
TINY_SERVER = """
import json, os, sys, time
from pathlib import Path
import numpy as np
from repro.infer import InferenceSession
from repro.serve import LocalizationServer
from repro.vit import VitalConfig, VitalModel
config = VitalConfig(image_size=12, patch_size=3, projection_dim=24,
                     num_heads=4, encoder_blocks=1,
                     encoder_mlp_units=(32, 16), head_units=(32,))
model = VitalModel(config, image_size=12, channels=3, num_classes=5,
                   rng=np.random.default_rng(0))
model.eval()
server = LocalizationServer(InferenceSession(model, max_batch=8), workers=2,
                            start_method="fork", max_delay_ms=1.0).start()
server.predict_many(np.zeros((4, 12, 12, 3), np.float32), timeout=30.0)
workers = sorted(shard.process.pid for shard in server._shards)
"""


def _python(script: str, **kwargs) -> subprocess.Popen:
    """``script`` in a fresh interpreter that imports this tree's ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, text=True, **kwargs)


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _check_and_bump(ring, offset, expected) -> None:
    """Child side of the mapping test: see the parent's data, change it."""
    view = ring.view(offset, expected.shape)
    if not np.array_equal(view, expected):
        sys.exit(1)
    view += 1.0


def _tiny_session(max_batch: int = 8, seed: int = 0) -> InferenceSession:
    config = VitalConfig(
        image_size=12, patch_size=3, projection_dim=24, num_heads=4,
        encoder_blocks=1, encoder_mlp_units=(32, 16), head_units=(32,),
    )
    model = VitalModel(config, image_size=12, channels=3, num_classes=5,
                       rng=np.random.default_rng(seed))
    model.eval()
    return InferenceSession(model, max_batch=max_batch)


@pytest.fixture(scope="module")
def session():
    return _tiny_session()


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(11)
    return rng.standard_normal((32, 12, 12, 3)).astype(np.float32)


class TestRingAllocator:
    def test_alloc_free_fifo_roundtrip(self):
        ring = RingAllocator(capacity=10 * ALIGNMENT)
        a = ring.allocate(ALIGNMENT)
        b = ring.allocate(2 * ALIGNMENT)
        assert a == 0 and b == ALIGNMENT
        assert ring.live_leases == 2
        assert ring.free(a) and ring.free(b)
        assert ring.live_leases == 0 and ring.used == 0
        # Empty ring resets to offset 0.
        assert ring.allocate(ALIGNMENT) == 0

    def test_alignment_rounds_up(self):
        ring = RingAllocator(capacity=4 * ALIGNMENT)
        a = ring.allocate(1)  # rounds to one ALIGNMENT unit
        b = ring.allocate(1)
        assert b == ALIGNMENT
        assert ring.used == 2 * ALIGNMENT
        ring.free(a), ring.free(b)
        assert align(1) == ALIGNMENT and align(ALIGNMENT) == ALIGNMENT

    def test_wraparound_when_tail_does_not_fit(self):
        """A batch that does not fit the remaining tail wraps to 0."""
        ring = RingAllocator(capacity=8 * ALIGNMENT)
        a = ring.allocate(3 * ALIGNMENT)  # [0, 3)
        b = ring.allocate(3 * ALIGNMENT)  # [3, 6)
        assert ring.free(a)  # head=6, tail=3: only 2 units left at the end
        c = ring.allocate(3 * ALIGNMENT)  # wraps into the freed [0, 3)
        assert c == 0
        assert ring.counters.wraps == 1
        # The wasted tail gap [6, 8) counts as used until b is reclaimed.
        assert ring.used == 8 * ALIGNMENT
        ring.free(b)  # reclaims b AND the wrap gap behind it
        assert ring.used == 3 * ALIGNMENT
        ring.free(c)
        assert ring.used == 0

    def test_full_ring_returns_none(self):
        ring = RingAllocator(capacity=4 * ALIGNMENT)
        a = ring.allocate(4 * ALIGNMENT)
        assert a == 0
        assert ring.allocate(ALIGNMENT) is None  # completely full
        assert ring.counters.alloc_failures == 1
        ring.free(a)
        assert ring.allocate(ALIGNMENT) is not None

    def test_oversized_request_rejected(self):
        ring = RingAllocator(capacity=2 * ALIGNMENT)
        assert ring.allocate(3 * ALIGNMENT) is None
        assert ring.allocate(0) is None

    def test_out_of_order_free_is_deferred(self):
        """Freeing a middle lease must not hand its space out while an
        older lease still pins the tail."""
        ring = RingAllocator(capacity=6 * ALIGNMENT)
        a = ring.allocate(2 * ALIGNMENT)  # [0, 2)
        b = ring.allocate(2 * ALIGNMENT)  # [2, 4)
        ring.allocate(2 * ALIGNMENT)      # [4, 6) — c stays live
        ring.free(b)  # out of order: a (the tail) is still live
        assert ring.used == 6 * ALIGNMENT  # b not reclaimed yet
        assert ring.allocate(ALIGNMENT) is None
        ring.free(a)  # now a AND b reclaim together
        assert ring.used == 2 * ALIGNMENT
        assert ring.allocate(2 * ALIGNMENT) == 0

    def test_double_free_and_unknown_free_are_noops(self):
        ring = RingAllocator(capacity=4 * ALIGNMENT)
        a = ring.allocate(ALIGNMENT)
        assert ring.free(a) is True
        assert ring.free(a) is False
        assert ring.free(12345) is False

    def test_many_random_cycles_never_corrupt(self):
        """Property-style: random alloc/free traffic keeps the invariant
        used == sum of live entries and never double-hands an offset."""
        rng = np.random.default_rng(3)
        ring = RingAllocator(capacity=32 * ALIGNMENT)
        live: dict[int, int] = {}
        for _ in range(2000):
            if live and (len(live) > 6 or rng.random() < 0.45):
                offset = list(live)[int(rng.integers(0, len(live)))]
                live.pop(offset)
                assert ring.free(offset)
            else:
                size = int(rng.integers(1, 6)) * ALIGNMENT
                offset = ring.allocate(size)
                if offset is not None:
                    assert offset not in live
                    assert offset + size <= ring.capacity
                    live[offset] = size
        assert ring.live_leases == len(live)


@needs_shm
class TestShmRingSegment:
    def test_view_roundtrip_and_stats(self):
        ring = ShmRing(capacity=64 * 1024)
        try:
            data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
            offset = ring.allocate(data.nbytes)
            ring.view(offset, data.shape)[:] = data
            np.testing.assert_array_equal(ring.view(offset, data.shape), data)
            stats = ring.stats()
            assert stats["live_leases"] == 1
            assert stats["peak_used_bytes"] >= data.nbytes
            ring.free(offset)
        finally:
            ring.close()

    def test_close_is_idempotent_and_releases_the_mapping(self):
        ring = ShmRing(capacity=4096)
        ring.close()
        ring.close()  # second close must be a no-op
        with pytest.raises(ValueError, match="closed"):
            ring.view(0, (4,))  # the mapping really is gone

    def test_forked_and_spawned_children_see_parent_writes(self):
        """The ring crosses to a worker by inheritance (fork) and as a
        duplicated descriptor (spawn); either way the child reads the
        parent's data and the parent reads the child's change."""
        for method in ("fork", "spawn"):
            ring = ShmRing(capacity=4096)
            try:
                data = np.linspace(0, 1, 16, dtype=np.float32)
                offset = ring.allocate(data.nbytes)
                ring.view(offset, data.shape)[:] = data
                child = multiprocessing.get_context(method).Process(
                    target=_check_and_bump, args=(ring, offset, data))
                child.start()
                child.join(timeout=60.0)
                assert child.exitcode == 0, method
                np.testing.assert_array_equal(ring.view(offset, data.shape),
                                              data + 1.0)
            finally:
                ring.close()


class TestDescriptors:
    """The fixed records that carry a shm batch over the task pipe and an
    untraced ``done`` back over the result pipe."""

    def test_descriptor_shape_and_detection(self):
        record = batch_record(7, 64, 7040, 4, 3, True, "m@v2")
        assert record[:1] == BATCH_TAG
        assert read_batch_record(record) == (7, 64, 7040, 4, 3, True, "m@v2")
        done = done_record(2**40)
        assert done[:1] == DONE_TAG and len(done) == 9
        assert read_done_record(done) == 2**40
        # A pickled message can never be mistaken for a record.
        for message in (("stop",), ("done", 1, None, 0.0, None)):
            assert pickle.dumps(message)[:1] not in (BATCH_TAG, DONE_TAG)

    def test_generation_mismatch_rejected(self):
        with pytest.raises(ShmTransportError, match="stale record"):
            open_batch(object(), 0, (1, 12, 12, 3), 1792, (1, 5), 2,
                       generation=3)

    def test_missing_ring_rejected(self):
        with pytest.raises(ShmTransportError, match="no ring"):
            open_batch(None, 0, (1, 12, 12, 3), 1792, (1, 5), 1,
                       generation=1)


@needs_shm
class TestServerShmTransport:
    def test_shm_carries_batches_and_reclaims_leases(self, session, images):
        reference = session.predict_many(images)
        with LocalizationServer(session, workers=2, max_delay_ms=1.0) as server:
            served = server.predict_many(images, timeout=30.0)
            stats = server.stats()
        np.testing.assert_array_equal(served, reference)
        transport = stats["transport"]
        assert transport["mode"] == "shm"
        assert transport["shm_batches"] >= 1
        assert transport["pickle_batches"] == 0
        for ring in transport["rings"]:
            assert ring is not None
            assert ring["live_leases"] == 0  # every lease freed
            assert ring["allocations"] == ring["frees"]
        # Per-route accounting mirrors the totals.
        route = stats["route_stats"]["default"]["transport"]
        assert route["shm_batches"] == transport["shm_batches"]
        assert route["shm_bytes"] == transport["shm_bytes"] > 0

    def test_explicit_pickle_transport_has_no_rings(self, session, images):
        with LocalizationServer(session, workers=1, max_delay_ms=1.0,
                                transport="pickle") as server:
            served = server.predict_many(images[:8], timeout=30.0)
            stats = server.stats()
        assert served.shape == (8, 5)
        transport = stats["transport"]
        assert transport["mode"] == "pickle"
        assert transport["rings"] == [None]
        assert transport["shm_batches"] == 0
        assert transport["pickle_batches"] >= 1

    def test_transport_validation(self, session):
        with pytest.raises(ValueError, match="transport"):
            LocalizationServer(session, transport="carrier-pigeon")

    def test_backpressure_spills_to_pickle_never_drops(self, session, images):
        """A ring too small for concurrent batches must block briefly and
        then spill — every request still completes, bit-identically.

        The worker is stopped while the batches are submitted, so the
        first batch holds the only ring lease and the next one must spill
        after ``spill_wait_ms`` however fast the worker would have been."""
        reference = session.predict_many(images)
        with LocalizationServer(
            session, workers=1, max_batch=8, max_delay_ms=0.5,
            ring_bytes=align(8 * 12 * 12 * 3 * 4) + align(8 * 5 * 4),
            spill_wait_ms=1.0,  # give up on ring space almost immediately
        ) as server:
            pid = server._shards[0].process.pid
            os.kill(pid, signal.SIGSTOP)
            try:
                ids = [server.submit(images[i : i + 8]) for i in range(0, 32, 8)]
                deadline = time.monotonic() + 10.0
                while (server.stats()["transport"]["spills"] < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
            finally:
                os.kill(pid, signal.SIGCONT)
            results = [server.result(i, timeout=30.0) for i in ids]
            stats = server.stats()
        np.testing.assert_array_equal(np.concatenate(results), reference)
        transport = stats["transport"]
        # Exactly one batch fits the ring: the first travelled by ring and
        # at least one of the others had to spill.
        assert transport["shm_batches"] >= 1
        assert transport["spills"] >= 1
        assert stats["requests"]["failed"] == 0

    def test_ring_smaller_than_any_batch_spills_everything(self, session, images):
        with LocalizationServer(session, workers=1, max_delay_ms=0.5,
                                ring_bytes=ALIGNMENT,
                                spill_wait_ms=1.0) as server:
            served = server.predict_many(images[:8], timeout=30.0)
            stats = server.stats()
        np.testing.assert_array_equal(served, session.predict_many(images[:8]))
        assert stats["transport"]["shm_batches"] == 0
        assert stats["transport"]["pickle_batches"] >= 1
        assert stats["transport"]["spills"] >= 1

    def test_stale_generation_redispatches_over_pickle(self, session, images):
        """Force every descriptor to carry a wrong generation: the worker
        must reject them and the parent must re-dispatch over pickle —
        no request may fail or hang."""
        reference = session.predict_many(images[:8])
        with LocalizationServer(session, workers=1, max_delay_ms=1.0) as server:
            with server._lock:
                server._shards[0].generation += 7  # worker still at gen 1
            served = server.predict_many(images[:8], timeout=30.0)
            stats = server.stats()
        np.testing.assert_array_equal(served, reference)
        transport = stats["transport"]
        assert transport["spills"] >= 1  # the pickle re-dispatch path ran
        assert stats["requests"]["failed"] == 0
        for ring in transport["rings"]:
            assert ring["live_leases"] == 0  # rejected leases were freed

    def test_worker_answers_a_stale_record_with_a_transport_error(
            self, session, images):
        """Straight through ``_worker_main``'s pipes: a record stamped with
        another generation comes back as ``ShmTransportError`` (the
        parent's cue to re-dispatch over pickle); a current one is served
        into the ring and answered with a done record."""
        import multiprocessing
        import threading

        from repro.serve.server import _worker_main

        ring = ShmRing(capacity=1 << 16)
        task_recv, task_send = multiprocessing.Pipe(duplex=False)
        result_recv, result_send = multiprocessing.Pipe(duplex=False)
        worker = threading.Thread(target=_worker_main, daemon=True,
                                  args=(0, task_recv, result_send, ring, 4))
        worker.start()
        try:
            task_send.send(("load", "m", session.snapshot()))
            assert result_recv.recv() == ("loaded", 0, "m")
            x = images[:2]
            out_offset = align(x.nbytes)
            ring.view(0, x.shape)[:] = x
            task_send.send_bytes(batch_record(5, 0, out_offset, 2, 3, False,
                                              "m"))
            kind, batch_id, text = result_recv.recv()
            assert (kind, batch_id) == ("error", 5)
            assert text.startswith("ShmTransportError")
            task_send.send_bytes(batch_record(6, 0, out_offset, 2, 4, False,
                                              "m"))
            assert read_done_record(result_recv.recv_bytes()) == 6
            np.testing.assert_array_equal(ring.view(out_offset, (2, 5)),
                                          session.predict_many(x))
            task_send.send(("stop",))
            worker.join(timeout=10.0)
            assert not worker.is_alive()
        finally:
            ring.close()

    def test_worker_crash_reclaims_leases_and_loses_nothing(self, session, images):
        from repro.serve.bench import run_fault_tolerance_drill

        drill = run_fault_tolerance_drill(
            session, images, requests=20, request_size=4, workers=2,
            transport="shm",
        )
        assert drill["transport"] == "shm"
        assert drill["lost"] == 0, drill
        assert drill["restarts"] >= 1
        assert drill["ring_leases_after"] == 0, drill
        assert drill["ok"]

    def test_restart_bumps_generation(self, session, images):
        with LocalizationServer(session, workers=2, max_delay_ms=1.0,
                                health_interval_s=0.05) as server:
            server.predict_many(images[:8], timeout=30.0)
            assert server._shards[1].generation == 1
            server._shards[1].process.kill()
            server.predict_many(images, timeout=30.0)  # survives the crash
            stats = server.stats()
        generations = [s["generation"] for s in stats["shards"]]
        assert max(generations) >= 2  # the restarted shard re-stamped

    def test_teardown_shard_idempotent_and_close_releases_ring(
            self, session, images):
        server = LocalizationServer(session, workers=1, max_delay_ms=1.0)
        server.start()
        server.predict_many(images[:4], timeout=30.0)
        ring = server._shards[0].ring
        server.close()
        server.close()  # second close: teardown must tolerate nulled state
        server._teardown_shard(server._shards[0], close_ring=True)  # again
        assert server._shards[0].ring is None
        with pytest.raises(ValueError, match="closed"):
            ring.view(0, (4,))  # the parent's mapping is released

    def test_spawned_workers_serve_over_shm(self, session, images):
        """Under spawn the ring reaches the worker as a descriptor.  (A
        spawning parent always starts multiprocessing's resource tracker,
        so this test does not look for its absence.)"""
        with LocalizationServer(session, workers=1, max_delay_ms=1.0,
                                start_method="spawn") as server:
            served = server.predict_many(images[:8], timeout=60.0)
            transport = server.stats()["transport"]
        np.testing.assert_array_equal(served,
                                      session.predict_many(images[:8]))
        assert transport["mode"] == "shm"
        assert transport["shm_batches"] >= 1
        assert transport["pickle_batches"] == 0

    def test_transport_parity_bit_identical(self):
        from repro.serve.bench import run_transport_parity

        report = run_transport_parity(image_size=12, num_classes=8,
                                      max_batch=8, samples=24, workers=1)
        assert report["bit_identical"], report


@needs_shm
class TestHostProcesses:
    """What a serving host leaves running: its workers and nothing else,
    and none of them outlives it."""

    def test_fork_server_children_are_only_its_workers(self):
        script = TINY_SERVER + """
me = os.getpid()
children = sorted(
    int(entry.name) for entry in Path("/proc").iterdir()
    if entry.name.isdigit()
    and (entry / "stat").read_text().rsplit(")", 1)[1].split()[1]
    == str(me))
rings = [str(path) for path in Path("/dev/shm").glob(f"repro-ring-{me}-*")]
print(json.dumps({"workers": workers, "children": children,
                  "rings": rings}))
server.close()
"""
        child = _python(script)
        out, _ = child.communicate(timeout=120)
        assert child.returncode == 0
        report = json.loads(out.splitlines()[-1])
        assert report["children"] == report["workers"]  # no tracker
        assert report["rings"] == []

    def test_workers_exit_when_the_server_process_dies(self):
        """A worker must read EOF once its parent is gone: it closes the
        parent's ends of its own pipes that fork handed it."""
        script = TINY_SERVER + """
print(json.dumps(workers), flush=True)
sys.stdin.read()
"""
        host = _python(script, stdin=subprocess.PIPE, start_new_session=True)
        workers = []
        try:
            workers = json.loads(host.stdout.readline())
            assert len(workers) == 2
            host.kill()
            host.wait(timeout=10)
            deadline = time.monotonic() + 10.0
            while (any(_alive(pid) for pid in workers)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            if host.poll() is None:
                host.kill()
            host.stdout.close()
            host.stdin.close()
