"""The sharded serving layer: batching policy, stats, end-to-end serving,
crash recovery.  The end-to-end tests use a deliberately tiny model so the
whole file runs in a few seconds on one core."""

import os
import signal
import threading
import time
from multiprocessing.connection import Connection

import numpy as np
import pytest

from repro.infer import InferenceSession
from repro.serve import (
    AdaptiveBatchPolicy,
    LatencyReservoir,
    LocalizationServer,
    ShardStats,
)
from repro.serve.bench import run_fault_tolerance_drill
from repro.serve.shm import ALIGNMENT
from repro.vit import VitalConfig, VitalModel


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
    rng = np.random.default_rng(42)
    return rng.standard_normal((37, 12, 12, 3)).astype(np.float32)


class TestAdaptiveBatchPolicy:
    def test_full_batch_never_waits(self):
        policy = AdaptiveBatchPolicy(max_batch=8, max_delay_ms=10.0)
        assert policy.wait_budget(8, 0.0) == 0.0
        assert policy.wait_budget(20, 0.0) == 0.0

    def test_deadline_caps_the_wait(self):
        policy = AdaptiveBatchPolicy(max_batch=8, max_delay_ms=10.0)
        # No traffic model yet: wait the remaining deadline.
        assert policy.wait_budget(1, 0.0) == pytest.approx(0.010)
        assert policy.wait_budget(1, 0.004) == pytest.approx(0.006)
        # Deadline elapsed: dispatch immediately.
        assert policy.wait_budget(1, 0.011) == 0.0

    def test_slow_arrivals_shrink_the_wait(self):
        """The wait is cut to the expected fill time when arrivals fill
        the batch before the deadline; slower traffic waits it out."""
        policy = AdaptiveBatchPolicy(max_batch=100, max_delay_ms=50.0)
        t = 0.0
        for _ in range(10):  # one request per second — glacial
            policy.observe_arrival(t)
            t += 1.0
        assert policy.ema_interarrival_s == pytest.approx(1.0)
        # 99 missing samples would need ~99 s; but the policy must never
        # exceed the remaining deadline either.
        assert policy.wait_budget(1, 0.0) == pytest.approx(0.050)
        policy2 = AdaptiveBatchPolicy(max_batch=4, max_delay_ms=50.0)
        for step in range(10):
            policy2.observe_arrival(step * 0.001)
        # 3 missing samples at ~1 ms spacing: ~3 ms < the 50 ms deadline.
        assert 0.0 < policy2.wait_budget(1, 0.0) < 0.010

    def test_fast_arrivals_use_min_wait(self):
        policy = AdaptiveBatchPolicy(max_batch=64, max_delay_ms=10.0)
        for step in range(20):
            policy.observe_arrival(step * 1e-6)
        budget = policy.wait_budget(1, 0.0)
        assert 0.0 < budget <= 10 * AdaptiveBatchPolicy.MIN_WAIT_S

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            AdaptiveBatchPolicy(max_batch=0)
        with pytest.raises(ValueError, match="max_delay_ms"):
            AdaptiveBatchPolicy(max_batch=4, max_delay_ms=-1.0)


class TestStats:
    def test_empty_reservoir_summary(self):
        summary = LatencyReservoir().summary()
        assert summary == {"count": 0, "window": 0, "sum_ms": 0.0,
                           "p50_ms": None, "p95_ms": None, "p99_ms": None,
                           "mean_ms": None}

    def test_reservoir_percentiles(self):
        reservoir = LatencyReservoir()
        for value in range(1, 101):
            reservoir.add(float(value))
        summary = reservoir.summary()
        assert summary["count"] == 100
        assert summary["p50_ms"] == pytest.approx(50.5)
        assert summary["p99_ms"] == pytest.approx(99.01)

    def test_shard_stats_histogram_and_mean(self):
        stats = ShardStats()
        assert stats.mean_batch_size() is None
        for size in (4, 4, 8):
            stats.record_dispatch(size)
            stats.record_complete(size, 1.0)
        summary = stats.summary()
        assert summary["batch_size_hist"] == {"4": 2, "8": 1}
        assert summary["mean_batch_size"] == pytest.approx(16 / 3)
        assert summary["samples"] == 16


class TestServerEndToEnd:
    def test_results_match_local_session(self, session, images):
        reference = session.predict_many(images)
        with LocalizationServer(session, workers=2, max_delay_ms=1.0) as server:
            served = server.predict_many(images, timeout=30.0)
            labels = server.predict_labels(images, timeout=30.0)
        # Same flat float32 weights, same kernels → bit-identical logits.
        np.testing.assert_array_equal(served, reference)
        np.testing.assert_array_equal(labels, reference.argmax(axis=1))

    def test_submit_result_roundtrip_and_errors(self, session, images):
        with LocalizationServer(session, workers=1, max_delay_ms=0.5) as server:
            request_id = server.submit(images[0])  # single 3-D image
            logits = server.result(request_id, timeout=30.0)
            assert logits.shape == (1, server.num_classes)
            with pytest.raises(KeyError):
                server.result(request_id)  # already collected
            with pytest.raises(KeyError):
                server.result(424242)
            with pytest.raises(ValueError, match="images"):
                server.submit(np.zeros((2, 5, 5, 3), dtype=np.float32))

    def test_stats_shape_and_counters(self, session, images):
        with LocalizationServer(session, workers=2, max_delay_ms=1.0) as server:
            server.predict_many(images, timeout=30.0)
            stats = server.stats()
        assert stats["workers"] == 2
        assert stats["requests"]["submitted"] == stats["requests"]["completed"] > 0
        assert stats["requests"]["failed"] == 0
        assert len(stats["shards"]) == 2
        dispatched = sum(shard["batches"] for shard in stats["shards"])
        assert dispatched >= 1
        assert stats["request_latency_ms"]["p50_ms"] is not None
        # Snapshot transport accounting: one ship per worker seed.
        transport = stats["snapshot"]
        assert transport["format"] == "repro.infer.session/v1"
        assert transport["bytes"] > 0
        assert transport["shipped"] == 2
        assert transport["bytes_shipped"] == 2 * transport["bytes"]

    def test_batcher_coalesces_single_image_requests(self, session, images):
        with LocalizationServer(session, workers=1, max_batch=8,
                                max_delay_ms=50.0) as server:
            ids = [server.submit(images[i]) for i in range(8)]
            for request_id in ids:
                server.result(request_id, timeout=30.0)
            stats = server.stats()
        hist = stats["shards"][0]["batch_size_hist"]
        # 8 single-image requests under a generous deadline must coalesce
        # into far fewer than 8 dispatches.
        assert sum(hist.values()) < 8

    def test_idle_shard_answers_a_lone_request_at_once(self, session,
                                                       images):
        # Work-conserving dispatch: an idle worker takes a lone request
        # right away instead of waiting out the 5 s coalescing cap.
        with LocalizationServer(session, workers=1, max_batch=8,
                                max_delay_ms=5000.0) as server:
            for i in range(3):
                started = time.perf_counter()
                server.result(server.submit(images[i]), timeout=10.0)
                assert time.perf_counter() - started < 1.0
            stats = server.stats()
        assert stats["shards"][0]["batch_size_hist"] == {"1": 3}

    def test_requests_behind_a_busy_worker_coalesce(self, session, images,
                                                    stopped_workers):
        with LocalizationServer(session, workers=1, max_batch=8,
                                max_delay_ms=5000.0) as server:
            with stopped_workers(server):
                ids = [server.submit(images[i]) for i in range(3)]
                time.sleep(0.05)
                assert server.stats()["shards"][0]["batches"] == 1
                released = time.perf_counter()
            # The worker going idle ends the wait (not the 5 s cap), and
            # the three queued requests leave as one batch.
            for request_id in ids:
                server.result(request_id, timeout=10.0)
            assert time.perf_counter() - released < 2.5
            stats = server.stats()
        assert stats["shards"][0]["batch_size_hist"] == {"1": 1, "3": 1}

    def test_empty_workload_and_cancel(self, session, images):
        with LocalizationServer(session, workers=1, max_delay_ms=0.5) as server:
            empty = server.predict_many(
                np.empty((0, 12, 12, 3), dtype=np.float32), timeout=30.0
            )
            assert empty.shape == (0, server.num_classes)
            request_id = server.submit(images[:2])
            assert server.cancel(request_id) is True
            assert server.cancel(request_id) is False  # already released
            with pytest.raises(KeyError):
                server.result(request_id)
            # The server keeps serving normally after a cancel.
            np.testing.assert_array_equal(
                server.predict_many(images[:4], timeout=30.0),
                session.predict_many(images[:4]),
            )

    def test_lifecycle_guards(self, session, images):
        server = LocalizationServer(session, workers=1)
        with pytest.raises(RuntimeError, match="not started"):
            server.submit(images[0])
        server.start()
        with pytest.raises(RuntimeError, match="already started"):
            server.start()
        out = server.predict_many(images[:4], timeout=30.0)
        assert out.shape == (4, server.num_classes)
        server.close()
        server.close()  # idempotent
        with pytest.raises(RuntimeError, match="shutting down"):
            server.submit(images[0])

    def test_accepts_model_snapshot_and_rejects_garbage(self, session, images):
        reference = session.predict_many(images[:4])
        with LocalizationServer(session.snapshot(), workers=1) as server:
            np.testing.assert_array_equal(
                server.predict_many(images[:4], timeout=30.0), reference
            )
        with pytest.raises(TypeError, match="InferenceSession"):
            LocalizationServer(object())
        with pytest.raises(ValueError, match="workers"):
            LocalizationServer(session, workers=0)

    def test_restart_on_crash_loses_no_requests(self, session, images):
        drill = run_fault_tolerance_drill(
            session, images, requests=20, request_size=4, workers=2,
        )
        assert drill["lost"] == 0, drill
        assert drill["completed"] == drill["requests"]
        assert drill["restarts"] >= 1
        assert drill["ok"]

    def test_crashed_worker_is_replaced_and_keeps_serving(self, session, images):
        with LocalizationServer(session, workers=2, max_delay_ms=1.0,
                                health_interval_s=0.05) as server:
            reference = session.predict_many(images)
            np.testing.assert_array_equal(
                server.predict_many(images, timeout=30.0), reference
            )
            server._shards[1].process.kill()
            # The monitor must swap in a fresh worker; serving continues
            # and results stay bit-identical.
            np.testing.assert_array_equal(
                server.predict_many(images, timeout=30.0), reference
            )
            stats = server.stats()
        assert sum(shard["restarts"] for shard in stats["shards"]) >= 1
        # Each restart re-ships the snapshot: 2 initial seeds + >= 1 restart.
        assert stats["snapshot"]["shipped"] >= 3


class TestProcessBoundary:
    """Task pipes instead of queues, and dispatch on the submitting
    thread when a shard is idle."""

    def test_one_task_pipe_per_shard_and_no_feeder_thread(self, session,
                                                           images):
        with LocalizationServer(session, workers=2,
                                max_delay_ms=1.0) as server:
            server.predict_many(images, timeout=30.0)
            names = [thread.name for thread in threading.enumerate()]
            pipes = [shard.task_conn for shard in server._shards]
        assert not [name for name in names if "QueueFeeder" in name]
        assert all(isinstance(pipe, Connection) for pipe in pipes)
        assert pipes[0] is not pipes[1]

    def test_lone_request_dispatches_without_waking_the_dispatcher(
            self, session, images):
        with LocalizationServer(session, workers=1,
                                max_delay_ms=5000.0) as server:
            dispatched_on, notified = [], []
            dispatch, notify = server._dispatch, server._cond.notify

            def spy_dispatch(key, requests):
                dispatched_on.append(threading.current_thread())
                dispatch(key, requests)

            def spy_notify(*args):
                notified.append(args)
                notify(*args)

            server._dispatch = spy_dispatch
            server._cond.notify = spy_notify
            for i in range(3):
                np.testing.assert_array_equal(
                    server.result(server.submit(images[i]), timeout=10.0),
                    session.predict_many(images[i : i + 1]))
            assert notified == []  # the dispatcher was never woken
        assert dispatched_on == [threading.current_thread()] * 3

    def test_drain_close_answers_a_burst_of_inline_submits(self, session,
                                                           images):
        server = LocalizationServer(session, workers=2,
                                    max_delay_ms=1.0).start()
        accepted, refused = [], []
        go = threading.Barrier(5)

        def client(offset):
            go.wait()
            for i in range(200):
                try:
                    accepted.append(server.submit(
                        images[(offset + i) % len(images)]))
                except RuntimeError:
                    refused.append(offset)
                    return

        clients = [threading.Thread(target=client, args=(k,))
                   for k in range(4)]
        for thread in clients:
            thread.start()
        go.wait()
        time.sleep(0.02)  # close while the burst is being submitted
        server.close(drain=True)
        for thread in clients:
            thread.join(timeout=10.0)
        outcomes = {"ok": 0, "failed": 0}
        for request_id in accepted:
            try:
                server.result(request_id, timeout=5.0)  # never times out
                outcomes["ok"] += 1
            except RuntimeError as error:
                assert "server closed" in str(error)
                outcomes["failed"] += 1
        assert outcomes["ok"] + outcomes["failed"] == len(accepted)
        assert outcomes["ok"] > 0
        stats = server.stats()["requests"]
        assert stats["completed"] + stats["failed"] == stats["submitted"]

    def test_route_to_model_lookup_never_takes_the_bookkeeping_lock(
            self, session):
        """The monitor's shed update resolves route keys to models while
        holding _cond; every dispatch takes _cond while holding _lock, so
        the lookup must not wait for _lock."""
        server = LocalizationServer(session, workers=1)
        held, release = threading.Event(), threading.Event()

        def hold():
            with server._lock:
                held.set()
                release.wait(10.0)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        held.wait(5.0)
        try:
            found = []
            lookup = threading.Thread(
                target=lambda: found.append(server._model_for_key("default")),
                daemon=True)
            lookup.start()
            lookup.join(timeout=2.0)
            assert found == ["default"]
        finally:
            release.set()
            holder.join(timeout=5.0)

    def test_restart_resends_more_than_a_pipe_of_spilled_batches(
            self, session, images):
        """A tiny ring spills every batch to pickle (13.8 KB each); with
        the worker stopped, more than a 64 KB pipe of them is in flight
        when it is killed.  The restart writes them all again outside the
        bookkeeping lock, so nothing deadlocks and nothing is lost."""
        blocks = [np.roll(images, k, axis=0)[:8] for k in range(12)]
        reference = [session.predict_many(block) for block in blocks]
        outcome = {}

        def drill():
            with LocalizationServer(session, workers=1, max_batch=8,
                                    max_delay_ms=1.0, ring_bytes=ALIGNMENT,
                                    spill_wait_ms=1.0,
                                    health_interval_s=0.05) as server:
                pid = server._shards[0].process.pid
                os.kill(pid, signal.SIGSTOP)
                ids = [server.submit(block) for block in blocks]
                deadline = time.monotonic() + 10.0
                while server.stats()["in_flight_batches"] * blocks[0].nbytes \
                        <= 64 * 1024:
                    assert time.monotonic() < deadline, "pipe never filled"
                    time.sleep(0.01)
                os.kill(pid, signal.SIGKILL)
                outcome["results"] = [server.result(i, timeout=30.0)
                                      for i in ids]
                outcome["stats"] = server.stats()

        runner = threading.Thread(target=drill, daemon=True)
        runner.start()
        runner.join(timeout=90.0)
        assert not runner.is_alive(), "restart deadlocked"
        for served, expected in zip(outcome["results"], reference):
            np.testing.assert_array_equal(served, expected)
        stats = outcome["stats"]
        assert stats["requests"]["failed"] == 0
        assert stats["shards"][0]["restarts"] == 1
        assert stats["transport"]["shm_batches"] == 0
