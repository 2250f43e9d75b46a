"""The one load generator (``repro.serve.loadgen``): stop modes, closed
and pipelined clients, the outcome vocabulary, and both targets."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.infer import InferenceSession
from repro.serve import GatewayServer, LocalizationServer, loadgen
from repro.serve.admission import DeadlineExpired, RouteOverloaded
from repro.vit import VitalConfig, VitalModel

IMAGE = 12


class FakeServer:
    """A thread-safe stand-in for ``submit``/``result`` whose answers are
    scripted by submit order: ``reject`` submits raise
    ``RouteOverloaded``, ``expire`` ids raise ``DeadlineExpired``, and
    ``forget`` ids raise ``forget_with`` (the server lost them)."""

    def __init__(self, reject=(), expire=(), forget=(),
                 forget_with=TimeoutError, delay_s: float = 0.0):
        self.reject, self.expire, self.forget = set(reject), set(expire), \
            set(forget)
        self.forget_with = forget_with
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.calls = 0
        self.open: set[int] = set()
        self.collected: list[int] = []
        self.requests: list[tuple] = []
        self.max_open = 0

    def submit(self, images, model=None, priority=None, deadline_ms=None):
        with self.lock:
            request_id = self.calls
            self.calls += 1
            if request_id in self.reject:
                raise RouteOverloaded("queue full", retry_after_s=0.1)
            self.open.add(request_id)
            self.max_open = max(self.max_open, len(self.open))
            self.requests.append((len(images), model, priority, deadline_ms))
        return request_id

    def result(self, request_id, timeout=None):
        time.sleep(self.delay_s)
        with self.lock:
            self.open.discard(request_id)
            self.collected.append(request_id)
        if request_id in self.expire:
            raise DeadlineExpired(f"request {request_id} expired")
        if request_id in self.forget:
            raise self.forget_with(f"request {request_id}")
        return np.zeros((1, 5), dtype=np.float32)


POOL = np.zeros((8, IMAGE, IMAGE, 3), dtype=np.float32)


def _pair(_client: int, _step: int) -> np.ndarray:
    return POOL[:2]


class TestStopModes:
    def test_closed_mode_sends_exactly_clients_times_requests(self):
        server = FakeServer()
        run = loadgen.run(loadgen.ServerTarget(server), _pair, clients=3,
                          requests=7)
        total = run.tally()
        assert total["sent"] == total["completed"] == 21 == server.calls
        assert total["samples"] == 42
        assert run.failures == 0 and run.errors == []
        assert run.latency_ms()["count"] == 21
        # Closed loop: never more than one open request per client.
        assert server.max_open <= 3
        assert not server.open

    def test_duration_mode_ends_on_time(self):
        server = FakeServer(delay_s=0.002)
        begin = time.perf_counter()
        run = loadgen.run(loadgen.ServerTarget(server), _pair, clients=2,
                          duration_s=0.3)
        took = time.perf_counter() - begin
        assert 0.3 <= run.elapsed_s < 1.0 and took < 1.5
        assert run.tally()["completed"] > 0
        assert not server.open

    def test_stop_event_ends_on_time(self):
        server = FakeServer(delay_s=0.002)
        stop = threading.Event()
        load = loadgen.Load(loadgen.ServerTarget(server), _pair, clients=2,
                            stop=stop).start()
        time.sleep(0.2)
        stop.set()
        begin = time.perf_counter()
        run = load.join()
        assert time.perf_counter() - begin < 0.5
        assert 0.2 <= run.elapsed_s < 1.0
        assert run.tally()["completed"] == run.tally()["sent"] > 0

    def test_background_handle_stops_and_joins(self):
        server = FakeServer(delay_s=0.001)
        load = loadgen.Load(loadgen.ServerTarget(server), _pair,
                            clients=3).start()
        time.sleep(0.1)
        run = load.stop()
        assert not any(thread.is_alive() for thread in load._threads)
        assert run.tally()["sent"] == server.calls > 0
        assert not server.open

    def test_pipeline_and_clients_must_be_positive(self):
        with pytest.raises(ValueError):
            loadgen.Load(loadgen.ServerTarget(FakeServer()), _pair,
                         clients=0)
        with pytest.raises(ValueError):
            loadgen.Load(loadgen.ServerTarget(FakeServer()), _pair,
                         pipeline=0)

    def test_tallies_survive_many_clients_switching_often(self):
        """More clients than cores and a tiny switch interval: a lost
        update in the shared tally would break the exact counts."""
        rejects = set(range(0, 16 * 150, 7))
        server = FakeServer(reject=rejects)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            load = loadgen.Load(loadgen.ServerTarget(server), _pair,
                                clients=16, requests=150, pipeline=3)
            run = load.start().join()
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in load._threads)
        total = run.tally()
        assert total["sent"] == server.calls == 16 * 150
        assert total["rejected"] == len(rejects)
        assert total["completed"] == 16 * 150 - len(rejects)
        assert total["samples"] == 2 * total["completed"]
        assert len(run.latencies_ms) == total["completed"]


class TestFlood:
    def test_flood_collects_every_accepted_id(self):
        server = FakeServer(delay_s=0.001, reject={5, 17})
        run = loadgen.run(loadgen.ServerTarget(server), _pair, clients=2,
                          requests=40, pipeline=16)
        total = run.tally()
        assert total["sent"] == 80
        assert total["rejected"] == 2
        assert total["completed"] == 78
        # Every accepted id came back through result(), none left open.
        assert sorted(server.collected) == sorted(
            set(range(server.calls)) - {5, 17})
        assert not server.open
        # Pipelined: more than one request in flight per client, at most K.
        assert 2 < server.max_open <= 2 * 16


class TestOutcomes:
    def test_route_overloaded_is_rejected_not_lost(self):
        server = FakeServer(reject={0, 3})
        total = loadgen.run(loadgen.ServerTarget(server), _pair,
                            requests=6).tally()
        assert total["rejected"] == 2
        assert total["lost"] == 0 and total["failed"] == 0
        assert total["completed"] == 4 and total["sent"] == 6

    def test_deadline_expired_is_expired(self):
        server = FakeServer(expire={1, 2})
        run = loadgen.run(loadgen.ServerTarget(server, deadline_ms=50.0),
                          _pair, requests=5)
        total = run.tally()
        assert total["expired"] == 2 and total["completed"] == 3
        assert total["lost"] == 0 and total["failed"] == 0
        assert run.latency_ms()["count"] == 3  # only completed are sampled
        assert {request[3] for request in server.requests} == {50.0}

    @pytest.mark.parametrize("forget_with", [TimeoutError, KeyError])
    def test_forgotten_id_is_lost(self, forget_with):
        server = FakeServer(forget={2}, forget_with=forget_with)
        run = loadgen.run(loadgen.ServerTarget(server), _pair, requests=4)
        total = run.tally()
        assert total["lost"] == 1 and total["completed"] == 3
        assert loadgen.answered(total) == 3
        assert run.failures == 1 and len(run.errors) == 1

    def test_server_fault_is_failed_and_the_client_goes_on(self):
        server = FakeServer(forget={0}, forget_with=RuntimeError)
        total = loadgen.run(loadgen.ServerTarget(server), _pair,
                            requests=3).tally()
        assert total["failed"] == 1 and total["completed"] == 2

    def test_tags_follow_priority_then_model_with_target_defaults(self):
        server = FakeServer()

        def pick(client, step):
            if step % 2:
                return loadgen.Request(POOL[:1], priority="batch")
            return POOL[:3]

        run = loadgen.run(loadgen.ServerTarget(server, model="m"), pick,
                          requests=4)
        assert set(run.tallies) == {"m", "batch"}
        assert run.tally("m")["samples"] == 6
        assert run.tally("batch")["samples"] == 2
        assert {request[1] for request in server.requests} == {"m"}
        assert run.tally("nope")["sent"] == 0


def _tiny_session() -> InferenceSession:
    config = VitalConfig(
        image_size=IMAGE, patch_size=3, projection_dim=24, num_heads=4,
        encoder_blocks=1, encoder_mlp_units=(32, 16), head_units=(32,),
    )
    model = VitalModel(config, image_size=IMAGE, channels=3, num_classes=5,
                       rng=np.random.default_rng(0))
    model.eval()
    return InferenceSession(model, max_batch=8)


@pytest.fixture(scope="module")
def server():
    with LocalizationServer(_tiny_session(), workers=1, max_batch=8,
                            max_delay_ms=1.0) as live:
        yield live


class TestLiveTargets:
    def test_server_target_closed_loop(self, server):
        pool = np.random.default_rng(1).standard_normal(
            (16, IMAGE, IMAGE, 3)).astype(np.float32)
        run = loadgen.run(loadgen.ServerTarget(server),
                          loadgen.windows(pool, 2, seed=3), clients=2,
                          requests=3)
        assert run.tally()["completed"] == 6
        assert run.tally()["samples"] == 12
        assert run.samples_per_s > 0

    def test_gateway_target_against_live_gateway(self, server):
        rng = np.random.default_rng(2)
        fingerprints = rng.uniform(-90.0, -30.0, size=(12, IMAGE * IMAGE * 3)
                                   ).astype(np.float32)
        gateway = GatewayServer(server, max_connections=8,
                                cache_entries=0).start()
        try:
            run = loadgen.run(
                loadgen.GatewayTarget(gateway.host, gateway.port),
                lambda client, step: fingerprints[client * 4 + step],
                clients=3, requests=4)
            unknown = loadgen.run(
                loadgen.GatewayTarget(gateway.host, gateway.port,
                                      model="nope"),
                lambda client, step: fingerprints[step], requests=2)
            summary = gateway.summary()
        finally:
            gateway.close()
        total = run.tally()
        assert total["sent"] == total["completed"] == 12
        assert loadgen.answered(total) == 12
        assert run.latency_ms()["count"] == 12
        # A structured error is answered but not completed.
        assert unknown.tally("nope")["failed"] == 2
        assert loadgen.answered(unknown.tally()) == 2
        assert summary["requests"]["received"] == 14

    def test_gateway_connection_refused_is_a_transport_failure(self):
        import socket

        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        run = loadgen.run(loadgen.GatewayTarget("127.0.0.1", port,
                                                timeout=2.0),
                          lambda client, step: np.zeros(3), clients=2,
                          requests=5)
        total = run.tally()
        assert total["transport_failures"] == 2 and total["sent"] == 0
