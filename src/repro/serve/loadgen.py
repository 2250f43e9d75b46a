"""The one load generator: simulated clients against a server or a gateway.

Every drill, recorded bench lane and CLI demo drives its traffic through
:class:`Load`: ``clients`` threads against a :class:`ServerTarget` (an
in-process ``LocalizationServer``/``FleetServer``) or a
:class:`GatewayTarget` (one ``GatewayClient`` connection per thread).
``payload(client, step)`` picks each request — an array, or a
:class:`Request` overriding the target's ``model``/``priority``/
``deadline_ms``.  A client stops after ``requests`` requests, after
``duration_s`` or once ``stop`` is set, whichever comes first; it keeps
one request outstanding (``pipeline=1``, a closed loop) or up to K (a
flood), and collects every accepted id before it exits.

Each request lands in one outcome, tallied per tag (priority class, else
model; ``sent`` is the sum): ``rejected`` by admission (the client
pauses :data:`REJECT_PAUSE_S`), ``completed`` (``samples`` counts its
rows; its latency is sampled), ``expired`` past its deadline, ``failed``
on any other error, ``lost`` when an accepted id is never answered,
``draining`` (the gateway is closing) or ``transport_failures`` (the
connection broke) — the last two end the client.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.serve.admission import DeadlineExpired, RouteOverloaded
from repro.serve.gateway import protocol
from repro.serve.gateway.client import GatewayClient

#: Back-off after an admission rejection, so a rejected client does not
#: spin on the submit lock.
REJECT_PAUSE_S = 0.002

_MAX_ERRORS = 20

_WIRE_OUTCOMES = {protocol.E_OVERLOADED: "rejected",
                  protocol.E_TIMEOUT: "expired",
                  protocol.E_DRAINING: "draining"}


@dataclass(frozen=True)
class Request:
    """One request; ``None`` fields take the target's defaults."""

    payload: np.ndarray
    model: str | None = None
    priority: str | None = None
    deadline_ms: float | None = None

    @property
    def tag(self) -> str:
        return self.priority or self.model or "default"

    @property
    def samples(self) -> int:
        return len(self.payload) if np.ndim(self.payload) == 4 else 1


class _Target:
    """Request defaults and a result timeout; ``connect()`` gives each
    client an endpoint with ``submit``/``result``."""

    def __init__(self, model: str | None = None, priority: str | None = None,
                 deadline_ms: float | None = None, timeout: float = 60.0):
        self.defaults = (model, priority, deadline_ms)
        self.timeout = timeout

    def request(self, chosen) -> Request:
        """``chosen`` (an array or a :class:`Request`) with the target's
        defaults filled in."""
        if not isinstance(chosen, Request):
            chosen = Request(chosen)
        mine = (chosen.model, chosen.priority, chosen.deadline_ms)
        return Request(chosen.payload, *(
            value if value is not None else default
            for value, default in zip(mine, self.defaults)))


class ServerTarget(_Target):
    """An in-process server, shared by every client (it is thread-safe)."""

    def __init__(self, server, **defaults):
        super().__init__(**defaults)
        self.server = server

    def connect(self):
        return self.server

    def release(self, endpoint) -> None:
        pass  # the server outlives the load

    @staticmethod
    def answer(_logits) -> str:
        return "completed"

    @staticmethod
    def outcome(error: Exception) -> str:
        if isinstance(error, RouteOverloaded):
            return "rejected"
        if isinstance(error, DeadlineExpired):
            return "expired"
        return "lost" if isinstance(error, (TimeoutError, KeyError)) \
            else "failed"


class GatewayTarget(_Target):
    """A gateway at ``host:port``; each client opens its own connection."""

    def __init__(self, host: str, port: int, **defaults):
        super().__init__(**defaults)
        self.host, self.port = host, port

    def connect(self) -> GatewayClient:
        return GatewayClient(self.host, self.port, timeout=self.timeout)

    def release(self, endpoint: GatewayClient) -> None:
        endpoint.close()

    @staticmethod
    def answer(response: dict) -> str:
        if response.get("ok"):
            return "completed"
        code = (response.get("error") or {}).get("code")
        return _WIRE_OUTCOMES.get(code, "failed")

    @staticmethod
    def outcome(error: Exception) -> str:
        if isinstance(error, TimeoutError):
            return "lost"  # the connection is up but the answer never came
        return "transport_failures" if isinstance(error, OSError) \
            else "failed"


def answered(tally: collections.Counter) -> int:
    """Requests the target answered, with logits or a structured error."""
    return tally["sent"] - tally["lost"] - tally["transport_failures"]


@dataclass
class LoadResult:
    """What one :class:`Load` did.  Tallies are ``Counter`` objects: an
    outcome that never happened reads 0."""

    elapsed_s: float
    tallies: dict[str, collections.Counter]
    latencies_ms: list[float]  # completed requests, every tag together
    errors: list[str]  # the first error messages, for reports

    def tally(self, tag: str | None = None) -> collections.Counter:
        """One tag's tally, or the sum over every tag (``tag=None``)."""
        if tag is not None:
            return self.tallies.get(tag, collections.Counter())
        return sum(self.tallies.values(), collections.Counter())

    @property
    def failures(self) -> int:
        """Requests that did not complete, for whatever reason."""
        total = self.tally()
        return total["sent"] - total["completed"]

    @property
    def samples_per_s(self) -> float:
        samples = self.tally()["samples"]
        return samples / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def latency_ms(self) -> dict:
        """Client latency percentiles (``None`` fields when there are
        none)."""
        flat = np.asarray(self.latencies_ms, dtype=np.float64)
        if not flat.size:
            return {"count": 0, "p50_ms": None, "p95_ms": None,
                    "p99_ms": None, "mean_ms": None}
        p50, p95, p99 = np.percentile(flat, (50, 95, 99))
        return {"count": int(flat.size), "p50_ms": float(p50),
                "p95_ms": float(p95), "p99_ms": float(p99),
                "mean_ms": float(flat.mean())}


class Load:
    """``clients`` simulated clients against one target.

    :meth:`start` returns once every client is connected; :meth:`join`
    waits for them and returns the result.  With neither ``requests`` nor
    ``duration_s`` the clients run until :meth:`stop`."""

    def __init__(self, target, payload: Callable[[int, int], object], *,
                 clients: int = 1, requests: int | None = None,
                 duration_s: float | None = None,
                 stop: threading.Event | None = None, pipeline: int = 1):
        if clients < 1 or pipeline < 1:
            raise ValueError("clients and pipeline must be >= 1")
        self.target, self.payload = target, payload
        self.clients, self.requests = clients, requests
        self.duration_s, self.pipeline = duration_s, pipeline
        self._stop = stop if stop is not None else threading.Event()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._tallies = collections.defaultdict(collections.Counter)
        self._latencies: list[float] = []
        self._errors: list[str] = []
        self._started = self._ended = 0.0

    def start(self) -> "Load":
        ready = threading.Barrier(self.clients + 1)
        self._threads = [
            threading.Thread(target=self._client, args=(index, ready),
                             name=f"loadgen-{index}", daemon=True)
            for index in range(self.clients)]
        for thread in self._threads:
            thread.start()
        ready.wait()  # every client connected: the clock starts now
        self._started = time.perf_counter()
        return self

    def stop(self) -> LoadResult:
        """Tell every client to finish; returns :meth:`join`'s result."""
        self._stop.set()
        return self.join()

    def join(self) -> LoadResult:
        for thread in self._threads:
            thread.join()
        return LoadResult(max(0.0, self._ended - self._started),
                          dict(self._tallies), self._latencies,
                          self._errors)

    def _client(self, index: int, ready: threading.Barrier) -> None:
        def count(request: Request, outcome: str, begin: float = 0.0,
                  error: Exception | None = None) -> str:
            now = time.perf_counter()
            with self._lock:
                self._tallies[request.tag][outcome] += 1
                if outcome == "completed":
                    self._tallies[request.tag]["samples"] += request.samples
                    self._latencies.append((now - begin) * 1e3)
                if error is not None and outcome != "rejected" \
                        and len(self._errors) < _MAX_ERRORS:
                    self._errors.append(f"client {index}: {error!r}")
            return outcome

        def resolve(request_id: int, request: Request, begin: float) -> str:
            try:
                answer = endpoint.result(request_id, timeout=target.timeout)
            except Exception as error:
                return count(request, target.outcome(error), error=error)
            return count(request, target.answer(answer), begin)

        target = self.target
        try:
            endpoint = target.connect()
        except Exception as error:
            endpoint = None
            count(target.request(None), "transport_failures", error=error)
        ready.wait()
        deadline = (time.perf_counter() + self.duration_s
                    if self.duration_s is not None else None)
        pending: collections.deque = collections.deque()
        step = 0
        try:
            while endpoint is not None and not self._stop.is_set() \
                    and (self.requests is None or step < self.requests) \
                    and (deadline is None or time.perf_counter() < deadline):
                request = target.request(self.payload(index, step))
                step += 1
                count(request, "sent")
                begin = time.perf_counter()
                try:
                    request_id = endpoint.submit(
                        request.payload, model=request.model,
                        priority=request.priority,
                        deadline_ms=request.deadline_ms)
                except Exception as error:
                    outcome = count(request, target.outcome(error),
                                    error=error)
                    if outcome != "rejected":
                        break  # the target takes no more
                else:
                    pending.append((request_id, request, begin))
                    if len(pending) < self.pipeline:
                        continue
                    outcome = resolve(*pending.popleft())
                    if outcome in ("draining", "transport_failures"):
                        break
                if outcome == "rejected":
                    time.sleep(REJECT_PAUSE_S)
        finally:
            while pending:  # every accepted id is answered or counted
                resolve(*pending.popleft())
            if endpoint is not None:
                target.release(endpoint)
            with self._lock:
                self._ended = max(self._ended, time.perf_counter())


def run(target, payload: Callable[[int, int], object],
        **options) -> LoadResult:
    """Run one :class:`Load` to completion."""
    return Load(target, payload, **options).start().join()


def windows(pool: np.ndarray, size: int,
            seed: int = 0) -> Callable[[int, int], np.ndarray]:
    """A payload chooser: ``size``-sample slices of ``pool`` at seeded
    random offsets, a fixed function of ``(client, step)``."""
    starts = np.random.default_rng(seed).integers(
        0, max(1, len(pool) - size), size=1024)

    def choose(client: int, step: int) -> np.ndarray:
        begin = int(starts[(client * 131 + step) % len(starts)])
        return pool[begin:begin + size]

    return choose
