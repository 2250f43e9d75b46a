"""The network front door: a selectors-based TCP/HTTP gateway.

One dedicated event-loop thread multiplexes every client connection with
:mod:`selectors` (stdlib only — no asyncio dependency in the hot path,
no thread per connection):

* **Pipelining** — a connection may have many requests in flight; each
  response carries the client's request id, and completions stream back
  in whatever order the serving layer finishes them.
* **Backpressure** — per-connection in-flight window: once a client has
  ``max_inflight`` unanswered requests the gateway *stops reading its
  socket* (bytes queue in the kernel, then in the client), so a flooding
  client throttles itself without costing the gateway memory.  Decoded
  requests are never dropped.
* **Slow readers** — responses queue in a per-connection write buffer;
  past ``write_buffer_cap`` bytes, *success payloads are shed*: the
  logits body is replaced by a small structured ``overloaded`` error, so
  the reply stream stays intact (request accounting never loses an id)
  while memory stays bounded.  A buffer that still grows pathologically
  (4x the cap) force-closes the connection.
* **Graceful drain** — :meth:`GatewayServer.close` stops accepting,
  answers not-yet-submitted requests with ``draining``, waits for every
  in-flight request to complete and every write buffer to flush, then
  closes.  Zero accepted requests are lost.

Completion crosses threads through a self-pipe: the serving layer's
``on_done`` callback (fired under the server's bookkeeping lock) only
appends the request id to a deque and writes one wakeup byte; the loop
thread collects the result, caches it, and queues the response.

In front of inference sits the :class:`~repro.serve.gateway.cache.
QuantizedResultCache`: co-located fingerprints (identical after RSSI
bucketing) are answered straight from the gateway thread — the serving
layer never sees them.  Cache entries are keyed per model route and
invalidated from the fleet's lifecycle events (swap / canary), wired via
:meth:`repro.serve.LocalizationServer.add_lifecycle_hook`.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque

import numpy as np

from repro.obs.metrics import Histogram
from repro.obs.trace import RequestTrace, Span, Tracer
from repro.serve.admission import DeadlineExpired, RouteOverloaded
from repro.serve.gateway import protocol
from repro.serve.gateway.cache import QuantizedResultCache
from repro.serve.stats import LatencyReservoir

__all__ = ["GatewayServer"]

_RECV_BYTES = 65536
_TICK_S = 0.05

#: HTTP status per structured error code.
_HTTP_STATUS = {
    protocol.E_BAD_FRAME: 400,
    protocol.E_BAD_JSON: 400,
    protocol.E_BAD_REQUEST: 400,
    protocol.E_UNKNOWN_MODEL: 404,
    protocol.E_PAYLOAD_TOO_LARGE: 413,
    protocol.E_OVERLOADED: 503,
    protocol.E_DRAINING: 503,
    protocol.E_TIMEOUT: 504,
    protocol.E_SERVER_ERROR: 500,
}

#: Lifecycle event kinds that invalidate a model's cached results.  A
#: swap or settled canary changes (or may change) the version behind the
#: route; ``canary_start`` clears incumbent answers so rollout traffic
#: actually reaches the models under comparison.
_INVALIDATING_EVENTS = ("deploy", "swap", "canary", "canary_start")


class _Conn:
    """Per-connection state owned by the event-loop thread."""

    __slots__ = ("sock", "fd", "addr", "mode", "decoder", "outbuf",
                 "inflight", "seen_ids", "parse_stalled", "read_closed",
                 "closed", "registered", "last_activity", "hbuf",
                 "http_head", "http_discard")

    def __init__(self, sock, addr, max_payload):
        self.sock = sock
        self.fd = sock.fileno()
        self.addr = addr
        self.mode = None  # decided from the first bytes: "frame" | "http"
        self.decoder = protocol.FrameDecoder(max_payload=max_payload)
        self.outbuf = bytearray()
        self.inflight = 0
        self.seen_ids: set = set()  # ids currently in flight on this conn
        self.parse_stalled = False  # window full: bytes wait in the decoder
        self.read_closed = False
        self.closed = False
        self.registered = False
        self.last_activity = time.monotonic()
        self.hbuf = bytearray()  # http mode: raw buffered bytes
        self.http_head = None  # parsed (method, path, content_length)
        self.http_discard = 0  # oversized http body bytes left to swallow


class _PendingRequest:
    """One request submitted to the serving layer, awaiting completion."""

    __slots__ = ("conn", "client_id", "model", "cache_key", "cache_route",
                 "started", "deadline", "traced", "stamps")

    def __init__(self, conn, client_id, model, cache_key, cache_route,
                 started, deadline, traced, stamps):
        self.conn = conn
        self.client_id = client_id
        self.model = model
        self.cache_key = cache_key
        self.cache_route = cache_route
        self.started = started
        self.deadline = deadline
        self.traced = traced
        self.stamps = stamps  # perf_counter marks for the gateway spans


class GatewayServer:
    """TCP/HTTP front end over a running ``LocalizationServer``/
    ``FleetServer`` (see module docstring for the full behavior).

    Parameters mirror the knobs the ISSUE names: connection limit,
    per-connection in-flight window, write-buffer cap (shed threshold),
    idle and per-request timeouts, and the quantized result cache
    (``cache_step_db`` dB buckets, LRU ``cache_entries``, TTL
    ``cache_ttl_s``; ``cache_entries=0`` disables caching).
    """

    def __init__(self, server, host: str = "127.0.0.1", port: int = 0,
                 *, max_connections: int = 256, max_inflight: int = 32,
                 write_buffer_cap: int = 1 << 20,
                 idle_timeout_s: float = 60.0,
                 request_timeout_s: float = 30.0,
                 max_payload: int = protocol.MAX_PAYLOAD_BYTES,
                 cache: QuantizedResultCache | None = None,
                 cache_step_db: float = 2.0, cache_entries: int = 4096,
                 cache_ttl_s: float | None = 60.0,
                 trace_sample: float = 0.0, trace_buffer: int = 256):
        if max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.server = server
        self.host = host
        self.port = int(port)  # 0 = ephemeral; real port set at start()
        self.max_connections = int(max_connections)
        self.max_inflight = int(max_inflight)
        self.write_buffer_cap = int(write_buffer_cap)
        self.idle_timeout_s = float(idle_timeout_s)
        self.request_timeout_s = float(request_timeout_s)
        self.max_payload = int(max_payload)
        self.cache = cache if cache is not None else QuantizedResultCache(
            step_db=cache_step_db, max_entries=cache_entries,
            ttl_s=cache_ttl_s)
        self.tracer = Tracer(trace_sample, capacity=trace_buffer)

        self._sel: selectors.BaseSelector | None = None
        self._listener: socket.socket | None = None
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._started = False
        self._draining = False
        self._drain_deadline: float | None = None
        self._closed = False

        self._conns: dict[int, _Conn] = {}
        self._pending: dict[int, _PendingRequest] = {}  # server id → entry
        self._completions: deque[int] = deque()

        # Counters (loop thread writes; summary() reads — GIL-atomic ints).
        self.conns_total = 0
        self.conns_rejected = 0
        self.conns_http = 0
        self.conns_frame = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.requests_received = 0
        self.requests_responded = 0
        self.wire_errors = 0
        self.shed = 0
        self.overloaded = 0  # admission rejections (RouteOverloaded)
        self.timeouts = 0
        self.window_stalls = 0
        self.force_closed = 0
        self.latency_hit = LatencyReservoir(maxlen=4096)
        self.latency_miss = LatencyReservoir(maxlen=4096)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "GatewayServer":
        if self._started:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(min(self.max_connections, 1024))
        listener.setblocking(False)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(listener, selectors.EVENT_READ, "listen")
        self._sel.register(self._wake_r, selectors.EVENT_READ, "wake")
        self.server.attach_gateway(self)
        self.server.add_lifecycle_hook(self._on_lifecycle)
        self.server.metrics.add_collector(self._collect_metrics)
        self._started = True
        self._thread = threading.Thread(target=self._loop,
                                        name="gateway-loop", daemon=True)
        self._thread.start()
        return self

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def close(self, timeout: float = 10.0) -> None:
        """Graceful drain: stop accepting, finish every in-flight request,
        flush every write buffer, then stop the loop.  After ``timeout``
        seconds remaining connections are force-closed (their in-flight
        requests are cancelled server-side)."""
        if not self._started or self._closed:
            return
        self._draining = True
        self._drain_deadline = time.monotonic() + timeout
        self._wakeup()
        if self._thread is not None:
            self._thread.join(timeout + 5.0)
        self._closed = True

    # -- cross-thread entry points --------------------------------------
    def _wakeup(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, OSError, AttributeError):
            pass  # pipe full (wakeup already pending) or already closed

    def _on_server_done(self, request_id: int) -> None:
        """Serving-layer completion callback — runs under the server's
        bookkeeping lock; hand off and wake, nothing else."""
        self._completions.append(request_id)
        self._wakeup()

    def _on_lifecycle(self, kind: str, fields: dict) -> None:
        """Fleet lifecycle hook: drop cached results whose version may
        have changed (swap / canary settle / rollout start)."""
        if kind not in _INVALIDATING_EVENTS:
            return
        model = fields.get("model")
        if model:
            self.cache.invalidate_model(model)
        else:
            self.cache.clear()

    # -- event loop ------------------------------------------------------
    def _loop(self) -> None:
        next_tick = 0.0
        while True:
            try:
                events = self._sel.select(timeout=_TICK_S)
            except OSError:
                break
            for key, _mask in events:
                what = key.data
                if what == "listen":
                    self._accept_ready()
                elif what == "wake":
                    # One read per event: the selector is level-triggered,
                    # so bytes left behind only make the next select return.
                    try:
                        self._wake_r.recv(4096)
                    except OSError:
                        pass
                else:
                    self._conn_ready(what, _mask)
            self._drain_completions()
            # Deadlines are checked every _TICK_S, not on every wake-up
            # (two per request): the scan walks every pending request.
            now = time.monotonic()
            if now >= next_tick:
                next_tick = now + _TICK_S
                self._tick(now)
            if self._draining and self._drain_finished():
                break
        self._shutdown_loop()

    def _drain_finished(self) -> bool:
        if self._listener is not None:
            try:
                self._sel.unregister(self._listener)
            except (KeyError, ValueError):
                pass
            self._listener.close()
            self._listener = None
        for conn in list(self._conns.values()):
            if conn.inflight == 0 and not conn.outbuf:
                self._close_conn(conn)
        if not self._conns and not self._pending:
            return True
        if self._drain_deadline is not None \
                and time.monotonic() > self._drain_deadline:
            for sid, entry in list(self._pending.items()):
                try:
                    self.server.cancel(sid)
                except Exception:
                    pass
                self._pending.pop(sid, None)
            for conn in list(self._conns.values()):
                self.force_closed += 1
                self._close_conn(conn)
            return True
        return False

    def _shutdown_loop(self) -> None:
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        for sock in (self._listener, self._wake_r, self._wake_w):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._listener = None
        if self._sel is not None:
            self._sel.close()

    # -- accept / read / write -------------------------------------------
    def _accept_ready(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            if self._draining or len(self._conns) >= self.max_connections:
                self.conns_rejected += 1
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _Conn(sock, addr, self.max_payload)
            self._conns[conn.fd] = conn
            self.conns_total += 1
            self._sel.register(sock, selectors.EVENT_READ, conn)
            conn.registered = True

    def _conn_ready(self, conn: _Conn, mask: int) -> None:
        if conn.closed:
            return
        if mask & selectors.EVENT_WRITE:
            self._flush(conn)
        if conn.closed or not (mask & selectors.EVENT_READ):
            return
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            conn.read_closed = True
            if conn.inflight == 0 and not conn.outbuf:
                self._close_conn(conn)
            else:
                self._update_interest(conn)
            return
        self.bytes_in += len(data)
        conn.last_activity = time.monotonic()
        if conn.mode is None:
            conn.hbuf += data
            if len(conn.hbuf) < 4:
                return
            if protocol.looks_like_http(bytes(conn.hbuf[:4])):
                conn.mode = "http"
                self.conns_http += 1
            else:
                conn.mode = "frame"
                self.conns_frame += 1
            data = bytes(conn.hbuf)
            conn.hbuf = bytearray()
            if conn.mode == "http":
                conn.hbuf = bytearray(data)
                self._parse_http(conn)
                self._update_interest(conn)
                return
        if conn.mode == "http":
            conn.hbuf += data
            self._parse_http(conn)
        else:
            self._parse_frames(conn, data)
        self._update_interest(conn)

    def _flush(self, conn: _Conn) -> None:
        while conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(conn)
                return
            if sent <= 0:
                break
            self.bytes_out += sent
            del conn.outbuf[:sent]
            conn.last_activity = time.monotonic()
        if not conn.outbuf and conn.read_closed and conn.inflight == 0:
            self._close_conn(conn)
            return
        self._update_interest(conn)

    def _update_interest(self, conn: _Conn) -> None:
        if conn.closed:
            return
        mask = 0
        window_open = conn.inflight < self._window_for(conn)
        if not conn.read_closed and window_open and not conn.parse_stalled:
            mask |= selectors.EVENT_READ
        if conn.outbuf:
            mask |= selectors.EVENT_WRITE
        try:
            if mask and conn.registered:
                self._sel.modify(conn.sock, mask, conn)
            elif mask:
                self._sel.register(conn.sock, mask, conn)
                conn.registered = True
            elif conn.registered:
                # No interest right now (window full and nothing to
                # write): deregister entirely — an always-writable socket
                # parked on EVENT_WRITE would spin the loop.  Completions
                # re-open the window through this same method.
                self._sel.unregister(conn.sock)
                conn.registered = False
        except (KeyError, ValueError, OSError):
            pass

    def _window_for(self, conn: _Conn) -> int:
        # HTTP/1.1 keep-alive responses must come back in request order;
        # serve those connections one request at a time.
        return 1 if conn.mode == "http" else self.max_inflight

    def _close_conn(self, conn: _Conn) -> None:
        if conn.closed:
            return
        conn.closed = True
        if conn.registered:
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
            conn.registered = False
        try:
            conn.sock.close()
        except OSError:
            pass
        self._conns.pop(conn.fd, None)
        # Abandon this connection's in-flight requests server-side.
        stale = [sid for sid, entry in self._pending.items()
                 if entry.conn is conn]
        for sid in stale:
            self._pending.pop(sid, None)
            try:
                self.server.cancel(sid)
            except Exception:
                pass

    # -- framed-protocol parsing ----------------------------------------
    def _parse_frames(self, conn: _Conn, data: bytes) -> None:
        conn.parse_stalled = False
        for event in conn.decoder.feed(data):
            if conn.closed:
                return
            kind = event[0]
            if kind == "msg":
                self._handle_request(conn, event[1])
            else:
                _kind, code, message = event
                self.wire_errors += 1
                self._queue_response(
                    conn, protocol.error_response(None, code, message))
            if conn.inflight >= self._window_for(conn):
                # Window full: leave the rest buffered in the decoder and
                # stop reading; completions restart parsing.
                conn.parse_stalled = True
                self.window_stalls += 1
                return

    def _resume_parse(self, conn: _Conn) -> None:
        if conn.closed or not conn.parse_stalled:
            return
        if conn.mode == "http":
            conn.parse_stalled = False
            self._parse_http(conn)
        else:
            self._parse_frames(conn, b"")
        self._update_interest(conn)

    # -- HTTP parsing ----------------------------------------------------
    def _parse_http(self, conn: _Conn) -> None:
        while not conn.closed:
            if conn.inflight >= 1:
                conn.parse_stalled = True
                return
            conn.parse_stalled = False
            if conn.http_discard:
                drop = min(conn.http_discard, len(conn.hbuf))
                del conn.hbuf[:drop]
                conn.http_discard -= drop
                if conn.http_discard:
                    return
            if conn.http_head is None:
                end = conn.hbuf.find(b"\r\n\r\n")
                if end < 0:
                    if len(conn.hbuf) > 16384:
                        self.wire_errors += 1
                        self._queue_response(conn, protocol.error_response(
                            None, protocol.E_BAD_FRAME,
                            "http header block exceeds 16 KB"))
                        self._close_after_flush(conn)
                    return
                head = bytes(conn.hbuf[:end]).decode("latin-1")
                del conn.hbuf[: end + 4]
                lines = head.split("\r\n")
                parts = lines[0].split()
                if len(parts) < 2:
                    self.wire_errors += 1
                    self._queue_response(conn, protocol.error_response(
                        None, protocol.E_BAD_FRAME, "malformed request line"))
                    self._close_after_flush(conn)
                    return
                method, path = parts[0].upper(), parts[1]
                length = 0
                for line in lines[1:]:
                    name, _sep, value = line.partition(":")
                    if name.strip().lower() == "content-length":
                        try:
                            length = int(value.strip())
                        except ValueError:
                            length = -1
                if length < 0:
                    self.wire_errors += 1
                    self._queue_response(conn, protocol.error_response(
                        None, protocol.E_BAD_REQUEST,
                        "unparseable Content-Length"))
                    self._close_after_flush(conn)
                    return
                if length > self.max_payload:
                    self.wire_errors += 1
                    conn.http_discard = length
                    self._queue_response(conn, protocol.error_response(
                        None, protocol.E_PAYLOAD_TOO_LARGE,
                        f"body of {length} bytes exceeds the "
                        f"{self.max_payload}-byte limit"))
                    continue
                conn.http_head = (method, path, length)
            method, path, length = conn.http_head
            if len(conn.hbuf) < length:
                return
            body = bytes(conn.hbuf[:length])
            del conn.hbuf[:length]
            conn.http_head = None
            self._handle_http(conn, method, path, body)

    def _handle_http(self, conn: _Conn, method: str, path: str,
                     body: bytes) -> None:
        if method == "GET" and path == "/healthz":
            self._queue_response(conn, {
                "id": None, "ok": True,
                "status": "draining" if self._draining else "serving"})
            return
        if method == "GET" and path == "/stats":
            self._queue_response(conn, {"id": None, "ok": True,
                                        "stats": self.summary()})
            return
        if method != "POST" or path not in ("/", "/localize"):
            self.wire_errors += 1
            self._queue_response(conn, protocol.error_response(
                None, protocol.E_BAD_REQUEST,
                f"no route for {method} {path}"))
            return
        try:
            obj = protocol.loads(body)
        except ValueError as error:
            self.wire_errors += 1
            self._queue_response(conn, protocol.error_response(
                None, protocol.E_BAD_JSON, f"undecodable body: {error}"))
            return
        if isinstance(obj, dict) and "id" not in obj:
            obj["id"] = 0  # HTTP responses are ordered; the id is cosmetic
        self._handle_request(conn, obj)

    # -- request handling -------------------------------------------------
    def _handle_request(self, conn: _Conn, obj) -> None:
        t0 = time.perf_counter()
        self.requests_received += 1
        client_id = obj.get("id") if isinstance(obj, dict) else None
        if not isinstance(client_id, int) or isinstance(client_id, bool):
            client_id = None
        if self._draining:
            self._answer(conn, protocol.error_response(
                client_id, protocol.E_DRAINING, "gateway is shutting down"))
            return
        try:
            client_id, fingerprint, model = protocol.parse_request(obj)
            priority, deadline_ms = protocol.parse_qos(obj)
        except ValueError as error:
            self._answer(conn, protocol.error_response(
                client_id, protocol.E_BAD_REQUEST, str(error)))
            return
        if client_id in conn.seen_ids:
            self._answer(conn, protocol.error_response(
                client_id, protocol.E_BAD_REQUEST,
                f"request id {client_id} is already in flight"))
            return
        try:
            info = self.server.route_info(model)
        except ValueError as error:
            self._answer(conn, protocol.error_response(
                client_id, protocol.E_UNKNOWN_MODEL, str(error)))
            return
        size, channels = info["image_size"], info["channels"]
        expected = size * size * channels
        try:
            # fromiter skips asarray's type-discovery pass over the list
            # (~34 vs ~57 us for 1728 floats); the one float64 -> float32
            # rounding gives the same values.
            x = np.fromiter(fingerprint, np.float64, len(fingerprint)) \
                .astype(np.float32)
        except (ValueError, TypeError):
            self._answer(conn, protocol.error_response(
                client_id, protocol.E_BAD_REQUEST,
                "fingerprint must be numeric"))
            return
        if x.size != expected or not np.isfinite(x).all():
            self._answer(conn, protocol.error_response(
                client_id, protocol.E_BAD_REQUEST,
                f"fingerprint must hold {expected} finite values "
                f"({size}x{size}x{channels}), got {x.size}"))
            return
        x = x.reshape(1, size, size, channels)
        traced = self.tracer.enabled and self.tracer.sample()

        # Cache lookup (skipped while a canary owns the route).
        cache_key = cache_route = None
        if self.cache.enabled:
            cache_route = self.server.cache_route(model)
            if cache_route is not None:
                cache_key = self.cache.key(cache_route, x)
                t1 = time.perf_counter()
                cached = self.cache.get(cache_key)
                if cached is not None:
                    done = time.perf_counter()
                    self.latency_hit.add((done - t0) * 1e3)
                    if traced:
                        self._record_trace(client_id, model, "cache", [
                            Span("gw_parse", t0, t1),
                            Span("cache_lookup", t1, done),
                            Span("cache_hit", done, done),
                        ])
                    self._answer(conn, {
                        "id": client_id, "ok": True, "cache": "hit",
                        "logits": np.asarray(cached)[0].tolist()})
                    return

        deadline = (time.monotonic() + self.request_timeout_s
                    if self.request_timeout_s else None)
        try:
            sid = self.server.submit(x, model=model,
                                     on_done=self._on_server_done,
                                     priority=priority,
                                     deadline_ms=deadline_ms)
        except ValueError as error:
            self._answer(conn, protocol.error_response(
                client_id, protocol.E_UNKNOWN_MODEL, str(error)))
            return
        except RouteOverloaded as error:
            # Admission rejection: the request never entered the queue —
            # a small structured 503 with the server's back-off hint.
            self.overloaded += 1
            self._answer(conn, protocol.error_response(
                client_id, protocol.E_OVERLOADED, str(error),
                retry_after_s=error.retry_after_s))
            return
        except RuntimeError as error:
            code = (protocol.E_DRAINING if "shutting down" in str(error)
                    else protocol.E_SERVER_ERROR)
            self._answer(conn, protocol.error_response(
                client_id, code, str(error)))
            return
        conn.inflight += 1
        conn.seen_ids.add(client_id)
        self._pending[sid] = _PendingRequest(
            conn, client_id, model, cache_key, cache_route, t0, deadline,
            traced, (t0, time.perf_counter()))

    # -- completion path --------------------------------------------------
    def _drain_completions(self) -> None:
        while self._completions:
            try:
                sid = self._completions.popleft()
            except IndexError:
                return
            entry = self._pending.pop(sid, None)
            if entry is None:
                continue  # already timed out / its connection went away
            conn = entry.conn
            payload = None
            try:
                logits = self.server.result(sid, timeout=1.0)
            except DeadlineExpired as error:
                self.timeouts += 1
                payload = protocol.error_response(
                    entry.client_id, protocol.E_TIMEOUT, str(error))
            except (RuntimeError, KeyError, TimeoutError) as error:
                payload = protocol.error_response(
                    entry.client_id, protocol.E_SERVER_ERROR, str(error))
            if payload is None:
                row = np.asarray(logits)[0]
                if not np.isfinite(row).all():
                    # orjson would write NaN as null: refuse it outright,
                    # and never cache it.
                    payload = protocol.error_response(
                        entry.client_id, protocol.E_SERVER_ERROR,
                        "model produced non-finite logits")
            if payload is None:
                done = time.perf_counter()
                self.latency_miss.add((done - entry.started) * 1e3)
                if entry.cache_key is not None:
                    # Re-check the cache route: a swap that landed while
                    # this request was in flight must not let a stale
                    # result be filed under the new version's key.
                    if self.server.cache_route(entry.model) \
                            == entry.cache_route:
                        self.cache.put(entry.cache_key, logits, entry.model,
                                       entry.cache_route)
                if entry.traced:
                    t0, t1 = entry.stamps
                    self._record_trace(entry.client_id, entry.model,
                                       "server", [
                                           Span("gw_parse", t0, t1),
                                           Span("inference", t1, done),
                                           Span("cache_miss", done, done),
                                       ])
                payload = {"id": entry.client_id, "ok": True,
                           "cache": "miss", "logits": row.tolist()}
            conn.inflight = max(0, conn.inflight - 1)
            conn.seen_ids.discard(entry.client_id)
            self._answer(conn, payload)
            self._resume_parse(conn)

    def _record_trace(self, client_id, model, transport, spans) -> None:
        self.tracer.record(RequestTrace(
            client_id if client_id is not None else -1, model or "default",
            1, transport, None, spans))

    # -- response queueing / shedding ------------------------------------
    def _answer(self, conn: _Conn, obj: dict) -> None:
        """Answer a request counted in ``requests_received``: the one
        place ``requests_responded`` is counted, so every answer — ok,
        cache hit, error or timeout — counts once.  An answer whose
        connection has closed still counts: the gateway finished the
        request and only the client is gone.  Requests dropped with
        their connection before an answer exists are not counted."""
        self.requests_responded += 1
        self._queue_response(conn, obj)

    def _queue_response(self, conn: _Conn, obj: dict) -> None:
        if conn.closed:
            return
        if conn.mode == "http":
            data = self._http_bytes(obj)
        else:
            if len(conn.outbuf) > self.write_buffer_cap \
                    and obj.get("ok") and "logits" in obj:
                # Slow reader: shed the payload, keep the id accounting —
                # the client gets a small structured error, not silence.
                self.shed += 1
                obj = protocol.error_response(
                    obj.get("id"), protocol.E_OVERLOADED,
                    "write buffer over cap; response payload shed")
            data = protocol.response_frame(obj)
        conn.outbuf += data
        if len(conn.outbuf) > 4 * self.write_buffer_cap:
            # Even shed-size responses cannot drain: the client is gone
            # or adversarial — cut it loose.
            self.force_closed += 1
            self._close_conn(conn)
            return
        self._flush(conn)

    def _close_after_flush(self, conn: _Conn) -> None:
        conn.read_closed = True
        if not conn.outbuf and conn.inflight == 0:
            self._close_conn(conn)

    def _http_bytes(self, obj: dict) -> bytes:
        status = 200
        error = obj.get("error") or {}
        if not obj.get("ok", False):
            status = _HTTP_STATUS.get(error.get("code"), 500)
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  413: "Payload Too Large", 500: "Internal Server Error",
                  503: "Service Unavailable",
                  504: "Gateway Timeout"}.get(status, "Error")
        body = protocol.encode_response(obj)
        retry_after = ""
        if status == 503:
            # Retry-After is integral seconds per RFC 9110; round up so
            # "0.5" does not become "retry immediately".
            hint = error.get("retry_after_s", 1.0)
            retry_after = f"Retry-After: {max(1, int(-(-hint // 1)))}\r\n"
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{retry_after}"
                f"Connection: keep-alive\r\n\r\n").encode("ascii")
        return head + body

    # -- periodic maintenance ---------------------------------------------
    def _tick(self, now: float) -> None:
        for sid, entry in list(self._pending.items()):
            if entry.deadline is not None and now > entry.deadline:
                self._pending.pop(sid, None)
                try:
                    self.server.cancel(sid)
                except Exception:
                    pass
                self.timeouts += 1
                conn = entry.conn
                conn.inflight = max(0, conn.inflight - 1)
                conn.seen_ids.discard(entry.client_id)
                self._answer(conn, protocol.error_response(
                    entry.client_id, protocol.E_TIMEOUT,
                    f"request not served within {self.request_timeout_s}s"))
                self._resume_parse(conn)
        if self.idle_timeout_s:
            cutoff = now - self.idle_timeout_s
            for conn in list(self._conns.values()):
                if conn.inflight == 0 and not conn.outbuf \
                        and conn.last_activity < cutoff:
                    self._close_conn(conn)

    # -- observability ----------------------------------------------------
    def summary(self) -> dict:
        """The ``stats()["gateway"]`` section (JSON-serializable).
        Callable from any thread (conns are snapshotted — the loop thread
        mutates the table concurrently)."""
        conns = list(self._conns.values())
        inflight = sum(c.inflight for c in conns)
        paused = sum(1 for c in conns if c.parse_stalled)
        return {
            "listening": {"host": self.host, "port": self.port},
            "draining": self._draining,
            "connections": {
                "open": len(conns),
                "total": self.conns_total,
                "rejected": self.conns_rejected,
                "limit": self.max_connections,
                "http": self.conns_http,
                "frame": self.conns_frame,
                "force_closed": self.force_closed,
            },
            "bytes": {"in": self.bytes_in, "out": self.bytes_out},
            "inflight": {
                "current": inflight,
                "window": self.max_inflight,
                "paused_conns": paused,
                "window_stalls": self.window_stalls,
            },
            "requests": {
                "received": self.requests_received,
                "responded": self.requests_responded,
                "shed": self.shed,
                "overloaded": self.overloaded,
                "wire_errors": self.wire_errors,
                "timeouts": self.timeouts,
            },
            "cache": self.cache.stats(),
            "latency_ms": {
                "hit": self.latency_hit.summary(),
                "miss": self.latency_miss.summary(),
            },
            "tracing": self.tracer.summary(),
        }

    def _collect_metrics(self) -> list[dict]:
        """Collector for the server's ``MetricsRegistry`` — the gateway's
        counters become scrapeable series next to the serving ones, so the
        PR-8 timeline/SLO/alert layer covers the network edge too.  Only
        the *live* gateway emits (a server outliving a closed gateway and
        fronted by a new one must not double-report)."""
        if getattr(self.server, "_gateway", None) is not self:
            return []
        series: list[dict] = []

        def emit(name, kind, value, **labels):
            series.append({"name": name, "labels": labels, "kind": kind,
                           "value": value})

        emit("gateway_connections", "gauge", len(self._conns), state="open")
        emit("gateway_connections_total", "counter", self.conns_total)
        emit("gateway_connections_rejected_total", "counter",
             self.conns_rejected)
        emit("gateway_bytes_total", "counter", self.bytes_in, direction="in")
        emit("gateway_bytes_total", "counter", self.bytes_out,
             direction="out")
        emit("gateway_requests_total", "counter", self.requests_received,
             status="received")
        emit("gateway_requests_total", "counter", self.requests_responded,
             status="responded")
        emit("gateway_requests_total", "counter", self.shed, status="shed")
        emit("gateway_requests_total", "counter", self.overloaded,
             status="overloaded")
        emit("gateway_requests_total", "counter", self.wire_errors,
             status="wire_error")
        emit("gateway_requests_total", "counter", self.timeouts,
             status="timeout")
        emit("gateway_inflight", "gauge",
             sum(c.inflight for c in list(self._conns.values())))
        cache = self.cache.stats()
        emit("gateway_cache_requests_total", "counter", cache["hits"],
             result="hit")
        emit("gateway_cache_requests_total", "counter", cache["misses"],
             result="miss")
        emit("gateway_cache_entries", "gauge", cache["entries"])
        emit("gateway_cache_invalidations_total", "counter",
             cache["invalidations"])
        series.append({"name": "gateway_request_latency_ms",
                       "labels": {"cache": "hit"}, "kind": "histogram",
                       "summary": Histogram.summary(self.latency_hit)})
        series.append({"name": "gateway_request_latency_ms",
                       "labels": {"cache": "miss"}, "kind": "histogram",
                       "summary": Histogram.summary(self.latency_miss)})
        series.extend(self.tracer.collect(prefix="gateway_traces"))
        return series
