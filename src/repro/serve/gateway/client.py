"""Client helper for the gateway's framed-JSON protocol.

:class:`GatewayClient` is the programmatic counterpart of the snippet-3
``Fingerprinter`` (a device POSTing fingerprint vectors at a server URL):
one blocking TCP connection speaking length-prefixed JSON, with
client-side pipelining — :meth:`submit` fires without waiting, responses
are matched back by request id in whatever order the gateway completes
them, and :meth:`result` blocks for one specific id.  Each instance is
meant to be owned by one thread (the load generator gives every simulated
device its own client).

:func:`http_localize` is the one-shot HTTP flavor for curl-style
interop checks against the same port.
"""

from __future__ import annotations

import json
import random
import socket
import time

import numpy as np

from repro.serve.gateway import protocol

__all__ = ["GatewayClient", "GatewayError", "http_localize"]

#: Wire codes a retrying client may safely resubmit after backing off —
#: the request never entered the serving queue.
RETRYABLE_CODES = (protocol.E_OVERLOADED, protocol.E_DRAINING)


class GatewayError(RuntimeError):
    """A structured gateway error response (``.code`` is the wire code;
    ``.retry_after_s`` is the server's back-off hint when it sent one)."""

    def __init__(self, code: str, message: str,
                 retry_after_s: float | None = None):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.retry_after_s = retry_after_s


class GatewayClient:
    """One framed-JSON connection to a :class:`GatewayServer`.

    ``max_retries`` (default 0 — off) lets :meth:`localize` retry
    ``overloaded``/``draining`` responses with exponential backoff plus
    jitter, honoring the server's ``retry_after_s`` hint as the floor of
    each sleep.  Only admission rejections are retried — they are
    guaranteed to never have entered the serving queue — so a retry can
    never duplicate work."""

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 max_retries: int = 0, backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 2.0, backoff_jitter: float = 0.25):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.backoff_jitter = float(backoff_jitter)
        self.retries = 0  # total backoff retries this connection performed
        self._decoder = protocol.FrameDecoder()
        self._responses: dict[int, dict] = {}
        self._anonymous: list[dict] = []  # id-less errors (bad frame/json)
        self._ids = 0
        self._closed = False

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self.sock.close()
            except OSError:
                pass

    # -- pipelined API ---------------------------------------------------
    def submit(self, fingerprint, model: str | None = None,
               request_id: int | None = None, priority: str | None = None,
               deadline_ms: float | None = None) -> int:
        """Send one request without waiting; returns its id.  ``priority``
        and ``deadline_ms`` override the route's QoS policy defaults."""
        if request_id is None:
            self._ids += 1
            request_id = self._ids
        payload = {"id": request_id,
                   "fingerprint": np.asarray(fingerprint,
                                             dtype=np.float32).ravel().tolist()}
        if model is not None:
            payload["model"] = model
        if priority is not None:
            payload["priority"] = priority
        if deadline_ms is not None:
            payload["deadline_ms"] = float(deadline_ms)
        self.send_raw(protocol.encode_frame(payload))
        return request_id

    def send_raw(self, data: bytes) -> None:
        """Ship raw bytes (tests use this for malformed frames)."""
        self.sock.sendall(data)

    def _absorb(self, data: bytes) -> None:
        """File every frame decodable from ``data`` (and any bytes already
        buffered) into the response tables."""
        for event in self._decoder.feed(data):
            if event[0] != "msg":
                continue
            obj = event[1]
            oid = obj.get("id")
            if oid is None:
                self._anonymous.append(obj)
            else:
                self._responses[oid] = obj

    def result(self, request_id: int, timeout: float | None = None) -> dict:
        """Block until the response for ``request_id`` arrives (other ids
        arriving meanwhile are buffered for their own ``result`` calls)."""
        self._absorb(b"")  # frames already received but not yet decoded
        if request_id in self._responses:
            return self._responses.pop(request_id)
        self.sock.settimeout(timeout if timeout is not None else self.timeout)
        while True:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("gateway closed the connection")
            self._absorb(data)
            if request_id in self._responses:
                return self._responses.pop(request_id)

    def next_response(self, timeout: float | None = None) -> dict:
        """Block for the next response regardless of id (drain helpers and
        anonymous error frames come out here too)."""
        self._absorb(b"")
        while not self._anonymous and not self._responses:
            self.sock.settimeout(
                timeout if timeout is not None else self.timeout)
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("gateway closed the connection")
            self._absorb(data)
        if self._anonymous:
            return self._anonymous.pop(0)
        return self._responses.pop(next(iter(self._responses)))

    def _backoff_s(self, attempt: int, hint: float | None) -> float:
        """Sleep before retry ``attempt`` (1-based): exponential growth
        with jitter, floored at the server's ``Retry-After`` hint."""
        delay = min(self.backoff_cap_s,
                    self.backoff_base_s * (2.0 ** (attempt - 1)))
        delay *= 1.0 + random.uniform(-self.backoff_jitter,
                                      self.backoff_jitter)
        if hint is not None:
            delay = max(delay, float(hint))
        return delay

    # -- one-shot convenience ---------------------------------------------
    def localize(self, fingerprint, model: str | None = None,
                 timeout: float | None = None, priority: str | None = None,
                 deadline_ms: float | None = None) -> dict:
        """Submit one fingerprint and wait for its response; raises
        :class:`GatewayError` on a structured error.  With
        ``max_retries > 0``, ``overloaded``/``draining`` errors are
        retried after a jittered exponential backoff (honoring the
        server's ``retry_after_s``) before the last one surfaces."""
        attempt = 0
        while True:
            rid = self.submit(fingerprint, model=model, priority=priority,
                              deadline_ms=deadline_ms)
            response = self.result(rid, timeout=timeout)
            if response.get("ok"):
                return response
            error = response.get("error") or {}
            code = error.get("code", "unknown")
            attempt += 1
            if code not in RETRYABLE_CODES or attempt > self.max_retries:
                raise GatewayError(code, error.get("message", ""),
                                   retry_after_s=error.get("retry_after_s"))
            self.retries += 1
            time.sleep(self._backoff_s(attempt, error.get("retry_after_s")))


def http_localize(host: str, port: int, fingerprint,
                  model: str | None = None, timeout: float = 30.0) -> dict:
    """One HTTP/1.1 ``POST /localize`` against the gateway (the wire shape
    snippet-3 devices speak); returns the decoded JSON response."""
    # Imported here, its only use: a serving host then never loads
    # http.client (with ssl and email behind it) into every worker.
    import http.client

    payload = {"fingerprint":
               np.asarray(fingerprint, dtype=np.float32).ravel().tolist()}
    if model is not None:
        payload["model"] = model
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("POST", "/localize", body=json.dumps(payload),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()
