"""Wire protocol of the network gateway.

Two encodings share one port:

* **Framed JSON** (the native protocol): each message is a 4-byte
  big-endian length prefix followed by that many bytes of UTF-8 JSON.
  Requests carry ``{"id": <int>, "fingerprint": [floats], "model": ...}``
  (``model`` optional); responses echo the id with either
  ``{"id", "ok": true, "logits": [...], "cache": "hit"|"miss"}`` or
  ``{"id", "ok": false, "error": {"code", "message"}}``.  Ids are
  client-chosen and only need to be unique per connection *in flight* —
  the gateway completes them out of order (pipelining).

* **HTTP/1.1** (snippet-3 compatibility): a connection whose first bytes
  look like an HTTP request line is served as HTTP — ``POST /localize``
  with the same JSON body, ``GET /healthz``, ``GET /stats``.  Detection
  is per-connection, decided once from the first bytes.

The decoder is incremental and *self-resynchronizing*: a malformed frame
(bad JSON, oversized declared length) produces a structured error event
and the stream continues at the next frame boundary — a client bug costs
one error response, not the connection.  Only a frame whose header is
unparseable garbage has no recoverable boundary; that surfaces as
``bad_frame`` and the connection is closed.

Request bodies of both encodings are parsed by :func:`loads`, which uses
``orjson`` straight from the received bytes (a 24x24x3 DAM image is 1728
floats, ~30 KB of JSON, and stdlib ``json`` took several times longer on
it).  Bodies orjson rejects are parsed once more by stdlib ``json``, so
``NaN`` and ``Infinity`` -- which ``json.dumps`` and therefore Python
clients emit by default -- still reach request validation and get
``bad_request`` with their id.  Nesting too deep for either parser is a
``bad_json`` error like any other undecodable body: a ``RecursionError``
escaping the decoder would kill the gateway's event-loop thread.
Integers outside the 64-bit range parse as floats, so request ids must
fit in 64 bits.  Responses are encoded with stdlib ``json``.
"""

from __future__ import annotations

import json
import struct

import orjson

#: Frame header: 4-byte big-endian payload length.
HEADER = struct.Struct(">I")
HEADER_BYTES = HEADER.size

#: Default ceiling on a single frame/body, bytes.  Generous for any real
#: fingerprint (a 224x224x3 float image is ~600 KB as JSON) while bounding
#: what one client can make the gateway buffer.
MAX_PAYLOAD_BYTES = 4 * 1024 * 1024

# -- structured error codes (stable wire contract) ----------------------
E_BAD_FRAME = "bad_frame"            # unrecoverable framing violation
E_PAYLOAD_TOO_LARGE = "payload_too_large"
E_BAD_JSON = "bad_json"
E_BAD_REQUEST = "bad_request"        # JSON fine, schema/values wrong
E_UNKNOWN_MODEL = "unknown_model"
E_OVERLOADED = "overloaded"          # shed: write buffer over its hard cap
E_TIMEOUT = "timeout"                # per-request deadline expired
E_DRAINING = "draining"             # gateway is shutting down
E_SERVER_ERROR = "server_error"      # inference failed server-side

ERROR_CODES = (
    E_BAD_FRAME, E_PAYLOAD_TOO_LARGE, E_BAD_JSON, E_BAD_REQUEST,
    E_UNKNOWN_MODEL, E_OVERLOADED, E_TIMEOUT, E_DRAINING, E_SERVER_ERROR,
)

#: HTTP request methods whose first bytes flag a connection as HTTP.
_HTTP_METHODS = (b"GET ", b"POST", b"HEAD", b"PUT ", b"DELE", b"OPTI")


def encode_frame(obj) -> bytes:
    """One wire frame: length prefix + compact JSON.

    The bytes are exactly ``json.dumps(obj, separators=(",", ":"))``:
    perfbench's load generator builds its request frames itself and
    checks them byte for byte against this function, and other encoders
    spell some floats differently (orjson writes ``1e-7`` where
    ``json.dumps`` writes ``1e-07``)."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return HEADER.pack(len(body)) + body


def loads(body: bytes):
    """Parse one request body (UTF-8 JSON bytes).

    Raises ``ValueError`` for anything undecodable, including invalid
    UTF-8 and nesting too deep to parse.  orjson's fast path covers all
    standard JSON; stdlib ``json`` only runs on bodies orjson rejects
    (see the module docstring) and its message is the one reported."""
    try:
        return orjson.loads(body)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(body.decode("utf-8"))
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def error_response(request_id, code: str, message: str,
                   retry_after_s: float | None = None) -> dict:
    """The structured error payload for ``code`` (id may be None when the
    request id itself could not be parsed).  ``retry_after_s`` rides along
    for retryable conditions (``overloaded``/``draining``) — the framed
    protocol carries it in the error object, the HTTP flavor additionally
    maps it to a ``Retry-After`` header on 503."""
    error = {"code": code, "message": message}
    if retry_after_s is not None:
        error["retry_after_s"] = round(float(retry_after_s), 3)
    return {"id": request_id, "ok": False, "error": error}


def looks_like_http(prefix: bytes) -> bool:
    """Whether a connection's first bytes are an HTTP request line."""
    if len(prefix) < 4:
        return False
    return prefix[:4] in _HTTP_METHODS


class FrameDecoder:
    """Incremental framed-JSON decoder with per-frame error recovery.

    Feed bytes with :meth:`feed`; it yields ``("msg", obj)`` for each
    complete frame, ``("error", code, message)`` for recoverable frame
    faults (the stream resynchronizes at the next frame boundary), and
    ``("fatal", code, message)`` when the stream cannot continue.

    An oversized declared length is handled without killing the stream:
    the decoder remembers how many bytes to *discard* and keeps consuming
    until the bad frame's body has passed, then resumes at the next
    header — the ISSUE's "clean error response, not a connection kill
    mid-stream".
    """

    def __init__(self, max_payload: int = MAX_PAYLOAD_BYTES):
        self.max_payload = int(max_payload)
        self._buf = bytearray()
        self._discard = 0  # bytes of an oversized frame still to swallow

    @property
    def buffered(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes):
        """Consume ``data``; yield decode events (see class docstring)."""
        self._buf += data
        while True:
            if self._discard:
                drop = min(self._discard, len(self._buf))
                del self._buf[:drop]
                self._discard -= drop
                if self._discard:
                    return  # need more bytes of the bad body
            if len(self._buf) < HEADER_BYTES:
                return
            (length,) = HEADER.unpack_from(self._buf, 0)
            if length > self.max_payload:
                del self._buf[:HEADER_BYTES]
                self._discard = length
                yield ("error", E_PAYLOAD_TOO_LARGE,
                       f"frame of {length} bytes exceeds the "
                       f"{self.max_payload}-byte limit")
                continue
            if len(self._buf) < HEADER_BYTES + length:
                return
            body = bytes(self._buf[HEADER_BYTES : HEADER_BYTES + length])
            del self._buf[: HEADER_BYTES + length]
            try:
                obj = loads(body)
            except ValueError as error:
                yield ("error", E_BAD_JSON, f"undecodable frame body: {error}")
                continue
            yield ("msg", obj)


def parse_request(obj) -> tuple[int, list, str | None]:
    """Validate a decoded request object; returns ``(id, fingerprint,
    model)`` or raises ``ValueError`` with a client-facing message."""
    if not isinstance(obj, dict):
        raise ValueError("request must be a JSON object")
    request_id = obj.get("id")
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise ValueError("request 'id' must be an integer")
    fingerprint = obj.get("fingerprint")
    if not isinstance(fingerprint, list) or not fingerprint:
        raise ValueError("request 'fingerprint' must be a non-empty list")
    model = obj.get("model")
    if model is not None and not isinstance(model, str):
        raise ValueError("request 'model' must be a string when present")
    return request_id, fingerprint, model


#: QoS priority classes accepted on the wire (mirror of
#: :data:`repro.serve.admission.PRIORITIES`; duplicated here so the wire
#: module stays importable without the serving layer).
WIRE_PRIORITIES = ("interactive", "standard", "batch")


def parse_qos(obj) -> tuple[str | None, float | None]:
    """Validate a request's optional QoS fields; returns ``(priority,
    deadline_ms)`` (each ``None`` when absent — the route's policy
    defaults apply) or raises ``ValueError`` with a client-facing
    message."""
    priority = obj.get("priority")
    if priority is not None:
        if not isinstance(priority, str) or priority not in WIRE_PRIORITIES:
            raise ValueError(
                f"request 'priority' must be one of {WIRE_PRIORITIES}"
            )
    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) \
                or not isinstance(deadline_ms, (int, float)) \
                or not deadline_ms > 0:
            raise ValueError("request 'deadline_ms' must be a positive number")
        deadline_ms = float(deadline_ms)
    return priority, deadline_ms
