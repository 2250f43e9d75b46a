"""Network gateway: wire protocol hardening, the quantized result cache,
end-to-end socket round trips, pipelining/backpressure, timeout/cancel
hygiene and fleet swap invalidation.  Tiny models throughout so the
whole file runs in seconds."""

import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from repro.fleet import FleetServer, ModelRegistry
from repro.infer import InferenceSession
from repro.serve import LocalizationServer
from repro.serve.admission import RouteOverloaded
from repro.serve.gateway import (
    GatewayClient,
    GatewayError,
    GatewayServer,
    QuantizedResultCache,
    encode_frame,
    http_localize,
    protocol,
)
from repro.vit import VitalConfig, VitalModel

IMAGE = 12
FP_SIZE = IMAGE * IMAGE * 3


def _tiny_session(seed: int = 0, num_classes: int = 5,
                  max_batch: int = 8) -> InferenceSession:
    config = VitalConfig(
        image_size=IMAGE, patch_size=3, projection_dim=24, num_heads=4,
        encoder_blocks=1, encoder_mlp_units=(32, 16), head_units=(32,),
    )
    model = VitalModel(config, image_size=IMAGE, channels=3,
                       num_classes=num_classes,
                       rng=np.random.default_rng(seed))
    model.eval()
    return InferenceSession(model, max_batch=max_batch)


def _fingerprint(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-90.0, -30.0, size=FP_SIZE).astype(np.float32)


@pytest.fixture(scope="module")
def session():
    return _tiny_session(seed=0)


@pytest.fixture(scope="module")
def stack(session):
    """A 2-worker server behind a gateway with the cache on."""
    with LocalizationServer(session, workers=2, max_batch=8,
                            max_delay_ms=1.0) as server:
        gateway = GatewayServer(server, max_connections=32,
                                cache_step_db=2.0, cache_entries=256,
                                trace_sample=1.0).start()
        try:
            yield server, gateway
        finally:
            gateway.close()


class TestProtocol:
    def test_roundtrip_and_incremental_feed(self):
        decoder = protocol.FrameDecoder()
        frames = [encode_frame({"id": i, "v": "x" * i}) for i in range(5)]
        blob = b"".join(frames)
        got = []
        for i in range(len(blob)):  # worst case: one byte at a time
            got.extend(decoder.feed(blob[i:i + 1]))
        assert [kind for kind, _ in got] == ["msg"] * 5
        assert [obj["id"] for _, obj in got] == list(range(5))

    def test_truncated_frame_stays_pending(self):
        decoder = protocol.FrameDecoder()
        frame = encode_frame({"id": 1})
        assert list(decoder.feed(frame[:-3])) == []
        events = list(decoder.feed(frame[-3:]))
        assert events[0][0] == "msg" and events[0][1] == {"id": 1}

    def test_oversized_frame_errors_then_resyncs(self):
        decoder = protocol.FrameDecoder(max_payload=64)
        huge = b"x" * 100
        events = list(decoder.feed(struct.pack(">I", len(huge)) + huge
                                   + encode_frame({"id": 7})))
        assert events[0][:2] == ("error", protocol.E_PAYLOAD_TOO_LARGE)
        # The declared body is swallowed and the stream resynchronizes.
        assert events[1] == ("msg", {"id": 7})

    def test_bad_json_errors_then_continues(self):
        decoder = protocol.FrameDecoder()
        bad = struct.pack(">I", 4) + b"{oop"
        events = list(decoder.feed(bad + encode_frame({"id": 2})))
        assert events[0][:2] == ("error", protocol.E_BAD_JSON)
        assert events[1] == ("msg", {"id": 2})

    def test_encode_frame_bytes_are_stdlib_json(self):
        # perfbench's load generator compares its frames to these bytes;
        # orjson would write this value as 1.8762943909678143e-7.
        obj = {"id": 4, "fingerprint": [0.5, 1.8762943909678143e-07, 1.0]}
        body = json.dumps(obj, separators=(",", ":")).encode()
        assert b"e-07" in body
        assert encode_frame(obj) == struct.pack(">I", len(body)) + body

    @pytest.mark.parametrize("obj", [
        [],  # not an object
        {"fingerprint": [1.0]},  # id missing
        {"id": True, "fingerprint": [1.0]},  # bool id
        {"id": "x", "fingerprint": [1.0]},  # non-int id
        {"id": 1},  # fingerprint missing
        {"id": 1, "fingerprint": []},  # empty
        {"id": 1, "fingerprint": "abc"},  # wrong type
        {"id": 1, "fingerprint": [1.0], "model": 7},  # bad model type
    ])
    def test_parse_request_rejects(self, obj):
        with pytest.raises(ValueError):
            protocol.parse_request(obj)

    def test_looks_like_http(self):
        assert protocol.looks_like_http(b"POST")
        assert protocol.looks_like_http(b"GET ")
        assert not protocol.looks_like_http(struct.pack(">I", 12))


class TestQuantizedResultCache:
    def test_db_bucketing_collapses_nearby_fingerprints(self):
        cache = QuantizedResultCache(step_db=2.0)
        base = (np.rint(_fingerprint(0) / 2.0) * 2.0).astype(np.float32)
        shifted = base + np.float32(0.8)  # < half a 2 dB bucket
        far = base + np.float32(2.0)  # a full bucket away
        assert cache.key("r", base) == cache.key("r", shifted)
        assert cache.key("r", base) != cache.key("r", far)
        assert cache.key("r", base) != cache.key("other", base)

    def test_get_put_lru_and_counters(self):
        cache = QuantizedResultCache(step_db=2.0, max_entries=2, ttl_s=None)
        keys = [cache.key("r", _fingerprint(i)) for i in range(3)]
        logits = np.arange(4, dtype=np.float32)
        assert cache.get(keys[0]) is None  # miss
        cache.put(keys[0], logits, "m", "r")
        np.testing.assert_array_equal(cache.get(keys[0]), logits)
        cache.put(keys[1], logits + 1, "m", "r")
        cache.put(keys[2], logits + 2, "m", "r")  # evicts LRU key[0]
        assert cache.get(keys[0]) is None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2
        assert stats["evictions"] == 1 and stats["entries"] == 2

    def test_ttl_expiry_counts_as_miss(self):
        now = [0.0]
        cache = QuantizedResultCache(ttl_s=10.0, clock=lambda: now[0])
        key = cache.key("r", _fingerprint(0))
        cache.put(key, np.ones(3, dtype=np.float32), "m", "r")
        assert cache.get(key) is not None
        now[0] = 11.0
        assert cache.get(key) is None
        assert cache.stats()["expirations"] == 1

    def test_invalidation_by_model_route_and_clear(self):
        cache = QuantizedResultCache(ttl_s=None)
        logits = np.ones(3, dtype=np.float32)
        cache.put(cache.key("r1", _fingerprint(0)), logits, "a", "r1")
        cache.put(cache.key("r2", _fingerprint(1)), logits, "a", "r2")
        cache.put(cache.key("r3", _fingerprint(2)), logits, "b", "r3")
        assert cache.invalidate_model("a") == 2 and len(cache) == 1
        assert cache.invalidate_route("r3") == 1 and len(cache) == 0
        cache.put(cache.key("r1", _fingerprint(3)), logits, "a", "r1")
        assert cache.clear() == 1
        assert cache.stats()["invalidations"] == 4

    def test_disabled_cache(self):
        cache = QuantizedResultCache(max_entries=0)
        assert not cache.enabled
        key = cache.key("r", _fingerprint(0))
        cache.put(key, np.ones(3, dtype=np.float32), "m", "r")
        assert len(cache) == 0


class TestGatewayEndToEnd:
    def test_framed_roundtrip_matches_session(self, stack, session):
        server, gateway = stack
        fp = _fingerprint(100)
        with GatewayClient(gateway.host, gateway.port) as client:
            response = client.localize(fp)
        assert response["cache"] == "miss"
        expected = session.predict_many(
            fp.reshape(1, IMAGE, IMAGE, 3))[0]
        np.testing.assert_allclose(response["logits"], expected, rtol=1e-6)

    def test_pipelining_completes_out_of_order_ids(self, stack):
        _server, gateway = stack
        fps = [_fingerprint(200 + i) for i in range(6)]
        with GatewayClient(gateway.host, gateway.port) as client:
            ids = [client.submit(fp) for fp in fps]
            # Collect in reverse submission order: each id must resolve
            # regardless of the order completions streamed back.
            for rid in reversed(ids):
                response = client.result(rid, timeout=30.0)
                assert response["ok"] and response["id"] == rid

    def test_cache_hit_on_quantized_repeat(self, stack, session):
        _server, gateway = stack
        base = (np.rint(_fingerprint(300) / 2.0) * 2.0).astype(np.float32)
        with GatewayClient(gateway.host, gateway.port) as client:
            first = client.localize(base)
            second = client.localize(base + np.float32(0.4))  # same bucket
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        np.testing.assert_allclose(second["logits"], first["logits"])
        assert gateway.cache.stats()["hits"] >= 1

    def test_http_roundtrip_and_healthz(self, stack, session):
        _server, gateway = stack
        fp = _fingerprint(400)
        response = http_localize(gateway.host, gateway.port, fp)
        assert response["ok"]
        expected = session.predict_many(fp.reshape(1, IMAGE, IMAGE, 3))[0]
        np.testing.assert_allclose(response["logits"], expected, rtol=1e-6)
        import http.client

        conn = http.client.HTTPConnection(gateway.host, gateway.port,
                                          timeout=10.0)
        try:
            conn.request("GET", "/healthz")
            reply = conn.getresponse()
            assert reply.status == 200
            assert json.loads(reply.read())["status"] == "serving"
        finally:
            conn.close()

    def test_serving_imports_do_not_load_http_client(self):
        """In a fresh interpreter the serving imports leave ``http.client``
        (and ``ssl`` and ``email`` behind it) unloaded, so no worker of a
        serving host carries it; ``http_localize`` loads it itself."""
        script = """
import json, sys
import numpy as np
from repro.serve import GatewayServer, LocalizationServer
assert "http.client" not in sys.modules, "serving imported http.client"
from repro.infer import InferenceSession
from repro.serve import http_localize
from repro.vit import VitalConfig, VitalModel
config = VitalConfig(image_size=12, patch_size=3, projection_dim=24,
                     num_heads=4, encoder_blocks=1,
                     encoder_mlp_units=(32, 16), head_units=(32,))
model = VitalModel(config, image_size=12, channels=3, num_classes=5,
                   rng=np.random.default_rng(0))
model.eval()
session = InferenceSession(model, max_batch=8)
fingerprint = np.linspace(-90.0, -30.0, 432, dtype=np.float32)
with LocalizationServer(session, workers=1, max_delay_ms=1.0) as server:
    gateway = GatewayServer(server).start()
    try:
        response = http_localize(gateway.host, gateway.port, fingerprint)
    finally:
        gateway.close()
expected = session.predict_many(fingerprint.reshape(1, 12, 12, 3))[0]
print(json.dumps({"ok": response["ok"],
                  "close": bool(np.allclose(response["logits"], expected,
                                            rtol=1e-6))}))
"""
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-c", script], timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == {"ok": True,
                                                            "close": True}

    def test_http_error_statuses(self, stack):
        _server, gateway = stack
        import http.client

        conn = http.client.HTTPConnection(gateway.host, gateway.port,
                                          timeout=10.0)
        try:
            conn.request("POST", "/localize", body=b"not json",
                         headers={"Content-Type": "application/json"})
            reply = conn.getresponse()
            assert reply.status == 400
            assert json.loads(reply.read())["error"]["code"] == "bad_json"
            # keep-alive: the same connection serves the next request
            conn.request("POST", "/nope", body=b"{}")
            reply = conn.getresponse()
            assert reply.status == 400
        finally:
            conn.close()

    def test_unknown_model_is_structured(self, stack):
        _server, gateway = stack
        with GatewayClient(gateway.host, gateway.port) as client:
            with pytest.raises(GatewayError) as err:
                client.localize(_fingerprint(0), model="nope")
        assert err.value.code == "unknown_model"


def _raw_frame_response(gateway, request: dict) -> bytes:
    """Send one framed request; return the response body bytes as sent."""
    with socket.create_connection((gateway.host, gateway.port),
                                  timeout=10.0) as sock:
        sock.sendall(encode_frame(request))
        raw = b""
        while len(raw) < 4 or len(raw) < 4 + struct.unpack(">I", raw[:4])[0]:
            chunk = sock.recv(65536)
            assert chunk, "connection closed mid-frame"
            raw += chunk
    return raw[4:]


def _raw_http_response(gateway, method: str, path: str,
                       body: bytes | None = None) -> tuple[int, bytes]:
    import http.client

    conn = http.client.HTTPConnection(gateway.host, gateway.port,
                                      timeout=10.0)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


class TestResponseEncoding:
    """Responses are orjson bytes; both parsers must read them back to
    the exact served values."""

    def test_logits_decode_exactly_under_both_parsers(self, stack):
        import orjson

        server, gateway = stack
        fp = _fingerprint(500)
        served = server.predict_many(fp.reshape(1, IMAGE, IMAGE, 3))[0]
        expected = served.tolist()
        framed = _raw_frame_response(
            gateway, {"id": 3, "fingerprint": fp.tolist()})
        status, http_body = _raw_http_response(
            gateway, "POST", "/localize",
            json.dumps({"fingerprint": fp.tolist()}).encode())
        assert status == 200
        for body in (framed, http_body):
            for parse in (json.loads, orjson.loads):
                response = parse(body)
                assert response["ok"]
                assert response["logits"] == expected

    def test_encoder_roundtrips_float32_extremes(self):
        import orjson

        rng = np.random.default_rng(5)
        values = np.concatenate([
            rng.standard_normal(256).astype(np.float32) * 10.0,
            np.array([1e-7, -1e-30, 1e-45, 3.4e38, -0.0, 0.0, 123456.78],
                     dtype=np.float32),
        ]).tolist()
        body = protocol.encode_response({"id": 1, "logits": values})
        assert json.loads(body)["logits"] == values
        assert orjson.loads(body)["logits"] == values
        frame = protocol.response_frame({"id": 1, "logits": values})
        assert frame[4:] == body
        assert struct.unpack(">I", frame[:4])[0] == len(body)

    def test_encoder_keeps_non_str_keys(self):
        # orjson refuses non-str keys; the fallback writes them as
        # JSON object keys, as stdlib json always did.
        assert json.loads(protocol.encode_response({"hist": {1: 2}})) \
            == {"hist": {"1": 2}}

    def test_id_past_64_bits_is_answered_by_the_fallback(self, stack):
        # Only stdlib json parses a NaN body, and it keeps a wide id as
        # an int that orjson cannot write: the answer falls back to
        # stdlib json instead of killing the event loop.
        _server, gateway = stack
        wide = 2 ** 70
        body = _raw_frame_response(
            gateway, {"id": wide, "fingerprint": [float("nan")]})
        response = json.loads(body)
        assert response["id"] == wide
        assert response["error"]["code"] == "bad_request"
        with GatewayClient(gateway.host, gateway.port) as client:
            assert client.localize(_fingerprint(502))["ok"]

    def test_http_stats_serializes(self, stack):
        _server, gateway = stack
        with GatewayClient(gateway.host, gateway.port) as client:
            client.localize(_fingerprint(501))
        status, body = _raw_http_response(gateway, "GET", "/stats")
        assert status == 200
        stats = json.loads(body)["stats"]
        assert stats["listening"]["port"] == gateway.port
        assert stats["requests"]["responded"] >= 1

    def test_nonfinite_logits_answer_server_error(self):
        config = VitalConfig(
            image_size=IMAGE, patch_size=3, projection_dim=24, num_heads=4,
            encoder_blocks=1, encoder_mlp_units=(32, 16), head_units=(32,),
        )
        model = VitalModel(config, image_size=IMAGE, channels=3,
                           num_classes=5, rng=np.random.default_rng(0))
        model.eval()
        model.head.layers[-1].bias.data[2] = np.nan
        broken = InferenceSession(model, max_batch=8)
        with LocalizationServer(broken, workers=1, max_batch=8,
                                max_delay_ms=1.0) as server:
            gateway = GatewayServer(server, cache_step_db=2.0).start()
            try:
                fp = (np.rint(_fingerprint(7) / 2.0) * 2.0) \
                    .astype(np.float32)
                with GatewayClient(gateway.host, gateway.port) as client:
                    for _ in range(2):  # never cached, never null
                        with pytest.raises(GatewayError) as err:
                            client.localize(fp)
                        assert err.value.code == "server_error"
                        assert "non-finite" in str(err.value)
                status, body = _raw_http_response(
                    gateway, "POST", "/localize",
                    json.dumps({"fingerprint": fp.tolist()}).encode())
                assert status == 500
                assert json.loads(body)["error"]["code"] == "server_error"
                assert gateway.cache.stats()["entries"] == 0
            finally:
                gateway.close()


class TestWireHardening:
    """Malformed input must produce structured errors, never kill the
    connection (except a pathological write-buffer blowout)."""

    def test_bad_json_frame_keeps_connection_alive(self, stack):
        _server, gateway = stack
        with GatewayClient(gateway.host, gateway.port) as client:
            client.send_raw(struct.pack(">I", 5) + b"{nope")
            error = client.next_response(timeout=10.0)
            assert error["error"]["code"] == "bad_json"
            assert client.localize(_fingerprint(1))["ok"]

    def test_oversized_frame_clean_error_without_kill(self, session):
        with LocalizationServer(session, workers=1, max_batch=8,
                                max_delay_ms=1.0) as server:
            # A valid 432-float fingerprint frame is ~9 KB of JSON, so the
            # cap must sit above legitimate traffic yet below the blob.
            gateway = GatewayServer(server, max_payload=32_768,
                                    cache_entries=0).start()
            try:
                with GatewayClient(gateway.host, gateway.port) as client:
                    huge = b"z" * 100_000
                    client.send_raw(struct.pack(">I", len(huge)) + huge)
                    error = client.next_response(timeout=10.0)
                    assert error["error"]["code"] == "payload_too_large"
                    # Stream resynchronized: real requests still serve.
                    assert client.localize(_fingerprint(2))["ok"]
            finally:
                gateway.close()

    @pytest.mark.parametrize("framing", ["framed", "http"])
    def test_deeply_nested_body_keeps_gateway_serving(self, session,
                                                      framing):
        # stdlib json raises RecursionError on deep nesting; it must come
        # back as bad_json, not escape into (and kill) the event loop.
        nested = b"[" * 100_000
        with LocalizationServer(session, workers=1, max_batch=8,
                                max_delay_ms=1.0) as server:
            gateway = GatewayServer(server, cache_entries=0).start()
            try:
                if framing == "framed":
                    with GatewayClient(gateway.host, gateway.port,
                                       timeout=10.0) as client:
                        client.send_raw(struct.pack(">I", len(nested))
                                        + nested)
                        error = client.next_response()
                        assert error["error"]["code"] == "bad_json"
                        assert client.localize(_fingerprint(6))["ok"]
                else:
                    import http.client

                    conn = http.client.HTTPConnection(
                        gateway.host, gateway.port, timeout=10.0)
                    try:
                        conn.request("POST", "/localize", body=nested)
                        reply = conn.getresponse()
                        assert reply.status == 400
                        assert json.loads(reply.read())["error"]["code"] \
                            == "bad_json"
                    finally:
                        conn.close()
                    response = http_localize(gateway.host, gateway.port,
                                             _fingerprint(6), timeout=10.0)
                    assert response["ok"]
            finally:
                gateway.close(timeout=5.0)

    def test_truncated_frame_then_disconnect(self, stack):
        _server, gateway = stack
        before = gateway.summary()["requests"]["received"]
        sock = socket.create_connection((gateway.host, gateway.port),
                                        timeout=5.0)
        sock.sendall(struct.pack(">I", 500) + b"only-part")
        sock.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline \
                and gateway.summary()["connections"]["open"] > 0:
            time.sleep(0.02)
        # No request materialized, nothing crashed, gateway still serves.
        assert gateway.summary()["requests"]["received"] == before
        with GatewayClient(gateway.host, gateway.port) as client:
            assert client.localize(_fingerprint(3))["ok"]

    def test_garbage_fuzz_frames(self, stack):
        rng = np.random.default_rng(7)
        _server, gateway = stack
        with GatewayClient(gateway.host, gateway.port) as client:
            for _ in range(10):
                size = int(rng.integers(1, 64))
                blob = rng.integers(0, 256, size=size,
                                    dtype=np.uint8).tobytes()
                client.send_raw(struct.pack(">I", len(blob)) + blob)
                response = client.next_response(timeout=10.0)
                assert response["ok"] is False
                assert response["error"]["code"] in (
                    "bad_json", "bad_request")
            assert client.localize(_fingerprint(4))["ok"]

    def test_wrong_fingerprint_size_and_nonfinite(self, stack):
        _server, gateway = stack
        with GatewayClient(gateway.host, gateway.port) as client:
            with pytest.raises(GatewayError) as err:
                client.localize(np.ones(7, dtype=np.float32))
            assert err.value.code == "bad_request"
            bad = _fingerprint(5)
            bad[3] = np.nan
            with pytest.raises(GatewayError) as err:
                client.localize(bad)
            assert err.value.code == "bad_request"
            # A fingerprint is a flat list of numbers: nested lists and
            # non-numeric entries are refused, whatever their total size.
            for values in (_fingerprint(6).reshape(IMAGE, -1).tolist(),
                           [None] * FP_SIZE, ["x"] * FP_SIZE):
                client.send_raw(encode_frame({"id": 77,
                                              "fingerprint": values}))
                response = client.next_response(timeout=10.0)
                assert response["error"]["code"] == "bad_request"

    def test_duplicate_inflight_id_rejected(self, session, stopped_workers):
        # A stopped worker keeps id 1 queued, so its reuse provably
        # collides with it.
        with LocalizationServer(session, workers=1, max_batch=8,
                                max_delay_ms=5000.0) as server:
            gateway = GatewayServer(server, cache_entries=0).start()
            try:
                with GatewayClient(gateway.host, gateway.port) as client:
                    with stopped_workers(server):
                        client.submit(_fingerprint(6), request_id=1)
                        client.send_raw(encode_frame(
                            {"id": 1,
                             "fingerprint": _fingerprint(7).tolist()}))
                        dup = client.next_response(timeout=10.0)
                        assert dup["error"]["code"] == "bad_request"
                        assert "already in flight" in dup["error"]["message"]
                    assert client.result(1, timeout=30.0)["ok"]
            finally:
                gateway.close()

    def test_slow_reader_is_shed_not_dropped(self):
        """Unit-level shed check on a fabricated connection: a full write
        buffer downgrades success payloads to structured errors and the
        force-close threshold eventually cuts the connection."""
        import selectors

        from repro.serve.gateway.server import _Conn

        gateway = GatewayServer(object(), write_buffer_cap=4096)
        gateway._sel = selectors.DefaultSelector()  # unstarted: no loop
        a, b = socket.socketpair()
        try:
            a.setblocking(False)
            conn = _Conn(a, ("test", 0), gateway.max_payload)
            conn.mode = "frame"
            filler = encode_frame({"id": 0, "pad": "y" * 200})
            conn.outbuf = bytearray(
                filler * (gateway.write_buffer_cap // len(filler) + 1))
            gateway._queue_response(
                conn, {"id": 9, "ok": True, "logits": [0.0] * 64})
            assert gateway.shed == 1
            # Everything flushed to the peer decodes cleanly, and the shed
            # response is a structured overloaded error carrying the id.
            b.settimeout(5.0)
            decoder = protocol.FrameDecoder()
            last = None
            while last is None or last.get("id") != 9:
                for kind, obj in decoder.feed(b.recv(65536)):
                    if kind == "msg":
                        last = obj
            assert last["error"]["code"] == "overloaded"
            # Pathological growth (a peer that never drains) force-closes.
            conn.outbuf = bytearray(
                filler * (4 * gateway.write_buffer_cap // len(filler) + 1))
            gateway._queue_response(
                conn, {"id": 10, "ok": True, "logits": [0.0]})
            assert conn.closed
            assert gateway.force_closed == 1
        finally:
            a.close()
            b.close()


class TestTimeoutAndCancelHygiene:
    def test_gateway_timeout_leaves_no_orphaned_state(self, session,
                                                      stopped_workers):
        """Satellite regression: a request that times out at the gateway
        is cancelled server-side; its (never-arriving) completion leaks
        nothing, and the connection keeps serving."""
        with LocalizationServer(session, workers=1, max_batch=8,
                                max_delay_ms=5000.0) as server:
            gateway = GatewayServer(server, request_timeout_s=0.3,
                                    cache_entries=0).start()
            try:
                with GatewayClient(gateway.host, gateway.port) as client:
                    with stopped_workers(server):  # the request stays queued
                        rid = client.submit(_fingerprint(10))
                        response = client.result(rid, timeout=10.0)
                        assert response["error"]["code"] == "timeout"
                        assert gateway.timeouts == 1
                        # No orphaned pending state on either side (the
                        # worker's blocker is collected on release).
                        assert gateway._pending == {}
                    deadline = time.monotonic() + 5.0
                    while time.monotonic() < deadline and server._requests:
                        time.sleep(0.02)
                    assert server._requests == {}
                    # The in-flight window slot was released: the same
                    # connection serves again.
                    ids = [client.submit(_fingerprint(11 + i))
                           for i in range(8)]
                    for rid in ids:
                        assert client.result(rid, timeout=30.0)["ok"]
            finally:
                gateway.close()

    def test_cancel_after_completion_does_not_double_account(self, session):
        """A request cancelled *after* its batch completed must not be
        recounted as failed (the historical crash/leak path)."""
        with LocalizationServer(session, workers=1, max_batch=4,
                                max_delay_ms=1.0) as server:
            x = _fingerprint(20).reshape(1, IMAGE, IMAGE, 3)
            rid = server.submit(x)
            deadline = time.monotonic() + 10.0
            request = server._requests[rid]
            while time.monotonic() < deadline \
                    and not request.event.is_set():
                time.sleep(0.005)
            assert request.event.is_set()
            server.cancel(rid)
            stats = server.stats()["requests"]
            assert stats["completed"] == 1
            assert stats["failed"] == 0
            assert server._requests == {}

    def test_completion_callback_fires_once(self, session):
        with LocalizationServer(session, workers=1, max_batch=4,
                                max_delay_ms=1.0) as server:
            done: list[int] = []
            x = _fingerprint(21).reshape(1, IMAGE, IMAGE, 3)
            rid = server.submit(x, on_done=done.append)
            server.result(rid, timeout=30.0)
            assert done == [rid]
            # Cancelled requests also notify exactly once.
            rid2 = server.submit(x, on_done=done.append)
            server.cancel(rid2)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and rid2 not in done:
                time.sleep(0.01)
            assert done.count(rid2) == 1

    def test_churned_cancels_never_leak_or_crash(self, session):
        """Cancel storms racing live batches: whatever side wins each
        race, accounting stays consistent and nothing is orphaned."""
        with LocalizationServer(session, workers=1, max_batch=4,
                                max_delay_ms=1.0) as server:
            x = _fingerprint(22).reshape(1, IMAGE, IMAGE, 3)
            for _ in range(15):
                keep = server.submit(x)
                victim = server.submit(x)
                server.cancel(victim)
                assert server.result(keep, timeout=30.0).shape == (1, 5)
                with pytest.raises((RuntimeError, KeyError)):
                    server.result(victim, timeout=5.0)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and server._requests:
                time.sleep(0.02)
            assert server._requests == {}
            stats = server.stats()["requests"]
            assert stats["completed"] + stats["failed"] == stats["submitted"]


class TestFleetIntegration:
    def test_swap_invalidates_cache_and_serves_new_version(self, tmp_path):
        """The pinned acceptance drill: cached answers die with the swap —
        post-swap responses come from the *new* version immediately."""
        session_a, session_b = _tiny_session(seed=0), _tiny_session(seed=1)
        registry = ModelRegistry(str(tmp_path / "reg"))
        registry.publish("m", session_a)
        registry.publish("m", session_b)
        fp = (np.rint(_fingerprint(30) / 2.0) * 2.0).astype(np.float32)
        x = fp.reshape(1, IMAGE, IMAGE, 3)
        with FleetServer(registry, workers=2, max_delay_ms=1.0) as server:
            server.deploy("m", 1)
            gateway = GatewayServer(server, cache_step_db=2.0,
                                    cache_entries=256).start()
            try:
                with GatewayClient(gateway.host, gateway.port) as client:
                    first = client.localize(fp, model="m")
                    warm = client.localize(fp, model="m")
                    assert (first["cache"], warm["cache"]) == ("miss", "hit")
                    np.testing.assert_allclose(
                        warm["logits"], session_a.predict_many(x)[0],
                        rtol=1e-6)
                    server.swap("m", 2)
                    after = client.localize(fp, model="m")
                    # Not a stale hit: the swap invalidated the entry and
                    # the answer comes from version 2.
                    assert after["cache"] == "miss"
                    np.testing.assert_allclose(
                        after["logits"], session_b.predict_many(x)[0],
                        rtol=1e-6)
                    assert gateway.cache.stats()["invalidations"] >= 1
            finally:
                gateway.close()

    def test_canary_bypasses_cache(self, tmp_path):
        """While a canary splits the route, identical fingerprints must
        reach inference (no cache short-circuit around the comparison)."""
        session_a, session_b = _tiny_session(seed=0), _tiny_session(seed=1)
        registry = ModelRegistry(str(tmp_path / "reg"))
        registry.publish("m", session_a)
        registry.publish("m", session_b)
        fp = _fingerprint(31)
        with FleetServer(registry, workers=2, max_delay_ms=1.0) as server:
            server.deploy("m", 1)
            assert server.cache_route("m") is not None
            server.start_canary("m", 2, fraction=0.5, min_requests=10 ** 6)
            assert server.cache_route("m") is None
            gateway = GatewayServer(server, cache_step_db=2.0,
                                    cache_entries=256).start()
            try:
                with GatewayClient(gateway.host, gateway.port) as client:
                    for _ in range(4):
                        assert client.localize(fp, model="m")["cache"] \
                            == "miss"
            finally:
                gateway.close()
                server.decide_canary("m", "rollback")


class TestStatsAndMetrics:
    def test_server_stats_gain_gateway_section(self, stack):
        server, gateway = stack
        with GatewayClient(gateway.host, gateway.port) as client:
            client.localize(_fingerprint(40))
        section = server.stats()["gateway"]
        assert section is not None
        assert section["listening"]["port"] == gateway.port
        assert section["requests"]["responded"] >= 1
        assert "hit_rate" in section["cache"]

    def test_gateway_series_flow_through_metrics_registry(self, stack):
        server, gateway = stack
        with GatewayClient(gateway.host, gateway.port) as client:
            client.localize(_fingerprint(41))
        snapshot = json.dumps(server.metrics_snapshot())
        for name in ("gateway_connections_total", "gateway_requests_total",
                     "gateway_cache_requests_total",
                     "gateway_request_latency_ms"):
            assert name in snapshot

    def test_cache_hit_marked_in_trace_spans(self, stack):
        _server, gateway = stack
        fp = (np.rint(_fingerprint(42) / 2.0) * 2.0).astype(np.float32)
        with GatewayClient(gateway.host, gateway.port) as client:
            client.localize(fp)
            assert client.localize(fp)["cache"] == "hit"
        names = [span.name for trace in gateway.tracer.traces()
                 for span in trace.spans]
        assert "cache_hit" in names

    def test_obs_watch_gateway_row(self, stack):
        from repro.cli import _format_gateway_row

        _server, gateway = stack
        row = _format_gateway_row(gateway.summary())
        assert row is not None
        assert f":{gateway.port}" in row
        assert "cache" in row
        assert _format_gateway_row(None) is None


class TestGracefulDrain:
    def test_drain_answers_inflight_and_rejects_new(self, session,
                                                    stopped_workers):
        with LocalizationServer(session, workers=1, max_batch=8,
                                max_delay_ms=200.0) as server:
            gateway = GatewayServer(server, cache_entries=0).start()
            client = GatewayClient(gateway.host, gateway.port)
            try:
                closer = threading.Thread(
                    target=lambda: gateway.close(timeout=15.0), daemon=True)
                with stopped_workers(server):  # keep the request in flight
                    rid = client.submit(_fingerprint(50))
                    time.sleep(0.1)  # let the gateway submit it server-side
                    closer.start()
                    time.sleep(0.1)  # the drain starts while it is unanswered
                response = client.result(rid, timeout=30.0)
                assert response["ok"], response  # in-flight → answered
                closer.join(timeout=30.0)
                assert gateway.summary()["requests"]["responded"] \
                    >= gateway.summary()["requests"]["received"]
            finally:
                client.close()
            # New connections are refused once draining.
            with pytest.raises(OSError):
                socket.create_connection((gateway.host, gateway.port),
                                         timeout=2.0).recv(1)


class _RefusingServer:
    """Just enough of a LocalizationServer for ``_handle_request``: one
    known model, and a ``submit`` that raises ``error``."""

    def __init__(self, error: Exception):
        self.error = error

    def route_info(self, model):
        if model not in (None, "default"):
            raise ValueError(f"unknown model {model!r}")
        return {"image_size": IMAGE, "channels": 3, "num_classes": 5}

    def cache_route(self, model):
        return None

    def submit(self, *_args, **_kwargs):
        raise self.error


class TestResponseAccounting:
    """``requests_responded`` counts every answer to a received request,
    errors included, so a drain's responded >= received holds whatever
    the answers were."""

    GOOD = {"id": 1, "fingerprint": _fingerprint(0).tolist()}

    @pytest.mark.parametrize("kind, obj, error, code", [
        ("draining", GOOD, None, "draining"),
        ("bad_request", {"id": 1}, None, "bad_request"),
        ("unknown_model", {**GOOD, "model": "nope"}, None, "unknown_model"),
        ("overloaded", GOOD,
         RouteOverloaded("queue full", model="default", retry_after_s=0.1),
         "overloaded"),
        ("server_error", GOOD, RuntimeError("boom"), "server_error"),
    ])
    def test_every_error_answer_counts_as_responded(self, kind, obj, error,
                                                    code):
        gateway = GatewayServer(_RefusingServer(error), cache_entries=0)
        gateway._draining = kind == "draining"
        answers = []
        gateway._queue_response = lambda _conn, answer: answers.append(answer)
        conn = types.SimpleNamespace(closed=False, seen_ids=set(),
                                     inflight=0)
        gateway._handle_request(conn, dict(obj))
        assert [a["error"]["code"] for a in answers] == [code]
        summary = gateway.summary()["requests"]
        assert summary["received"] == summary["responded"] == 1

    def test_answer_to_a_closed_connection_counts(self):
        gateway = GatewayServer(_RefusingServer(RuntimeError("boom")),
                                cache_entries=0)
        conn = types.SimpleNamespace(closed=True, seen_ids=set(), inflight=0)
        gateway._handle_request(conn, dict(self.GOOD))
        summary = gateway.summary()["requests"]
        assert summary["received"] == summary["responded"] == 1
