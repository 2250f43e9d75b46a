"""The load generator: one process, one framed-JSON connection, at most
two threads (a paced sender and the receiver).

Request JSON is encoded before timing starts (see :class:`Frames`).
``open_loop`` sends on a fixed schedule and times each request from when
it was *due*, so a stall also delays the requests queued behind it;
``closed_loop`` keeps a fixed number of requests outstanding and measures
capacity.
Requests still unanswered when a phase ends are counted, never timed.
"""

from __future__ import annotations

import select
import socket
import threading
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.serve.gateway import protocol

#: How long a phase waits for stragglers after its last send.
GRACE_S = 5.0


class Frames:
    """Request frames with ids ``first_id + i`` carrying the fingerprint
    ``images[order[i]]``, byte for byte what ``GatewayClient.submit``
    sends.  The JSON of each image used is encoded before timing starts
    (or given as ``tails[i]``, see :func:`tail`) and kept zlib-compressed
    (33 KB -> ~1 KB); building a frame joins an id prefix to the
    decompressed text (~30 us)."""

    def __init__(self, images: np.ndarray, order, first_id: int,
                 tails=None):
        self.order = np.asarray(order, dtype=np.int64)
        self.first_id = int(first_id)
        self.tails = tails if tails is not None else {
            i: tail(images[i]) for i in np.unique(self.order).tolist()}
        reference = protocol.encode_frame({
            "id": self.first_id,
            "fingerprint": np.asarray(images[self.order[0]],
                                      dtype=np.float32).ravel().tolist()})
        if self[0] != reference:
            raise RuntimeError("request frames differ from encode_frame")

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, i: int) -> bytes:
        body = (b'{"id":%d' % (self.first_id + i)
                + zlib.decompress(self.tails[self.order[i]]))
        return protocol.HEADER.pack(len(body)) + body

    def index_of(self, rid: int) -> int:
        """The image index request ``rid`` carried."""
        return int(self.order[rid - self.first_id])


def tail(image) -> bytes:
    """The compressed request JSON of ``image`` after its id."""
    return zlib.compress(_fingerprint_json(image), 1)


def _fingerprint_json(image) -> bytes:
    """``,"fingerprint":[...]}`` as ``json.dumps`` writes it: the repr of
    each float.  A DAM image replicates its 72 fingerprint values, so the
    repr of each distinct value is taken once (about 10x faster)."""
    flat = np.asarray(image, dtype=np.float32).ravel().astype(np.float64)
    values, inverse = np.unique(flat, return_inverse=True)
    text = [repr(v) for v in values.tolist()]
    return (',"fingerprint":[%s]}' % ",".join(
        [text[i] for i in inverse.tolist()])).encode("utf-8")


@dataclass
class Phase:
    """What one phase sent and got back.  ``responses`` maps request id to
    ``(receive time, decoded response)``; ``due`` / ``sent`` map request
    id to its due and send times."""

    name: str
    frames: Frames
    start: float = 0.0
    end: float = 0.0
    due: dict = field(default_factory=dict)
    sent: dict = field(default_factory=dict)
    responses: dict = field(default_factory=dict)
    late_ms: list = field(default_factory=list)
    #: CPU seconds the serving host used during the phase (set by the
    #: caller, which can see the host's processes).
    host_cpu_s: float = 0.0

    def ok_ids(self) -> list[int]:
        return [rid for rid, (_t, obj) in self.responses.items()
                if obj.get("ok")]

    def latency_ms(self, rid: int) -> float:
        return (self.responses[rid][0] - self.due[rid]) * 1e3

    def health(self) -> dict:
        ok = len(self.ok_ids())
        answered = len(self.responses)
        return {"sent": len(self.sent), "ok": ok, "error": answered - ok,
                "unanswered": len(self.sent) - answered,
                "late_p99_ms": float(np.percentile(self.late_ms, 99))
                if self.late_ms else 0.0}


class Connection:
    """One blocking TCP connection: ``sendall`` from one thread while
    another receives through ``select``."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.settimeout(None)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = protocol.FrameDecoder()

    def close(self) -> None:
        self.sock.close()

    def receive(self, timeout: float) -> list[tuple[float, dict]]:
        readable, _, _ = select.select([self.sock], [], [], timeout)
        if not readable:
            return []
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("gateway closed the connection")
        now = time.perf_counter()
        return [(now, event[1]) for event in self.decoder.feed(data)
                if event[0] == "msg"]


def _drain(conn: Connection, phase: Phase, expected: int,
           until: float) -> None:
    while len(phase.responses) < expected:
        left = until - time.perf_counter()
        if left <= 0:
            return
        for now, obj in conn.receive(min(left, 0.1)):
            phase.responses[obj["id"]] = (now, obj)


def warm(conn: Connection, frames: Frames, outstanding: int = 8) -> Phase:
    """Send ``frames`` with a small window and wait for every answer."""
    return closed_loop(conn, "warm", frames, outstanding, seconds=1e9)


def open_loop(conn: Connection, name: str, frames: Frames,
              rate: float) -> Phase:
    """Send frame ``i`` at ``start + i / rate``; the receiver runs on the
    calling thread while a second thread keeps the schedule."""
    phase = Phase(name, frames)
    ids = [frames.first_id + i for i in range(len(frames))]
    phase.start = time.perf_counter() + 0.05
    for i, rid in enumerate(ids):
        phase.due[rid] = phase.start + i / rate
    failure: list[BaseException] = []

    def pace():
        try:
            for i, rid in enumerate(ids):
                frame = frames[i]
                wait = phase.due[rid] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                now = time.perf_counter()
                conn.sock.sendall(frame)
                phase.sent[rid] = now
                phase.late_ms.append((now - phase.due[rid]) * 1e3)
        except OSError as error:
            failure.append(error)

    sender = threading.Thread(target=pace, name="loadgen-pace")
    sender.start()
    try:
        phase.end = phase.due[ids[-1]]
        _drain(conn, phase, len(frames), phase.end + GRACE_S)
    finally:
        sender.join()
    if failure:
        raise failure[0]
    return phase


def closed_loop(conn: Connection, name: str, frames: Frames,
                outstanding: int, seconds: float) -> Phase:
    """Keep ``outstanding`` requests in flight until ``seconds`` pass or
    the frames run out; ``end`` is when sending stopped."""
    phase = Phase(name, frames)
    pending = iter(range(len(frames)))
    phase.start = time.perf_counter()
    stop_at = phase.start + seconds

    def send_next() -> bool:
        i = next(pending, None)
        if i is None:
            return False
        frame, rid = frames[i], frames.first_id + i
        now = time.perf_counter()
        conn.sock.sendall(frame)
        phase.due[rid] = phase.sent[rid] = now
        return True

    for _ in range(outstanding):
        if not send_next():
            break
    sending = True
    give_up = stop_at + GRACE_S
    while len(phase.responses) < len(phase.sent) \
            and time.perf_counter() < give_up:
        for now, obj in conn.receive(0.1):
            phase.responses[obj["id"]] = (now, obj)
            if sending and now < stop_at and send_next():
                phase.late_ms.append((time.perf_counter() - now) * 1e3)
            elif sending:
                sending = False
                phase.end = now
                give_up = now + GRACE_S
    if sending:
        phase.end = time.perf_counter()
    return phase
