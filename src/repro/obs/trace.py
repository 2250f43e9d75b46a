"""Per-request lifecycle tracing for the serving stack.

A traced request accumulates absolute ``time.perf_counter()`` stamps as
it crosses the serving layers; :func:`spans_from_stamps` turns the stamp
set into a **contiguous** span chain

    enqueue -> batch_form -> shm_write -> worker_recv -> compute
            -> shm_read -> complete

where each span starts exactly where the previous one ended, so the span
durations sum to the measured end-to-end latency by construction (the
acceptance gate asserts within 10%; residual slack comes only from the
stamps the client takes outside the server).

``perf_counter`` is CLOCK_MONOTONIC on Linux — system-wide, not
per-process — so parent-side and worker-side stamps live on the same
timeline and can be subtracted directly.

Sampling uses a deterministic fraction accumulator (the same scheme the
fleet canary router uses): ``acc += rate; if acc >= 1: acc -= 1 ->
sampled``.  At rate 1.0 every request is traced; at 0.25 exactly every
fourth.  When the rate is 0 the tracer reports ``enabled = False`` and
the serving hot path's only cost is one attribute check.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Optional

__all__ = [
    "TRACE_SCHEMA",
    "SPAN_CHAIN",
    "Span",
    "RequestTrace",
    "Tracer",
    "spans_from_stamps",
    "to_chrome",
]

#: Schema tag stamped on exported trace documents.
TRACE_SCHEMA = "repro.obs.trace.v1"

#: Canonical span order; ``worker_recv``/``compute`` collapse into a
#: single ``compute`` span when the worker did not report its own stamps.
SPAN_CHAIN = (
    "enqueue",
    "batch_form",
    "shm_write",
    "worker_recv",
    "compute",
    "shm_read",
    "complete",
)


class Span:
    """One contiguous phase of a request's life, in perf_counter seconds."""

    __slots__ = ("name", "start", "end")

    def __init__(self, name: str, start: float, end: float) -> None:
        self.name = name
        self.start = float(start)
        self.end = float(end)

    @property
    def duration_ms(self) -> float:
        return (self.end - self.start) * 1e3

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "duration_ms": self.duration_ms}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Span(%s, %.3f ms)" % (self.name, self.duration_ms)


class RequestTrace:
    """A request's complete span chain plus identifying metadata."""

    __slots__ = ("request_id", "model", "n", "transport", "shard", "spans",
                 "compute_phases")

    def __init__(self, request_id: int, model: Optional[str], n: int,
                 transport: str, shard: Optional[int],
                 spans: list, compute_phases: Optional[dict] = None) -> None:
        self.request_id = int(request_id)
        self.model = model
        self.n = int(n)
        self.transport = transport
        self.shard = shard
        self.spans = list(spans)
        #: Optional per-phase compute profile (from a worker-side
        #: SessionProfiler) keyed phase name -> {"calls", "total_ms"}.
        self.compute_phases = compute_phases

    @property
    def total_ms(self) -> float:
        if not self.spans:
            return 0.0
        return (self.spans[-1].end - self.spans[0].start) * 1e3

    @property
    def span_sum_ms(self) -> float:
        return sum(span.duration_ms for span in self.spans)

    @property
    def complete(self) -> bool:
        """True when the chain covers the full lifecycle in order."""
        names = [span.name for span in self.spans]
        if not names or names[0] != "enqueue" or names[-1] != "complete":
            return False
        position = 0
        for expected in SPAN_CHAIN:
            if position < len(names) and names[position] == expected:
                position += 1
            elif expected == "worker_recv":
                continue  # collapsed into compute (no worker stamps)
            else:
                return False
        return position == len(names)

    def to_dict(self) -> dict:
        doc = {
            "request_id": self.request_id,
            "model": self.model,
            "n": self.n,
            "transport": self.transport,
            "shard": self.shard,
            "total_ms": self.total_ms,
            "complete": self.complete,
            "spans": [span.to_dict() for span in self.spans],
        }
        if self.compute_phases is not None:
            doc["compute_phases"] = self.compute_phases
        return doc


def spans_from_stamps(enqueued: float, gathered: float, write_start: float,
                      sent: float, collected: float, done: float,
                      worker: Optional[tuple] = None) -> list:
    """Build the contiguous span chain from absolute perf_counter stamps.

    ``worker`` is ``(recv, compute_start, compute_end)`` from the worker
    process, or ``None`` when the worker did not report stamps (then the
    whole ``sent -> collected`` stretch is attributed to ``compute``).
    Stamps are clamped monotone non-decreasing before use so clock
    granularity can never produce a negative span.
    """
    if worker is not None:
        recv, _c0, c1 = worker
        boundaries = [
            ("enqueue", enqueued), ("batch_form", gathered),
            ("shm_write", write_start), ("worker_recv", sent),
            ("compute", recv), ("shm_read", c1), ("complete", collected),
            (None, done),
        ]
    else:
        boundaries = [
            ("enqueue", enqueued), ("batch_form", gathered),
            ("shm_write", write_start), ("compute", sent),
            ("shm_read", collected), ("complete", collected),
            (None, done),
        ]
    spans = []
    previous = boundaries[0][1]
    clamped = []
    for name, stamp in boundaries:
        stamp = max(float(stamp), previous)
        clamped.append((name, stamp))
        previous = stamp
    for index in range(len(clamped) - 1):
        name, start = clamped[index]
        _next_name, end = clamped[index + 1]
        spans.append(Span(name, start, end))
    return spans


class Tracer:
    """Sampling decision + bounded in-memory trace buffer.

    ``sample()`` must be called under the caller's lock (the server takes
    its existing submit lock); the tracer itself only guards its buffer.
    """

    def __init__(self, sample_rate: float = 0.0, capacity: int = 256) -> None:
        if not 0.0 <= float(sample_rate) <= 1.0:
            raise ValueError("sample_rate must be in [0, 1], got %r"
                             % (sample_rate,))
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sample_rate = float(sample_rate)
        self.capacity = int(capacity)
        self._acc = 0.0
        self._buffer: deque = deque()
        self._by_id: dict[int, RequestTrace] = {}
        self.sampled = 0
        self.recorded = 0
        self.dropped = 0

    @property
    def enabled(self) -> bool:
        return self.sample_rate > 0.0

    def sample(self) -> bool:
        """Deterministic-fraction sampling decision for one request."""
        if self.sample_rate <= 0.0:
            return False
        self._acc += self.sample_rate
        if self._acc >= 1.0 - 1e-12:
            self._acc -= 1.0
            self.sampled += 1
            return True
        return False

    def record(self, trace: RequestTrace) -> None:
        if len(self._buffer) >= self.capacity:
            old = self._buffer.popleft()
            self._by_id.pop(old.request_id, None)
            self.dropped += 1
        self._buffer.append(trace)
        self._by_id[trace.request_id] = trace
        self.recorded += 1

    def get(self, request_id: int) -> Optional[RequestTrace]:
        return self._by_id.get(int(request_id))

    def traces(self, limit: Optional[int] = None) -> list:
        """Buffered traces oldest -> newest (up to ``limit`` newest)."""
        out = list(self._buffer)
        if limit is not None:
            out = out[-int(limit):]
        return out

    def summary(self) -> dict:
        return {
            "sample_rate": self.sample_rate,
            "capacity": self.capacity,
            "sampled": self.sampled,
            "recorded": self.recorded,
            "buffered": len(self._buffer),
            "dropped": self.dropped,
        }

    def collect(self, prefix: str = "serve_traces") -> list:
        """Registry-collector series for this tracer's counters.

        Shaped for :meth:`repro.obs.metrics.MetricsRegistry.add_collector`
        so sampling decisions, buffer occupancy, and — critically —
        buffer eviction (``dropped``) are scrapeable/alertable series
        instead of living only in ``stats()["tracing"]``.
        """
        return [
            {"name": "%s_sampled_total" % prefix, "kind": "counter",
             "value": self.sampled},
            {"name": "%s_recorded_total" % prefix, "kind": "counter",
             "value": self.recorded},
            {"name": "%s_dropped_total" % prefix, "kind": "counter",
             "value": self.dropped},
            {"name": "%s_buffered" % prefix, "kind": "gauge",
             "value": len(self._buffer)},
            {"name": "%s_buffer_capacity" % prefix, "kind": "gauge",
             "value": self.capacity},
            {"name": "%s_sample_rate" % prefix, "kind": "gauge",
             "value": self.sample_rate},
        ]

    def export_json(self, limit: Optional[int] = None) -> str:
        doc = {"schema": TRACE_SCHEMA,
               "traces": [t.to_dict() for t in self.traces(limit)]}
        return json.dumps(doc, indent=2)


def to_chrome(traces) -> dict:
    """Chrome ``trace_event`` document (load in chrome://tracing or
    Perfetto).  Each request becomes one track (tid = request id); spans
    become complete ("X") events with microsecond timestamps."""
    events = []
    for trace in traces:
        if not trace.spans:
            continue
        origin = trace.spans[0].start
        for span in trace.spans:
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 1,
                "tid": trace.request_id,
                "cat": trace.transport,
                "args": {"model": trace.model, "n": trace.n,
                         "shard": trace.shard},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
