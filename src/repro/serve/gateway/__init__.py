"""The network front door for the serving stack.

``repro.serve`` and ``repro.fleet`` answer in-process ``submit()`` calls;
real deployments face *devices* — phones POSTing RSSI fingerprint vectors
over Wi-Fi (the snippet-3 ``Fingerprinter`` loop).  This package puts a
selectors-based TCP/HTTP gateway (standard library plus numpy, and orjson
to parse request bodies) in front of a running
:class:`~repro.serve.LocalizationServer` or
:class:`~repro.fleet.FleetServer`:

* :mod:`~repro.serve.gateway.protocol` — length-prefixed JSON frames, an
  incremental decoder hardened against truncation/oversize/garbage/deep
  nesting, the orjson request parser, and the structured wire-error
  vocabulary.
* :mod:`~repro.serve.gateway.server` — the event-loop
  :class:`GatewayServer`: pipelining with out-of-order completion,
  per-connection backpressure windows, slow-reader shedding, idle/request
  timeouts, graceful zero-loss drain, plus HTTP/1.1 ``POST /localize``
  interop on the same port.
* :mod:`~repro.serve.gateway.cache` — the
  :class:`QuantizedResultCache`: RSSI values bucketed to a configurable
  dB step collapse co-located users' fingerprints onto shared cache keys,
  so repeats are answered without touching inference; entries are keyed
  by model route and invalidated on fleet swap/canary events.
* :mod:`~repro.serve.gateway.client` — :class:`GatewayClient` (pipelined
  framed-JSON) and :func:`http_localize` (one-shot HTTP).
* :mod:`~repro.serve.gateway.bench` — the closed-loop *network* load
  generator: connection-scaling curves, the co-location/cache-hit sweep,
  and the graceful-drain drill, recorded as the ``gateway`` section of
  ``BENCH_serving.json`` (see :mod:`repro.bench`).
"""

from repro.serve.gateway.cache import QuantizedResultCache
from repro.serve.gateway.client import GatewayClient, GatewayError, http_localize
from repro.serve.gateway.protocol import (
    FrameDecoder,
    MAX_PAYLOAD_BYTES,
    encode_frame,
    error_response,
    parse_request,
)
from repro.serve.gateway.server import GatewayServer

__all__ = [
    "GatewayServer",
    "GatewayClient",
    "GatewayError",
    "QuantizedResultCache",
    "FrameDecoder",
    "MAX_PAYLOAD_BYTES",
    "encode_frame",
    "error_response",
    "parse_request",
    "http_localize",
]
