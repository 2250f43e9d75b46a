"""Calibrated int8 quantization for the VITAL serving stack.

The paper's deployment argument — localization models must run on
"memory-constrained and computationally limited embedded and IoT
platforms" — needs more than an int8 state dict: the quantized weights
must *execute* and *ship*.  This package closes the gap between
:mod:`repro.nn.quantization` (codes + scales) and the serving layer:

* :func:`calibrate_session` — run representative fingerprint images
  through the compiled float32 engine, recording per-site activation
  peaks (:class:`Calibration`, embedded in every quantized snapshot);
* :class:`QuantizedSession` — the fused ViT engine on int8 weights, with
  per-channel (default) or per-tensor scales and two execution modes:
  ``dequant`` (decode once at build, zero steady-state overhead) and
  ``int8`` (int8-resident weights, tile-wise decode inside the packed
  matmuls, ~4x smaller resident footprint);
* quantized ``snapshot()`` / ``from_snapshot()`` — the int8 wire format
  (:data:`QUANT_SNAPSHOT_FORMAT`) that seeds
  :class:`repro.serve.LocalizationServer` workers with ~4x fewer pickled
  bytes than float32 snapshots;
* :func:`run_quantization_benchmark` — the accuracy / latency / footprint
  trade-off recorded as the ``quantization`` section of
  ``BENCH_inference.json`` (``python -m repro.bench run quantization``).
"""

from repro.quant.benchmark import (
    format_quantization_summary,
    run_quantization_benchmark,
)
from repro.quant.calibrate import Calibration, calibrate_session
from repro.quant.session import (
    MODES,
    QUANT_SNAPSHOT_FORMAT,
    SCHEMES,
    QuantizedSession,
    quantize_session,
)

__all__ = [
    "Calibration",
    "calibrate_session",
    "QuantizedSession",
    "quantize_session",
    "QUANT_SNAPSHOT_FORMAT",
    "SCHEMES",
    "MODES",
    "run_quantization_benchmark",
    "format_quantization_summary",
]
