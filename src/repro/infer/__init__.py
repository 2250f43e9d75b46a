"""Tape-free fused inference engine for the VITAL reproduction.

Training runs on the :mod:`repro.tensor` autograd tape; serving must not.
This package compiles trained models into pure-NumPy programs over flat
contiguous float32 weights:

* :class:`InferenceSession` — the dedicated ViT engine: packed Q/K/V
  matmul, LayerNorm affine folding, cached patch gather grid, preallocated
  scratch buffers, micro-batched ``predict_many``, all run as one
  compiled call plan per batch size.  Every dense site is one GEMM over
  token panels folded to 2-D; int8-resident weights
  (:class:`QuantizedLinear`) cast cache-sized panels
  (:func:`tune_quant_tile`) into one panel the session owns.
* :func:`compile_module` / :func:`compile_chain` — a generic compiler for
  sequential dense stacks (the neural baselines).
* :func:`run_inference_benchmark` — the latency/throughput benchmark
  recorded as the ``inference`` section of ``BENCH_inference.json``
  (CLI: ``repro infer-bench``).
"""

from repro.infer.benchmark import (
    REGRESSION_THRESHOLD,
    check_regression,
    format_check,
    format_summary,
    run_inference_benchmark,
)
from repro.infer.compile import (
    AddConstant,
    CompiledModule,
    Residual,
    TokenMeanPool,
    UnsupportedModuleError,
    compile_chain,
    compile_module,
)
from repro.infer.ops import QuantizedLinear, tune_quant_tile
from repro.infer.session import (
    SNAPSHOT_FORMAT,
    InferenceSession,
    restore_session,
    snapshot_info,
)

__all__ = [
    "InferenceSession",
    "SNAPSHOT_FORMAT",
    "restore_session",
    "snapshot_info",
    "QuantizedLinear",
    "tune_quant_tile",
    "CompiledModule",
    "UnsupportedModuleError",
    "compile_chain",
    "compile_module",
    "Residual",
    "AddConstant",
    "TokenMeanPool",
    "run_inference_benchmark",
    "format_summary",
    "check_regression",
    "format_check",
    "REGRESSION_THRESHOLD",
]
