"""Inference throughput benchmark: fused engine vs. the autograd tape.

Measures three serving lanes on the same model and inputs:

* ``tape``    — ``model(Tensor(x))`` with gradients recording, i.e. what a
  naive deployment of the training code pays per prediction;
* ``no_grad`` — the module forward inside ``no_grad()`` (the substrate's
  closure-free fast path, still allocating per op);
* ``fused``   — :class:`repro.infer.InferenceSession`.

The result is the ``inference`` section of ``BENCH_inference.json`` (see
:mod:`repro.bench`, which owns the file, its schema and the recorded
gates), so every future PR has a recorded trajectory to regress against::

    {
      "config": {model geometry, iteration counts, seed, threads},
      "single_sample": {
        "tape"|"no_grad"|"fused": {"p50_ms", "p99_ms", "mean_ms"},
        "speedup_fused_vs_tape": float,   # recorded floor: >= 3.0
        "speedup_fused_vs_no_grad": float
      },
      "batch": {"batch_size", per-lane samples_per_s, "speedup_fused_vs_tape"},
      "equivalence": {"max_abs_diff", "argmax_match"},
      "kernels": {...}   # int8-resident GEMM stack vs the frozen PR-3
                         # baseline (kernel_microbench)
    }

The same file carries the ``quantization`` section
(:mod:`repro.quant.benchmark`).  Records written before the engine was
collapsed onto one path also carry per-shape GEMM plans, a
blocked-vs-naive fused A/B and bit-exactness flags under ``kernels``;
nothing reads them any more.
"""
from __future__ import annotations

import os
import time

import numpy as np

from repro.infer.ops import QuantizedLinear
from repro.infer.session import InferenceSession
from repro.tensor import Tensor, no_grad
from repro.vit.config import VitalConfig
from repro.vit.model import VitalModel

DEFAULT_OUTPUT = "BENCH_inference.json"

#: Minimum speedup of the tuned int8-resident GEMM stack over the PR-3
#: dequant-tile baseline configuration, gated by ``infer-bench --check``
#: on full (non-quick) records.
INT8_SPEEDUP_FLOOR = 1.5

#: Environment knobs that size the BLAS/OpenMP thread pool; recorded in
#: the bench ``config`` block so a record states the thread configuration
#: it was measured under.  Never part of the comparability gate — thread
#: counts change timings, not what the benchmark measures.
_THREAD_ENV_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def thread_config() -> dict:
    """The BLAS/OpenMP thread-pinning environment as currently set
    (``None`` for unset knobs), for the bench ``config`` block."""
    return {key: os.environ.get(key) for key in _THREAD_ENV_KEYS}


def _percentiles(samples_ms: list[float]) -> dict[str, float]:
    arr = np.asarray(samples_ms)
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p99_ms": float(np.percentile(arr, 99)),
        "mean_ms": float(arr.mean()),
    }


def _time_repeated(fn, iterations: int, warmup: int = 3) -> list[float]:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(iterations):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


def _time_lanes_us(lanes: dict, iterations: int, rounds: int = 3) -> dict:
    """Per-lane median microseconds, lanes *interleaved* call-by-call and
    the per-round median minimized across ``rounds``.

    Sequential per-lane loops let clock drift (frequency scaling, a noisy
    neighbor) land entirely on one lane and fake a 1.3x either way on a
    one-core host; interleaving gives every lane the same slice of every
    host condition, and min-of-rounds drops rounds that were globally
    disturbed.  Measured A/B ratios stabilize from ±20% to a few percent.
    """
    best = {name: float("inf") for name in lanes}
    for _ in range(rounds):
        samples: dict[str, list[float]] = {name: [] for name in lanes}
        for fn in lanes.values():
            fn()
        for _ in range(iterations):
            for name, fn in lanes.items():
                start = time.perf_counter()
                fn()
                samples[name].append((time.perf_counter() - start) * 1e6)
        for name in lanes:
            best[name] = min(best[name], float(np.median(samples[name])))
    return best


def _pr3_dequant_reference(codes: np.ndarray, scales: np.ndarray,
                           tile: int = 64):
    """The PR-3 int8-resident matmul, frozen for A/B benchmarking.

    Decode-*multiplies* ``tile`` output columns into a float32 scratch
    per call and matmuls the batched 3-D activations per tile — exactly
    the algorithm :class:`QuantizedLinear` shipped before the kernel
    layer (which now casts the panel and scales the output block
    instead).  Kept verbatim here so the recorded ``int8_resident``
    baseline measures the real predecessor, not a degraded stand-in.
    """
    n_in, n_out = codes.shape
    width = min(tile, n_out)
    scratch = np.empty((n_in, width), dtype=np.float32)
    per_channel = scales.ndim == 1

    def matmul_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        for begin in range(0, n_out, width):
            end = min(begin + width, n_out)
            w = scratch[:, : end - begin]
            scale = scales[begin:end] if per_channel else scales
            np.multiply(codes[:, begin:end], scale, out=w)
            np.matmul(x, w, out=out[..., begin:end])
        return out

    return matmul_into


def _quantize_weight(weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel int8 codes + scales for a ``(K, N)`` float32 weight."""
    scales = np.abs(weight).max(axis=0).astype(np.float32) / np.float32(127.0)
    scales[scales == 0] = np.float32(1.0)
    codes = np.clip(np.rint(weight / scales), -127, 127).astype(np.int8)
    return codes, scales


#: PR-3 fixed decode-tile width — the int8-resident baseline configuration.
_BASELINE_QUANT_TILE = 64


def kernel_microbench(session: InferenceSession, *, iters: int = 300,
                      seed: int = 0, quick: bool = False) -> dict:
    """Int8-resident GEMM micro-benchmark → the ``kernels`` section.

    Every encoder GEMM site of ``session`` (the non-head sites of
    :meth:`InferenceSession.gemm_sites`, at the single-sample folded
    shape) is served int8-resident in two configurations: the PR-3
    baseline (the frozen :func:`_pr3_dequant_reference` — 64-column
    decode-multiply tile loop over batched 3-D activations, exactly the
    predecessor's algorithm) and :class:`QuantizedLinear` as the engine
    runs it (cache-budgeted panel, cast + scale-after-matmul, activations
    folded 2-D).  Lanes are timed interleaved with min-of-rounds medians
    (see :func:`_time_lanes_us`).  The headline ``speedup`` is measured
    on the *hot site* — the largest quantized GEMM (packed QKV), where
    the serving cycles concentrate — as baseline over tuned time; the
    whole-stack ratio is recorded alongside as ``stack_speedup`` (small
    ``N <= tile`` sites have no panel to widen, so the stack ratio is
    structurally lower).  The ``--check`` gate requires ``speedup`` >=
    :data:`INT8_SPEEDUP_FLOOR` on full records.
    """
    rounds = 2 if quick else 3
    if quick:
        iters = min(iters, 30)
    rng = np.random.default_rng(seed)
    sites = [site for site in session.gemm_sites() if site["m"] is not None]

    rows = []
    totals = {"baseline": 0.0, "tuned": 0.0}
    hot = None
    for site in sites:
        m, k, n = site["m"], site["k"], site["n"]
        w = rng.standard_normal((k, n)).astype(np.float32)
        codes, scales = _quantize_weight(w)
        tuned = QuantizedLinear(codes, scales)
        baseline = _pr3_dequant_reference(codes, scales,
                                          tile=_BASELINE_QUANT_TILE)
        x2 = rng.standard_normal((m, k)).astype(np.float32)
        # the PR-3 engine sees batched 3-D activations; the fused engine
        # folds them to 2-D rows before the call
        x3 = np.ascontiguousarray(x2.reshape(1, m, k))
        o2 = np.empty((m, n), np.float32)
        o3 = np.empty((1, m, n), np.float32)
        timed = _time_lanes_us({
            "baseline": lambda: baseline(x3, o3),
            "tuned": lambda: tuned.matmul_into(x2, o2),
        }, iters, rounds=rounds)
        row = {"site": site["site"], "m": m, "k": k, "n": n,
               "baseline_tile": _BASELINE_QUANT_TILE, "tuned_tile": tuned.tile,
               **{f"{lane}_us": lane_us for lane, lane_us in timed.items()}}
        for lane, lane_us in timed.items():
            totals[lane] += lane_us
        rows.append(row)
        if hot is None or k * n > hot["k"] * hot["n"]:
            hot = row

    int8_resident = {
        "sites": rows,
        "hot_site": hot["site"],
        "hot_shape": [hot["m"], hot["k"], hot["n"]],
        "hot_baseline_rows_per_s": hot["m"] * 1e6 / hot["baseline_us"],
        "hot_tuned_rows_per_s": hot["m"] * 1e6 / hot["tuned_us"],
        "speedup": hot["baseline_us"] / hot["tuned_us"],
        "stack_baseline_us": totals["baseline"],
        "stack_tuned_us": totals["tuned"],
        "stack_speedup": totals["baseline"] / totals["tuned"],
        "baseline_config": "PR-3 reference: 64-column decode-multiply tile "
                           "loop, batched 3-D activations",
        "tuned_config": "fused engine: cache-budgeted panel, cast + "
                        "scale-after-matmul, activations folded 2-D",
    }
    return {"int8_resident": int8_resident, "iters": iters}


def run_inference_benchmark(
    image_size: int = 24,
    num_classes: int = 32,
    max_batch: int = 32,
    single_iters: int = 100,
    batch_samples: int = 256,
    seed: int = 0,
    quick: bool = False,
    config: VitalConfig | None = None,
) -> dict:
    """Benchmark the three serving lanes; returns the result record.

    ``quick=True`` shrinks iteration counts so the benchmark runs in
    seconds (CI smoke mode) while keeping the full measurement shape.
    """
    if quick:
        single_iters = min(single_iters, 10)
        batch_samples = min(batch_samples, 2 * max_batch)

    config = config or VitalConfig.fast(image_size)
    rng = np.random.default_rng(seed)
    model = VitalModel(
        config,
        image_size=image_size,
        channels=3,
        num_classes=num_classes,
        rng=rng,
    )
    session = InferenceSession(model, max_batch=max_batch)

    single = rng.standard_normal((1, image_size, image_size, 3)).astype(np.float32)
    batch = rng.standard_normal((batch_samples, image_size, image_size, 3)).astype(np.float32)

    # --- numerical equivalence gate before timing anything
    model.eval()
    with no_grad():
        reference = model(Tensor(batch)).data
    fused = session.predict_many(batch)
    max_abs_diff = float(np.abs(reference - fused).max())
    argmax_match = bool((reference.argmax(axis=1) == fused.argmax(axis=1)).all())

    # --- single-sample latency.  The tape lane is an eval-mode forward with
    # gradients recording — closures, parent references and all — i.e. what
    # serving costs when the training code path is reused verbatim.
    model.eval()

    def tape_one():
        model(Tensor(single))

    def no_grad_one():
        with no_grad():
            model(Tensor(single))

    def fused_one():
        session.predict(single)

    lanes = {
        "tape": _time_repeated(tape_one, single_iters),
        "no_grad": _time_repeated(no_grad_one, single_iters),
        "fused": _time_repeated(fused_one, single_iters),
    }
    single_sample = {name: _percentiles(samples) for name, samples in lanes.items()}
    single_sample["speedup_fused_vs_tape"] = (
        single_sample["tape"]["p50_ms"] / single_sample["fused"]["p50_ms"]
    )
    single_sample["speedup_fused_vs_no_grad"] = (
        single_sample["no_grad"]["p50_ms"] / single_sample["fused"]["p50_ms"]
    )

    # --- batch throughput
    batch_iters = 3 if quick else 10

    def tape_batch():
        for begin in range(0, len(batch), max_batch):
            model(Tensor(batch[begin : begin + max_batch]))

    def fused_batch():
        session.predict_many(batch)

    tape_s = np.median(_time_repeated(tape_batch, batch_iters, warmup=1)) / 1e3
    fused_s = np.median(_time_repeated(fused_batch, batch_iters, warmup=1)) / 1e3

    result = {
        "config": {
            "image_size": image_size,
            "patch_size": model.patch_size,
            "num_patches": model.num_patches,
            "projection_dim": config.projection_dim,
            "num_heads": config.num_heads,
            "encoder_blocks": config.encoder_blocks,
            "num_classes": num_classes,
            "parameters": model.num_parameters(),
            "max_batch": max_batch,
            "single_iters": single_iters,
            "batch_samples": batch_samples,
            "seed": seed,
            "quick": quick,
            "threads": thread_config(),
        },
        "single_sample": single_sample,
        "batch": {
            "batch_size": max_batch,
            "tape_samples_per_s": float(len(batch) / tape_s),
            "fused_samples_per_s": float(len(batch) / fused_s),
            "speedup_fused_vs_tape": float(tape_s / fused_s),
        },
        "equivalence": {
            "max_abs_diff": max_abs_diff,
            "argmax_match": argmax_match,
        },
        "kernels": kernel_microbench(session, seed=seed, quick=quick),
    }
    return result


#: Default allowed relative worsening of fused p50 latency before
#: ``infer-bench --check`` fails (the ROADMAP perf-regression gate).
REGRESSION_THRESHOLD = 0.25


#: Config keys that must match for a latency comparison to mean anything:
#: the model geometry, plus ``quick`` so a 10-iteration smoke run is never
#: judged against a full-length baseline (or vice versa).
_COMPARABLE_KEYS = ("image_size", "patch_size", "num_patches",
                    "projection_dim", "num_heads", "encoder_blocks",
                    "num_classes", "max_batch", "quick")


def _incomparability(result: dict, baseline: dict) -> str | None:
    """Why ``baseline`` cannot gate ``result``, or ``None`` if it can.

    Shared by :func:`check_regression` (which turns it into a failure)
    and :func:`format_check` (which turns it into the actionable hint),
    so the two can never disagree about which branch a run is on.
    """
    result_config = result.get("config", {})
    baseline_config = baseline.get("config", {})
    mismatched = [
        f"{key} {result_config.get(key)!r} != baseline {baseline_config.get(key)!r}"
        for key in _COMPARABLE_KEYS
        if result_config.get(key) != baseline_config.get(key)
    ]
    if mismatched:
        return "config not comparable to the baseline: " + "; ".join(mismatched)
    if "fused" not in baseline.get("single_sample", {}):
        return "baseline record has no fused single-sample lane to compare against"
    return None


def check_regression(
    result: dict,
    baseline: dict,
    threshold: float = REGRESSION_THRESHOLD,
) -> list[str]:
    """Compare a fresh benchmark run against the recorded baseline.

    Returns a list of human-readable failure strings — empty means the
    gate passes.  The gate is on the *fused* lane only (the served path):
    single-sample p50 latency may not worsen by more than ``threshold``
    (relative), and the numerical-equivalence invariants must still hold.
    The tape/no_grad lanes are informational and never gate.  Runs over a
    different model geometry than the baseline are refused — comparing
    them would let a real regression hide behind a smaller model.

    Fresh results additionally gate their own equivalence and ``kernels``
    sections (:func:`check_equivalence`, :func:`check_kernel_gates`).
    """
    problems: list[str] = []
    incomparable = _incomparability(result, baseline)
    if incomparable:
        return [incomparable]
    old_p50 = baseline["single_sample"]["fused"]["p50_ms"]
    new_p50 = result["single_sample"]["fused"]["p50_ms"]
    limit = old_p50 * (1.0 + threshold)
    if new_p50 > limit:
        problems.append(
            f"fused single-sample p50 regressed: {new_p50:.3f} ms vs baseline "
            f"{old_p50:.3f} ms (> +{threshold:.0%} limit {limit:.3f} ms)"
        )
    problems.extend(check_equivalence(result))
    problems.extend(check_kernel_gates(result))
    return problems


def check_equivalence(result: dict) -> list[str]:
    """The fused engine must reproduce the reference forward: same argmax
    and max|Δlogit| below 1e-5 (empty list = pass)."""
    problems = []
    if not result["equivalence"]["argmax_match"]:
        problems.append("fused argmax no longer matches the reference forward")
    if result["equivalence"]["max_abs_diff"] >= 1e-5:
        problems.append(
            f"fused max|Δlogit| {result['equivalence']['max_abs_diff']:.2e} >= 1e-5"
        )
    return problems


def check_kernel_gates(result: dict) -> list[str]:
    """Gate a record's own ``kernels`` section (empty list = pass).

    Shared by ``infer-bench --check`` and the recorded ``inference``
    gates of :mod:`repro.bench` (which never re-time anything).  Full
    (non-quick) records must keep the int8-resident hot-GEMM speedup at
    least :data:`INT8_SPEEDUP_FLOOR` over the PR-3 reference.  Quick runs
    pass — 30-iteration medians under CI noise would gate nothing real —
    and so do results without ``kernels`` (the recorded section always
    owns one; :mod:`repro.bench` reports it missing).
    """
    if result.get("config", {}).get("quick"):
        return []
    speedup = (result.get("kernels") or {}).get("int8_resident", {}).get("speedup")
    if speedup is not None and speedup < INT8_SPEEDUP_FLOOR:
        return [
            f"int8-resident hot-GEMM speedup {speedup:.2f}x < "
            f"{INT8_SPEEDUP_FLOOR}x floor vs the PR-3 dequant-tile baseline"
        ]
    return []


def baseline_hint(result: dict, path: str = DEFAULT_OUTPUT) -> str:
    """Actionable advice when the recorded baseline is not comparable.

    Printed by ``infer-bench --check`` instead of a bare failure: either
    re-run with the baseline's geometry flags, or re-record the baseline
    at the new configuration.
    """
    config = result.get("config", {})
    flags = (
        f"--image-size {config.get('image_size')} "
        f"--num-classes {config.get('num_classes')} "
        f"--max-batch {config.get('max_batch')}"
        + (" --quick" if config.get("quick") else "")
    )
    return (
        f"hint: {path} has no baseline comparable to this run's "
        "configuration.  Either re-run --check with the geometry flags the "
        "baseline was recorded at (see its `config` section), or record a "
        "fresh baseline for this configuration first:\n"
        f"  python -m repro.cli infer-bench {flags} --out {path}\n"
        "and then re-run with --check."
    )


def format_check(
    result: dict,
    baseline: dict,
    problems: list[str],
    threshold: float = REGRESSION_THRESHOLD,
    path: str = DEFAULT_OUTPUT,
) -> str:
    """Human-readable report of a --check comparison."""
    lines = ["perf regression gate (fused lane vs recorded baseline):"]
    if _incomparability(result, baseline) is not None:
        lines.extend(f"  FAIL: {problem}" for problem in problems)
        lines.append("  " + baseline_hint(result, path).replace("\n", "\n  "))
        return "\n".join(lines)
    old_p50 = baseline["single_sample"]["fused"]["p50_ms"]
    new_p50 = result["single_sample"]["fused"]["p50_ms"]
    delta = (new_p50 - old_p50) / old_p50
    lines.append(
        f"  fused p50: {new_p50:.3f} ms vs baseline {old_p50:.3f} ms "
        f"({delta:+.1%}, limit +{threshold:.0%})"
    )
    if problems:
        lines.append("  FAIL:")
        lines.extend(f"    - {problem}" for problem in problems)
    else:
        lines.append("  PASS")
    return "\n".join(lines)


def format_summary(result: dict) -> str:
    """Human-readable summary of a benchmark record."""
    single = result["single_sample"]
    batch = result["batch"]
    eq = result["equivalence"]
    lines = [
        "inference throughput benchmark "
        f"(image={result['config']['image_size']}, "
        f"params={result['config']['parameters']:,})",
        f"  single-sample p50:  tape {single['tape']['p50_ms']:.2f} ms | "
        f"no_grad {single['no_grad']['p50_ms']:.2f} ms | "
        f"fused {single['fused']['p50_ms']:.2f} ms",
        f"  fused speedup:      {single['speedup_fused_vs_tape']:.1f}x vs tape, "
        f"{single['speedup_fused_vs_no_grad']:.1f}x vs no_grad",
        f"  batch throughput:   tape {batch['tape_samples_per_s']:.0f}/s | "
        f"fused {batch['fused_samples_per_s']:.0f}/s "
        f"({batch['speedup_fused_vs_tape']:.1f}x)",
        f"  equivalence:        max|Δlogit| = {eq['max_abs_diff']:.2e}, "
        f"argmax match = {eq['argmax_match']}",
    ]
    kernels = result.get("kernels")
    if kernels:
        lines.append(format_kernel_summary(kernels))
    return "\n".join(lines)


def format_kernel_summary(kernels: dict) -> str:
    """Human-readable summary of a ``kernels`` section."""
    int8 = kernels["int8_resident"]
    hot_m, hot_k, hot_n = int8["hot_shape"]
    return "\n".join([
        "  int8-resident GEMMs vs the PR-3 baseline:",
        f"    hot GEMM ({int8['hot_site']} {hot_m}x{hot_k}x{hot_n}): "
        f"{int8['hot_baseline_rows_per_s']:.0f} -> "
        f"{int8['hot_tuned_rows_per_s']:.0f} rows/s "
        f"({int8['speedup']:.2f}x, floor {INT8_SPEEDUP_FLOOR}x)",
        f"    stack: baseline {int8['stack_baseline_us']:.0f} us | "
        f"tuned {int8['stack_tuned_us']:.0f} us "
        f"({int8['stack_speedup']:.2f}x)",
    ])
