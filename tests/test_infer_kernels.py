"""Kernel layer: blocked GEMM exactness, the int8-accumulate engine, and
the session/kernel plumbing.

The heart of the file is a pair of hypothesis-style property sweeps
(randomized shapes from a seeded generator, no external dependency):
every autotuned blocked plan must reproduce the monolithic ``np.matmul``
bit-for-bit, and the int8-accumulate engine must match the widened
integer reference exactly while staying within the documented activation
quantization tolerance of the float32 product.
"""

import os
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy import special

from repro.infer import (
    GemmPlan,
    InferenceSession,
    PackedWeight,
    autotune_gemm,
    clear_plan_cache,
    gemm_into,
    resolve_kernel,
    tune_quant_tile,
)
from repro.infer.kernels import (
    EXACT_ACCUM_K,
    MONOLITHIC,
    int8_accumulate_into,
    int8_accumulate_reference,
    pack_panels,
    plan_is_exact,
    quantize_rows_,
)
from repro.infer.benchmark import check_kernel_gates, default_engine_problems
from repro.infer.ops import DEFAULT_MATMUL_MODE, QuantizedLinear, gelu_
from repro.quant import QuantizedSession
from repro.tensor import no_grad, Tensor
from repro.vit import VitalConfig, VitalModel


def _quantize(w: np.ndarray, per_channel: bool = True):
    if per_channel:
        scales = np.abs(w).max(axis=0).astype(np.float32) / np.float32(127.0)
        scales[scales == 0] = np.float32(1.0)
    else:
        amax = float(np.abs(w).max()) or 1.0
        scales = np.float32(amax / 127.0)
    codes = np.clip(np.rint(w / scales), -127, 127).astype(np.int8)
    return codes, np.asarray(scales, dtype=np.float32)


class TestBlockedGemmProperty:
    def test_random_shape_sweep_bit_identical(self):
        """Property sweep: for random (M, K, N) the autotuned plan's
        gemm_into output is bit-identical to np.matmul on fresh data
        (not the tuner's probe operands)."""
        rng = np.random.default_rng(7)
        clear_plan_cache()
        for trial in range(25):
            m = int(rng.integers(1, 400))
            k = int(rng.integers(1, 300))
            n = int(rng.integers(1, 350))
            plan = autotune_gemm(m, k, n, cache=False)
            x = rng.standard_normal((m, k)).astype(np.float32)
            w = rng.standard_normal((k, n)).astype(np.float32)
            panels = pack_panels(w, plan.nb) if plan.nb else None
            out = np.empty((m, n), dtype=np.float32)
            gemm_into(x, w, out, plan, panels)
            np.testing.assert_array_equal(
                out, np.matmul(x, w),
                err_msg=f"trial {trial}: plan {plan!r} diverged at "
                        f"({m}, {k}, {n})",
            )

    def test_explicit_plans_match_when_probe_admits(self):
        """Any plan the exactness probe admits reproduces np.matmul on
        independent data — the probe decides per shape, not per input."""
        rng = np.random.default_rng(11)
        for m, k, n in ((36, 60, 180), (100, 48, 64), (17, 130, 33)):
            x = rng.standard_normal((m, k)).astype(np.float32)
            w = rng.standard_normal((k, n)).astype(np.float32)
            reference = np.matmul(x, w)
            for plan in (GemmPlan(mb=16), GemmPlan(nb=32),
                         GemmPlan(mb=8, nb=64), MONOLITHIC):
                if not plan_is_exact(m, k, n, plan):
                    continue
                out = np.empty_like(reference)
                gemm_into(x, w, out, plan,
                          pack_panels(w, plan.nb) if plan.nb else None)
                np.testing.assert_array_equal(out, reference)

    def test_batched_x_row_blocking(self):
        """gemm_into tiles the leading axis of batched activations."""
        rng = np.random.default_rng(13)
        x = rng.standard_normal((5, 9, 24)).astype(np.float32)
        w = rng.standard_normal((24, 40)).astype(np.float32)
        out = np.empty((5, 9, 40), dtype=np.float32)
        gemm_into(x, w, out, GemmPlan(mb=2, nb=16), pack_panels(w, 16))
        np.testing.assert_allclose(out, x @ w, atol=1e-5)

    def test_plan_validation(self):
        for bad in (0, -4, True, 2.5):
            with pytest.raises(ValueError):
                GemmPlan(mb=bad)
            with pytest.raises(ValueError):
                GemmPlan(nb=bad)

    def test_plan_and_packed_weight_pickle_roundtrip(self):
        plan = GemmPlan(mb=64, nb=128)
        assert pickle.loads(pickle.dumps(plan)) == plan
        w = np.random.default_rng(3).standard_normal((50, 300)).astype(np.float32)
        packed = PackedWeight(w, plan)
        restored = pickle.loads(pickle.dumps(packed))
        assert restored.plan == plan
        x = np.random.default_rng(4).standard_normal((12, 50)).astype(np.float32)
        out_a = np.empty((12, 300), dtype=np.float32)
        out_b = np.empty((12, 300), dtype=np.float32)
        np.testing.assert_array_equal(packed.matmul_into(x, out_a),
                                      restored.matmul_into(x, out_b))


class TestInt8AccumulateProperty:
    def test_matches_integer_reference_random_sweep(self):
        """Property sweep: the float32-BLAS accumulate engine is
        bit-identical to the widened-integer reference matmul, per-channel
        and per-tensor, across random shapes."""
        rng = np.random.default_rng(23)
        for trial in range(20):
            m = int(rng.integers(1, 80))
            k = int(rng.integers(1, 200))
            n = int(rng.integers(1, 150))
            per_channel = bool(trial % 2)
            w = rng.standard_normal((k, n)).astype(np.float32)
            codes, scales = _quantize(w, per_channel)
            x = rng.standard_normal((m, k)).astype(np.float32)
            q = np.empty((m, k), dtype=np.float32)
            row_scales = np.empty((m, 1), dtype=np.float32)
            quantize_rows_(x, q, row_scales)
            tile = int(rng.integers(1, n + 1))
            scratch = np.empty((k, tile), dtype=np.float32)
            out = np.empty((m, n), dtype=np.float32)
            int8_accumulate_into(q, codes, scales, row_scales, out, scratch)
            reference = int8_accumulate_reference(q, codes, scales, row_scales)
            np.testing.assert_array_equal(
                out, reference,
                err_msg=f"trial {trial}: ({m}, {k}, {n}) tile={tile} "
                        f"per_channel={per_channel}",
            )

    @pytest.mark.parametrize("k", (EXACT_ACCUM_K, EXACT_ACCUM_K + 1,
                                   2 * EXACT_ACCUM_K + 37))
    def test_deep_reduction_chunk_boundary_is_exact(self, k):
        """K beyond the float32-exact window switches to chunked float64
        accumulation — still bit-identical to the integer reference."""
        rng = np.random.default_rng(k)
        w = rng.standard_normal((k, 24)).astype(np.float32)
        codes, scales = _quantize(w)
        x = rng.standard_normal((6, k)).astype(np.float32)
        q = np.empty((6, k), dtype=np.float32)
        row_scales = np.empty((6, 1), dtype=np.float32)
        quantize_rows_(x, q, row_scales)
        scratch = np.empty((k, 24), dtype=np.float32)
        out = np.empty((6, 24), dtype=np.float32)
        int8_accumulate_into(q, codes, scales, row_scales, out, scratch)
        np.testing.assert_array_equal(
            out, int8_accumulate_reference(q, codes, scales, row_scales)
        )

    def test_within_documented_tolerance_of_float32(self):
        """Accumulate output vs the float32 product of the *decoded*
        weight: the only additional error is activation rounding, at most
        0.5 * row_scale per element, so the output error is bounded by
        0.5 * row_scale * sum_k |w_decoded|."""
        rng = np.random.default_rng(31)
        for m, k, n in ((36, 60, 180), (8, 500, 40)):
            w = rng.standard_normal((k, n)).astype(np.float32)
            codes, scales = _quantize(w)
            layer = QuantizedLinear(codes, scales, matmul_mode="int8_accumulate")
            x = rng.standard_normal((m, k)).astype(np.float32)
            out = np.empty((m, n), dtype=np.float32)
            layer.matmul_into(x, out)
            decoded = codes.astype(np.float32) * scales
            exact = x @ decoded
            row_scale = np.abs(x).max(axis=1, keepdims=True) / 127.0
            bound = 0.5 * row_scale * np.abs(decoded).sum(axis=0) + 1e-4
            assert (np.abs(out - exact) <= 1.05 * bound).all()

    def test_quantize_rows_reconstructs_zero_rows_exactly(self):
        x = np.zeros((3, 10), dtype=np.float32)
        x[1] = np.linspace(-2, 2, 10, dtype=np.float32)
        q = np.empty_like(x)
        scales = np.empty((3, 1), dtype=np.float32)
        quantize_rows_(x, q, scales)
        assert scales[0, 0] == 0.0 and scales[2, 0] == 0.0
        np.testing.assert_array_equal((q * scales)[0], 0.0)
        assert np.abs(q).max() <= 127


class TestQuantizedLinearEdgeCases:
    def test_empty_codes_both_axes(self):
        for shape in ((0, 5), (5, 0), (0, 0)):
            layer = QuantizedLinear(np.empty(shape, dtype=np.int8),
                                    np.ones(shape[1], dtype=np.float32))
            x = np.ones((3, shape[0]), dtype=np.float32)
            out = np.full((3, shape[1]), np.nan, dtype=np.float32)
            layer.matmul_into(x, out)
            if shape[1]:
                np.testing.assert_array_equal(out, 0.0)  # empty reduction
        accumulate = QuantizedLinear(np.empty((0, 4), dtype=np.int8),
                                     np.ones(4, dtype=np.float32),
                                     matmul_mode="int8_accumulate")
        out = np.full((2, 4), np.nan, dtype=np.float32)
        accumulate.matmul_into(np.ones((2, 0), dtype=np.float32), out)
        np.testing.assert_array_equal(out, 0.0)

    def test_tile_validation_rejects_non_positive_and_non_int(self):
        codes = np.ones((4, 4), dtype=np.int8)
        scales = np.ones(4, dtype=np.float32)
        for bad in (0, -3, True, 2.5):
            with pytest.raises(ValueError, match="tile"):
                QuantizedLinear(codes, scales, tile=bad)

    def test_small_tile_is_respected_not_clamped(self):
        """tile=7 on a 30-column weight must stream 7-wide panels (the
        scratch is exactly 7 wide) and still be numerically right."""
        rng = np.random.default_rng(5)
        w = rng.standard_normal((12, 30)).astype(np.float32)
        codes, scales = _quantize(w)
        layer = QuantizedLinear(codes, scales, tile=7)
        assert layer.tile == 7
        x = rng.standard_normal((4, 12)).astype(np.float32)
        out = np.empty((4, 30), dtype=np.float32)
        layer.matmul_into(x, out)
        assert layer._scratch.shape == (12, 7)
        np.testing.assert_allclose(out, x @ (codes.astype(np.float32) * scales),
                                   rtol=1e-5, atol=1e-5)

    def test_zero_row_activations(self):
        codes, scales = _quantize(
            np.random.default_rng(6).standard_normal((8, 10)).astype(np.float32)
        )
        for mode in ("dequant_tile", "int8_accumulate"):
            layer = QuantizedLinear(codes, scales, matmul_mode=mode)
            out = np.empty((0, 10), dtype=np.float32)
            layer.matmul_into(np.empty((0, 8), dtype=np.float32), out)
            assert out.shape == (0, 10)

    def test_per_tensor_scalar_scales(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((16, 12)).astype(np.float32)
        codes, scale = _quantize(w, per_channel=False)
        x = rng.standard_normal((5, 16)).astype(np.float32)
        decoded = codes.astype(np.float32) * scale
        expected = x @ decoded
        # accumulate adds activation rounding: <= 0.5 * row_scale * sum|w|
        accumulate_atol = float(
            (0.5 * np.abs(x).max() / 127.0) * np.abs(decoded).sum(axis=0).max()
        ) + 1e-4
        for mode, atol in (("dequant_tile", 1e-5),
                           ("int8_accumulate", accumulate_atol)):
            layer = QuantizedLinear(codes, scale, tile=5, matmul_mode=mode)
            out = np.empty((5, 12), dtype=np.float32)
            layer.matmul_into(x, out)
            np.testing.assert_allclose(out, expected, atol=atol)


class TestTunersAndResolution:
    def test_tune_quant_tile_honors_cap_and_bounds(self):
        assert tune_quant_tile(60, 180) == 180  # small weight: full width
        cap = 512 * 1024
        wide = tune_quant_tile(4096, 8192)
        assert 1 <= wide <= 8192 and 4 * 4096 * wide <= cap
        assert tune_quant_tile(10, 0) == 1
        assert tune_quant_tile(0, 7) == 7

    def test_resolve_kernel(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel("auto") == "blocked"
        assert resolve_kernel("naive") == "naive"
        monkeypatch.setenv("REPRO_KERNEL", "naive")
        assert resolve_kernel("auto") == "naive"
        assert resolve_kernel("blocked") == "blocked"  # explicit wins
        with pytest.raises(ValueError):
            resolve_kernel("simd")

    def test_env_forces_naive_and_block_sizes(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "naive")
        assert autotune_gemm(128, 64, 256, cache=False) == MONOLITHIC
        monkeypatch.delenv("REPRO_KERNEL")
        monkeypatch.setenv("REPRO_KERNEL_MB", "32")
        monkeypatch.setenv("REPRO_KERNEL_NB", "64")
        plan = autotune_gemm(128, 64, 256, cache=False)
        assert (plan.mb, plan.nb) == (32, 64) or plan == MONOLITHIC

    def test_degenerate_shapes_get_monolithic(self):
        assert autotune_gemm(0, 10, 10, cache=False) == MONOLITHIC
        assert autotune_gemm(10, 0, 10, cache=False) == MONOLITHIC


def _small_model(seed=0):
    config = VitalConfig(image_size=12, patch_size=3, projection_dim=24,
                         num_heads=4, encoder_blocks=1,
                         encoder_mlp_units=(32, 16), head_units=(32,))
    model = VitalModel(config, image_size=12, channels=3, num_classes=5,
                       rng=np.random.default_rng(seed))
    model.eval()
    return model


class TestSessionKernelPlumbing:
    def test_blocked_matches_naive_and_reference(self):
        model = _small_model()
        rng = np.random.default_rng(42)
        images = rng.standard_normal((6, 12, 12, 3)).astype(np.float32)
        with no_grad():
            reference = model(Tensor(images)).data
        naive = InferenceSession(model, max_batch=4, kernel="naive")
        blocked = InferenceSession(model, max_batch=4, kernel="blocked")
        assert naive.kernel == "naive" and blocked.kernel == "blocked"
        np.testing.assert_allclose(naive.predict_many(images), reference,
                                   atol=1e-5)
        np.testing.assert_allclose(blocked.predict_many(images), reference,
                                   atol=1e-5)

    def test_snapshot_preserves_kernel_and_predictions(self):
        model = _small_model(1)
        session = InferenceSession(model, max_batch=4, kernel="blocked")
        image = np.random.default_rng(9).standard_normal((12, 12, 3)).astype(np.float32)
        restored = InferenceSession.from_snapshot(
            pickle.loads(pickle.dumps(session.snapshot()))
        )
        assert restored.kernel == "blocked"
        assert restored.kernel_plans.keys() == session.kernel_plans.keys()
        np.testing.assert_array_equal(restored.predict(image),
                                      session.predict(image))

    def test_legacy_snapshot_restores_naive(self):
        """Pre-kernel-layer snapshots (no kernel entry) must keep their
        old numerics: the naive path."""
        model = _small_model(2)
        session = InferenceSession(model, max_batch=4, kernel="blocked")
        snapshot = session.snapshot()
        legacy_state = {k: v for k, v in snapshot["state"].items()
                        if k not in ("kernel", "kernel_plans")}
        restored = InferenceSession.from_snapshot(
            {"format": snapshot["format"], "state": legacy_state}
        )
        assert restored.kernel == "naive"
        image = np.random.default_rng(10).standard_normal((12, 12, 3)).astype(np.float32)
        naive = InferenceSession(model, max_batch=4, kernel="naive")
        np.testing.assert_allclose(restored.predict(image),
                                   naive.predict(image), atol=1e-6)

    def test_env_override_selects_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "naive")
        session = InferenceSession(_small_model(3), max_batch=2)
        assert session.kernel == "naive"
        assert session.kernel_plans == {}


class TestGeluKernel:
    @staticmethod
    def _reference(x: np.ndarray) -> np.ndarray:
        x64 = x.astype(np.float64)
        return x64 * 0.5 * (1.0 + special.erf(x64 / np.sqrt(2.0)))

    def test_within_1e6_of_float64_erf(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([
            np.linspace(-12, 12, 100001, dtype=np.float32),
            rng.standard_normal(50000).astype(np.float32),
            (4.0 * rng.standard_normal(50000)).astype(np.float32),
        ])
        expected = self._reference(x)
        got = gelu_(x, np.empty_like(x), np.empty_like(x))
        assert got.dtype == np.float32
        assert np.abs(got.astype(np.float64) - expected).max() <= 1e-6

    def test_in_place_touches_only_given_scratch(self):
        """x is overwritten and returned; the two scratch buffers are the
        only other memory written, and nothing x-sized is allocated."""
        n, gap = 200_000, 64
        rng = np.random.default_rng(1)
        arena = np.full(3 * n + 4 * gap, 7.0, dtype=np.float32)
        x = arena[gap:gap + n]
        tmp = arena[2 * gap + n:2 * gap + 2 * n]
        tmp2 = arena[3 * gap + 2 * n:3 * gap + 3 * n]
        x[:] = 3.0 * rng.standard_normal(n)
        expected = self._reference(x)
        tracemalloc.start()
        try:
            out = gelu_(x, tmp, tmp2)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out is x
        assert np.abs(x - expected).max() <= 1e-6
        guards = np.concatenate([arena[:gap], arena[gap + n:2 * gap + n],
                                 arena[2 * gap + 2 * n:3 * gap + 2 * n],
                                 arena[3 * gap + 3 * n:]])
        assert (guards == 7.0).all()
        assert peak < x.nbytes // 8


def _engine_record(dequant_tile_ms: float, accumulate_ms: float,
                   smoke: bool = False) -> dict:
    return {"quantization": {
        "config": {"smoke": smoke},
        "engine": {"latency": {
            "per_channel_int8_p50_ms": dequant_tile_ms,
            "per_channel_int8_accumulate_p50_ms": accumulate_ms,
        }},
    }}


class TestDefaultEngineGate:
    def test_auto_resolves_to_gated_default(self):
        session = QuantizedSession(InferenceSession(_small_model(6), max_batch=2),
                                   mode="int8")
        assert session.matmul == DEFAULT_MATMUL_MODE == "dequant_tile"

    def test_fails_when_default_engine_records_slower(self):
        problems = check_kernel_gates(_engine_record(0.51, 0.33))
        assert len(problems) == 1
        assert "dequant_tile" in problems[0] and "int8_accumulate" in problems[0]

    def test_passes_when_default_wins_or_record_lacks_lanes(self):
        assert check_kernel_gates(_engine_record(0.33, 0.51)) == []
        assert default_engine_problems(_engine_record(0.51, 0.33, smoke=True)) == []
        assert default_engine_problems({}) == []

    def test_committed_record_passes(self):
        from repro.infer.benchmark import load_baseline
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        record = load_baseline(os.path.join(root, "BENCH_inference.json"))
        assert default_engine_problems(record) == []
