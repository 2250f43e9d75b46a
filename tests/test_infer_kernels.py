"""Kernel layer of the fused engine: the int8-resident
:class:`QuantizedLinear`, its panel-width tuner, the float32 GELU, the
kernel-record gate, and restores of snapshots recorded before the engine
was collapsed onto one path (``tests/data/legacy_snapshots.pkl.gz``).
"""

import gzip
import os
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy import special

from repro.infer import InferenceSession, restore_session, tune_quant_tile
from repro.infer.benchmark import INT8_SPEEDUP_FLOOR, check_kernel_gates
from repro.infer.ops import QuantizedLinear, gelu_
from repro.quant import QuantizedSession
from repro.tensor import no_grad, Tensor
from repro.vit import VitalConfig, VitalModel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quantize(w: np.ndarray, per_channel: bool = True):
    if per_channel:
        scales = np.abs(w).max(axis=0).astype(np.float32) / np.float32(127.0)
        scales[scales == 0] = np.float32(1.0)
    else:
        amax = float(np.abs(w).max()) or 1.0
        scales = np.float32(amax / 127.0)
    codes = np.clip(np.rint(w / scales), -127, 127).astype(np.int8)
    return codes, np.asarray(scales, dtype=np.float32)


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

    def test_wide_weight_streams_multiple_panels(self):
        """A (1024, 300) weight exceeds the 512 KiB panel cap at full
        width, so the matmul streams >= 2 cast panels and must still
        equal ``x @ decoded`` to 1e-5 of the output scale (float32
        summation over K=1024 rounds at that level)."""
        rng = np.random.default_rng(5)
        w = rng.standard_normal((1024, 300)).astype(np.float32)
        codes, scales = _quantize(w)
        layer = QuantizedLinear(codes, scales)
        assert layer.tile == tune_quant_tile(1024, 300) < 300 / 2
        x = rng.standard_normal((6, 1024)).astype(np.float32)
        out = np.empty((6, 300), dtype=np.float32)
        layer.matmul_into(x, out)
        assert layer._scratch.shape == (1024, layer.tile)
        expected = x.astype(np.float64) @ (codes.astype(np.float64) * scales)
        np.testing.assert_allclose(out, expected, rtol=1e-5,
                                   atol=1e-5 * np.abs(expected).max())

    def test_zero_row_activations(self):
        codes, scales = _quantize(
            np.random.default_rng(6).standard_normal((8, 10)).astype(np.float32)
        )
        layer = QuantizedLinear(codes, scales)
        out = np.empty((0, 10), dtype=np.float32)
        layer.matmul_into(np.empty((0, 8), dtype=np.float32), out)
        assert out.shape == (0, 10)

    def test_per_tensor_scalar_scales(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((16, 12)).astype(np.float32)
        codes, scale = _quantize(w, per_channel=False)
        x = rng.standard_normal((5, 16)).astype(np.float32)
        expected = x @ (codes.astype(np.float32) * scale)
        out = np.empty((5, 12), dtype=np.float32)
        QuantizedLinear(codes, scale).matmul_into(x, out)
        np.testing.assert_allclose(out, expected, atol=1e-5)


class TestTunersAndResolution:
    def test_tune_quant_tile_honors_cap_and_bounds(self):
        assert tune_quant_tile(60, 180) == 180  # small weight: full width
        cap = 512 * 1024
        wide = tune_quant_tile(4096, 8192)
        assert 1 <= wide <= 8192 and 4 * 4096 * wide <= cap
        assert tune_quant_tile(10, 0) == 1
        assert tune_quant_tile(0, 7) == 7


def _small_model(seed=0):
    config = VitalConfig(image_size=12, patch_size=3, projection_dim=24,
                         num_heads=4, encoder_blocks=1,
                         encoder_mlp_units=(32, 16), head_units=(32,))
    model = VitalModel(config, image_size=12, channels=3, num_classes=5,
                       rng=np.random.default_rng(seed))
    model.eval()
    return model


def _legacy():
    """Snapshots pickled by the multi-engine code (see tests/data/README.md)."""
    path = os.path.join(ROOT, "tests", "data", "legacy_snapshots.pkl.gz")
    with gzip.open(path, "rb") as handle:
        return pickle.load(handle)


def _restore(case: dict):
    return restore_session(pickle.loads(case["snapshot"]))


class TestSessionKernelPlumbing:
    def test_blocked_matches_naive_and_reference(self):
        """Snapshots recorded under both retired kernels restore onto the
        one engine and match the model's reference forward."""
        legacy = _legacy()
        images = legacy["inputs"]
        with no_grad():
            reference = _small_model(legacy["model_seed"])(Tensor(images)).data
        blocked = _restore(legacy["cases"]["float_blocked"]).predict_many(images)
        naive = _restore(legacy["cases"]["float_naive"]).predict_many(images)
        np.testing.assert_allclose(blocked, reference, atol=1e-5)
        np.testing.assert_allclose(naive, reference, atol=1e-5)

    def test_legacy_snapshot_restores_naive(self):
        """Snapshots that ran the retired naive kernel (by choice, or for
        lack of a kernel entry) keep their recorded logits within 1e-5."""
        legacy = _legacy()
        for name in ("float_naive", "float_no_kernel"):
            case = legacy["cases"][name]
            np.testing.assert_allclose(
                _restore(case).predict_many(legacy["inputs"]), case["logits"],
                atol=1e-5, err_msg=name)


class TestLegacySnapshots:
    @pytest.mark.parametrize("name", ["float_blocked", "float_blocked_mb16",
                                      "int8_no_matmul"])
    def test_restores_to_recorded_logits(self, name):
        """Blocked-kernel snapshots (including one whose plans were forced
        non-monolithic) and the int8 default restore bit-identically."""
        legacy = _legacy()
        case = legacy["cases"][name]
        np.testing.assert_array_equal(
            _restore(case).predict_many(legacy["inputs"]), case["logits"])

    def test_int8_accumulate_restores_onto_dequant_tile(self):
        """The retired engine quantized activations too; its snapshots
        now run the one int8 engine.  Measured against the recorded
        logits: max |Δlogit| 1.12e-2, argmax agreement 1.0 (32 inputs)."""
        legacy = _legacy()
        case = legacy["cases"]["int8_accumulate"]
        session = _restore(case)
        assert isinstance(session, QuantizedSession) and session.mode == "int8"
        logits = session.predict_many(legacy["inputs"])
        assert np.abs(logits - case["logits"]).max() <= 1.2e-2
        assert (logits.argmax(1) == case["logits"].argmax(1)).all()
        dequant_tile = _restore(legacy["cases"]["int8_no_matmul"])
        np.testing.assert_array_equal(
            logits, dequant_tile.predict_many(legacy["inputs"]))

    def test_fresh_sessions_match_recorded_default_path(self):
        """A fresh float32 session and a fresh int8-resident session are
        bit-identical to what the multi-engine code's defaults served."""
        legacy = _legacy()
        images, cases = legacy["inputs"], legacy["cases"]
        session = InferenceSession(_small_model(legacy["model_seed"]),
                                   max_batch=legacy["max_batch"])
        np.testing.assert_array_equal(session.predict_many(images),
                                      cases["float_blocked"]["logits"])
        quantized = QuantizedSession(session, mode="int8")
        np.testing.assert_array_equal(quantized.predict_many(images),
                                      cases["int8_no_matmul"]["logits"])

    @pytest.mark.parametrize("name", ["float_blocked_mb16", "int8_accumulate"])
    def test_restored_snapshot_drops_retired_entries(self, name):
        from repro.infer import snapshot_info

        session = _restore(_legacy()["cases"][name])
        snapshot = session.snapshot()
        assert "kernel" not in snapshot["state"]
        assert "kernel_plans" not in snapshot["state"]
        assert "matmul" not in snapshot
        assert b"repro.infer.kernels" not in pickle.dumps(snapshot)
        info = snapshot_info(snapshot)
        assert "kernel" not in info and "matmul" not in info


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


class TestDefaultEngineGate:
    """The one int8 engine is gated by its recorded hot-GEMM speedup over
    the frozen PR-3 baseline (``check_kernel_gates``)."""

    @staticmethod
    def _record(speedup: float, quick: bool = False) -> dict:
        return {"config": {"quick": quick},
                "kernels": {"int8_resident": {"speedup": speedup}}}

    def test_auto_resolves_to_gated_default(self):
        """``matmul="auto"`` and ``"dequant_tile"`` both name the one
        engine, whose panels are :func:`tune_quant_tile` wide."""
        base = InferenceSession(_small_model(6), max_batch=2)
        auto = QuantizedSession(base, mode="int8")
        named = QuantizedSession(base, mode="int8", matmul="dequant_tile")
        image = np.random.default_rng(3).standard_normal((2, 12, 12, 3))
        np.testing.assert_array_equal(auto.predict(image), named.predict(image))
        assert auto.w_embed.tile == tune_quant_tile(*auto.w_embed.shape)

    def test_fails_when_default_engine_records_slower(self):
        problems = check_kernel_gates(self._record(INT8_SPEEDUP_FLOOR - 0.3))
        assert len(problems) == 1 and "speedup" in problems[0]

    def test_passes_when_default_wins_or_record_lacks_lanes(self):
        assert check_kernel_gates(self._record(INT8_SPEEDUP_FLOOR + 0.5)) == []
        assert check_kernel_gates(self._record(1.0, quick=True)) == []
        assert check_kernel_gates({}) == []

    def test_committed_record_passes(self):
        from repro.bench import load
        record = load(os.path.join(ROOT, "BENCH_inference.json"))
        assert check_kernel_gates(record) == []
