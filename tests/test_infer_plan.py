"""The fused engine's compiled call plans: bit-identical logits against a
fixture recorded before plans existed (``tests/data/plan_logits.npz``),
snapshots untouched by prediction, one profiled path, ``predict_many``
into a caller's buffer, empty batches, the session-owned int8 cast panel, and each
kernel's call list against the NumPy expressions it replaced.
"""

import os
import pickle

import numpy as np
import pytest

from repro.infer import InferenceSession, QuantizedLinear, restore_session
from repro.infer.ops import dense_, gelu_, layer_norm_, softmax_
from repro.obs.profile import attach_profiler, detach_profiler, profile_predict
from repro.quant import QuantizedSession
from repro.vit import VitalConfig, VitalModel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PHASES = ["patch_gather", "embed", "block0", "final_norm_pool", "head"]
ENGINES = ["float32", "int8", "dequant"]


def _small_model(seed=0):
    """The geometry of tests/test_infer_kernels.py ``_small_model``."""
    config = VitalConfig(image_size=12, patch_size=3, projection_dim=24,
                         num_heads=4, encoder_blocks=1,
                         encoder_mlp_units=(32, 16), head_units=(32,))
    model = VitalModel(config, image_size=12, channels=3, num_classes=5,
                       rng=np.random.default_rng(seed))
    model.eval()
    return model


@pytest.fixture(scope="module")
def recorded():
    """Logits served before the engine ran plans (see tests/data/README.md)."""
    with np.load(os.path.join(ROOT, "tests", "data", "plan_logits.npz")) as data:
        return {key: data[key] for key in data.files}


def _engine(name: str, model_seed: int = 0, max_batch: int = 4):
    session = InferenceSession(_small_model(model_seed), max_batch=max_batch)
    if name == "float32":
        return session
    return QuantizedSession(session, mode=name)


def _images(n: int, seed: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(
        (n, 12, 12, 3)).astype(np.float32)


class TestRecordedLogits:
    @pytest.mark.parametrize("name", ENGINES)
    def test_plans_match_recorded_logits_bit_for_bit(self, recorded, name):
        engine = _engine(name, int(recorded["model_seed"]),
                         int(recorded["max_batch"]))
        inputs = recorded["inputs"]
        for b in (1, 3, int(recorded["max_batch"])):
            np.testing.assert_array_equal(
                engine.predict(inputs[:b]), recorded[f"{name}_b{b}"],
                err_msg=f"{name} b={b}")
        # 10 inputs through max_batch 4: plans at 4 and 2, reused.
        np.testing.assert_array_equal(engine.predict_many(inputs),
                                      recorded[f"{name}_many"])
        np.testing.assert_array_equal(engine.predict(inputs[:1]),
                                      recorded[f"{name}_b1"])


class TestPlanCache:
    def test_one_plan_per_batch_size_reset_on_restore(self):
        session = _engine("float32")
        images = _images(4)
        session.predict(images[:2])
        plan = session._plans[2]
        session.predict(images[:2])
        assert session._plans[2] is plan
        session.predict_many(images[:3], max_batch=2)
        assert sorted(session._plans) == [1, 2]
        restored = pickle.loads(pickle.dumps(session))
        assert restored._plans == {}
        np.testing.assert_array_equal(restored.predict(images[:2]),
                                      session.predict(images[:2]))

    @pytest.mark.parametrize("name", ENGINES)
    def test_pickles_identical_before_and_after_predicts(self, name):
        engine = _engine(name)
        before = (pickle.dumps(engine), pickle.dumps(engine.snapshot()))
        images = _images(9)
        for b in (1, 2, 4):
            engine.predict(images[:b])
        engine.predict_many(images)
        profile_predict(engine, images[:3])
        assert (pickle.dumps(engine), pickle.dumps(engine.snapshot())) == before


class TestProfiledPlan:
    @pytest.mark.parametrize("name", ["float32", "int8"])
    def test_profiled_predict_equals_unprofiled(self, name):
        """The profiler laps between the plan's segments: the same calls,
        the same logits, each of the five phases once per predict."""
        engine = _engine(name)
        images = _images(3)
        plain = engine.predict(images)
        profiler = attach_profiler(engine)
        np.testing.assert_array_equal(engine.predict(images), plain)
        phases = profiler.drain()
        assert list(phases) == PHASES
        assert all(phase["calls"] == 1 for phase in phases.values())
        detach_profiler(engine)
        np.testing.assert_array_equal(engine.predict(images), plain)
        assert profiler.summary() == {}


class TestPredictManyOut:
    @pytest.mark.parametrize("name", ["float32", "int8"])
    def test_fills_a_buffer_it_does_not_own(self, name):
        """Like a worker writing into its ring lease: a float32 view over
        a ``bytearray``, more samples than ``max_batch``."""
        engine = _engine(name)
        images = _images(11)
        expected = engine.predict_many(images)
        arena = bytearray(4 * (11 * 5 + 8))
        out = np.frombuffer(arena, dtype=np.float32, count=11 * 5,
                            offset=16).reshape(11, 5)
        assert engine.predict_many(images, out=out) is out
        np.testing.assert_array_equal(out, expected)
        guard = np.frombuffer(arena, dtype=np.float32)
        assert not guard[:4].any() and not guard[4 + 55:].any()
        # Logits may differ in the last bit between batch sizes, so a
        # different chunking compares with its own fresh-array result.
        engine.predict_many(images, max_batch=3, out=out)
        np.testing.assert_array_equal(out, engine.predict_many(images, max_batch=3))

    def test_wrong_shape_refused(self):
        engine = _engine("float32")
        with pytest.raises(ValueError, match="expected"):
            engine.predict_many(_images(3), out=np.empty((3, 4), np.float32))


class TestEmptyBatch:
    @pytest.mark.parametrize("name", ENGINES)
    def test_predict_and_predict_many_return_no_rows(self, name):
        """No plan runs at batch size 0: both entry points answer an
        empty batch with an empty ``(0, num_classes)`` float32 array."""
        engine = _engine(name)
        for method in (engine.predict, engine.predict_many):
            logits = method(_images(0))
            assert logits.shape == (0, engine.num_classes)
            assert logits.dtype == np.float32
        assert 0 not in engine._plans


class TestSessionPanel:
    def test_shared_weights_hold_no_scratch(self):
        """Sessions restored from one snapshot share their QuantizedLinear
        objects; each session casts into its own panel, sized for its
        largest site, and the shared weights allocate none."""
        source = _engine("int8")
        snapshot = source.snapshot()
        first, second = (restore_session(snapshot) for _ in range(2))
        assert first.blocks[0].w_qkv is second.blocks[0].w_qkv
        images = _images(6)
        np.testing.assert_array_equal(first.predict_many(images),
                                      second.predict_many(images))
        weights = list(first._dense_weights())
        assert all(isinstance(w, QuantizedLinear) for w in weights)
        assert all(w._scratch is None for w in weights)
        largest = max(4 * w.shape[0] * w.tile for w in weights)
        assert first._panel.nbytes == second._panel.nbytes == largest
        assert first._panel is not second._panel
        assert _engine("float32")._panel is None
        assert _engine("dequant")._panel is None

    def test_direct_matmul_keeps_its_own_panel(self):
        rng = np.random.default_rng(4)
        codes = rng.integers(-127, 128, (24, 20)).astype(np.int8)
        layer = QuantizedLinear(codes, rng.uniform(0.01, 0.1, 20))
        x = rng.standard_normal((6, 24)).astype(np.float32)
        direct = layer.matmul_into(x, np.empty((6, 20), np.float32))
        assert layer._scratch.shape == (24, layer.tile)
        via_dense = dense_(x, layer, None, np.empty((6, 20), np.float32))
        np.testing.assert_array_equal(direct, via_dense)


class TestKernelsMatchTheirExpressions:
    """Each kernel's call list against the NumPy expressions the engine
    ran before plans: the same arithmetic, so equal bit for bit."""

    @pytest.mark.parametrize("shape", [(1, 36, 60), (7, 9, 24), (5, 33)])
    def test_layer_norm(self, shape):
        x = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
        mean = x.mean(axis=-1, keepdims=True)
        expected = x - mean
        var = np.einsum("...d,...d->...", expected, expected)[..., None]
        var /= x.shape[-1]
        var += 1e-6
        np.sqrt(var, out=var)
        expected /= var
        np.testing.assert_array_equal(
            layer_norm_(x, 1e-6, np.empty_like(x)), expected)

    @pytest.mark.parametrize("shape", [(1, 5, 36, 36), (3, 2, 7, 7), (4, 9)])
    def test_softmax(self, shape):
        x = 4 * np.random.default_rng(1).standard_normal(shape).astype(np.float32)
        expected = x - x.max(axis=-1, keepdims=True)
        np.exp(expected, out=expected)
        expected /= expected.sum(axis=-1, keepdims=True)
        np.testing.assert_array_equal(softmax_(x), expected)

    @pytest.mark.parametrize("shape", [(1, 36, 128), (3, 64), (7,)])
    def test_gelu(self, shape):
        """Scalars bound as 0-d float32 arrays round as the Python floats
        and ``np.float32`` constants of the in-place expression did."""
        x = 3 * np.random.default_rng(2).standard_normal(shape).astype(np.float32)
        x[0] = -0.0
        p = np.float32(0.3275911 / np.sqrt(2.0))
        a5, *horner = (np.float32(0.5 * a) for a in (
            1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592))
        expected = x.copy()
        t = np.abs(expected) * p
        t += 1.0
        np.reciprocal(t, out=t)
        poly = t * a5
        for coeff in horner:
            poly += coeff
            poly *= t
        e = expected * expected
        e *= -0.5
        np.exp(e, out=e)
        e *= poly
        np.copysign(e, expected, out=e)
        phi = (expected >= 0.0).astype(np.float32)
        phi -= e
        expected *= phi
        got = gelu_(x.copy(), np.empty_like(x), np.empty_like(x))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", [1, 3, 36, 1152])
    def test_float_dense(self, rows):
        rng = np.random.default_rng(rows)
        x = rng.standard_normal((rows, 60)).astype(np.float32)
        w = rng.standard_normal((60, 180)).astype(np.float32)
        bias = rng.standard_normal(180).astype(np.float32)
        expected = np.matmul(x, w) + bias
        np.testing.assert_array_equal(
            dense_(x, w, bias, np.empty((rows, 180), np.float32)), expected)
