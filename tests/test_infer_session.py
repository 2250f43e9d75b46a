"""Numerical equivalence and tape-freeness of the fused inference engine."""

import pickle

import numpy as np
import pytest

from repro import nn
from repro.infer import (
    CompiledModule,
    InferenceSession,
    UnsupportedModuleError,
    check_regression,
    compile_chain,
    compile_module,
)
from repro.tensor import Tensor, no_grad
from repro.vit import VitalConfig, VitalModel

#: Randomized model geometries: (image_size, patch_size, projection_dim,
#: heads, blocks, encoder_mlp_units, head_units, classes).  The two-block
#: row exercises the width-growing concatenation path.
CONFIGS = [
    (24, 4, 60, 5, 1, (128, 64), (128,), 17),
    (12, 3, 24, 4, 1, (32, 16), (32,), 5),
    (20, 4, 60, 5, 2, (32, 40), (64,), 9),
    (9, 2, 30, 3, 1, (24,), (16, 8), 4),
]


def _build(seed, image_size, patch, dim, heads, blocks, mlp, head, classes):
    config = VitalConfig(
        image_size=image_size,
        patch_size=patch,
        projection_dim=dim,
        num_heads=heads,
        encoder_blocks=blocks,
        encoder_mlp_units=mlp,
        head_units=head,
    )
    model = VitalModel(config, image_size=image_size, channels=3,
                       num_classes=classes, rng=np.random.default_rng(seed))
    model.eval()
    return model


class TestVitEquivalence:
    @pytest.mark.parametrize("index,geometry", enumerate(CONFIGS))
    def test_fused_matches_reference(self, index, geometry):
        image_size = geometry[0]
        model = _build(index, *geometry)
        rng = np.random.default_rng(100 + index)
        images = rng.standard_normal((11, image_size, image_size, 3)).astype(np.float32)

        with no_grad():
            reference = model(Tensor(images)).data
        session = InferenceSession(model, max_batch=4)  # forces chunked serving
        fused = session.predict_many(images)

        np.testing.assert_allclose(fused, reference, atol=1e-5, rtol=1e-5)
        np.testing.assert_array_equal(fused.argmax(axis=1), reference.argmax(axis=1))

    def test_single_sample_and_3d_input(self):
        model = _build(0, *CONFIGS[0])
        session = InferenceSession(model, max_batch=2)
        image = np.random.default_rng(3).standard_normal((24, 24, 3)).astype(np.float32)
        with no_grad():
            reference = model(Tensor(image[None])).data
        np.testing.assert_allclose(session.predict(image), reference, atol=1e-5)

    def test_predict_labels(self):
        model = _build(1, *CONFIGS[1])
        session = InferenceSession(model)
        images = np.random.default_rng(4).standard_normal((6, 12, 12, 3)).astype(np.float32)
        with no_grad():
            reference = model(Tensor(images)).data.argmax(axis=1)
        np.testing.assert_array_equal(session.predict_labels(images), reference)

    def test_weights_are_snapshot(self):
        """Mutating the model after compilation must not affect the session."""
        model = _build(2, *CONFIGS[1])
        images = np.random.default_rng(5).standard_normal((3, 12, 12, 3)).astype(np.float32)
        session = InferenceSession(model)
        before = session.predict_many(images)
        for param in model.parameters():
            param.data = param.data + 1.0
        np.testing.assert_array_equal(session.predict_many(images), before)

    def test_rejects_oversized_batch_and_bad_shapes(self):
        model = _build(3, *CONFIGS[1])
        session = InferenceSession(model, max_batch=2)
        good = np.zeros((4, 12, 12, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="max_batch"):
            session.predict(good)
        assert session.predict_many(good).shape == (4, model.num_classes)
        with pytest.raises(ValueError, match="images"):
            session.predict(np.zeros((1, 10, 10, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="images"):
            session.predict(np.zeros((1, 12, 12, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="max_batch"):
            session.predict_many(good, max_batch=0)
        with pytest.raises(TypeError, match="VitalModel"):
            InferenceSession(nn.Dense(4, 2))

    def test_model_rejects_channel_mismatch(self):
        """The gather-based forward must not silently interleave wrong
        pixels when the channel count disagrees with the model."""
        model = _build(9, *CONFIGS[1])
        with pytest.raises(ValueError, match="images"):
            model(Tensor(np.zeros((2, 12, 12, 4), dtype=np.float32)))
        with pytest.raises(ValueError, match="images"):
            model(Tensor(np.zeros((2, 12, 12, 2), dtype=np.float32)))

    def test_rejects_non_integral_max_batch(self):
        model = _build(4, *CONFIGS[1])
        for bad in (0, -3, 2.5, True, "8"):
            with pytest.raises(ValueError, match="max_batch"):
                InferenceSession(model, max_batch=bad)
        session = InferenceSession(model, max_batch=2)
        images = np.zeros((3, 12, 12, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="max_batch"):
            session.predict_many(images, max_batch=1.5)

    def test_pickle_roundtrip_is_bit_identical(self):
        """The invariant multi-process sharding relies on: a session
        shipped through pickle serves bit-identical logits."""
        model = _build(10, *CONFIGS[2])
        session = InferenceSession(model, max_batch=4)
        images = np.random.default_rng(20).standard_normal(
            (9, 20, 20, 3)
        ).astype(np.float32)
        before = session.predict_many(images)
        restored = pickle.loads(pickle.dumps(session))
        np.testing.assert_array_equal(restored.predict_many(images), before)
        # Pickling after serving must not ship scratch buffers either.
        session.predict_many(images)
        np.testing.assert_array_equal(
            pickle.loads(pickle.dumps(session)).predict_many(images), before
        )

    def test_snapshot_restore_roundtrip(self):
        model = _build(11, *CONFIGS[1])
        session = InferenceSession(model, max_batch=3)
        images = np.random.default_rng(21).standard_normal(
            (5, 12, 12, 3)
        ).astype(np.float32)
        snapshot = session.snapshot()
        restored = InferenceSession.from_snapshot(snapshot)
        np.testing.assert_array_equal(
            restored.predict_many(images), session.predict_many(images)
        )
        assert restored.max_batch == 3
        with pytest.raises(ValueError, match="snapshot"):
            InferenceSession.from_snapshot({"format": "bogus", "state": {}})
        with pytest.raises(ValueError, match="snapshot"):
            InferenceSession.from_snapshot("not a dict")

    def test_restore_session_error_paths(self):
        """restore_session must fail loudly — unknown format strings,
        truncated state dicts, non-dict garbage — never deep inside
        scratch allocation."""
        from repro.infer import restore_session, snapshot_info

        model = _build(12, *CONFIGS[1])
        snapshot = InferenceSession(model, max_batch=2).snapshot()

        with pytest.raises(ValueError, match="not a restorable"):
            restore_session({"format": "repro.bogus/v9", "state": {}})
        with pytest.raises(ValueError, match="not a restorable"):
            restore_session("garbage")
        with pytest.raises(ValueError, match="not a restorable"):
            restore_session({})

        truncated = {
            "format": snapshot["format"],
            "state": {k: v for k, v in snapshot["state"].items()
                      if k not in ("blocks", "w_embed")},
        }
        with pytest.raises(ValueError, match="truncated.*blocks"):
            restore_session(truncated)
        with pytest.raises(ValueError, match="truncated"):
            snapshot_info(truncated)
        with pytest.raises(ValueError, match="corrupted.*state"):
            restore_session({"format": snapshot["format"], "state": [1, 2]})

        # The same contract holds for quantized snapshots.
        from repro.quant import QuantizedSession

        qsnap = QuantizedSession(
            InferenceSession(model, max_batch=2)
        ).snapshot()
        broken = {**qsnap, "state": {k: v for k, v in qsnap["state"].items()
                                     if k != "head_weights"}}
        with pytest.raises(ValueError, match="truncated.*head_weights"):
            restore_session(broken)

    def test_snapshot_info_reports_geometry(self):
        from repro.infer import snapshot_info
        from repro.quant import QuantizedSession

        model = _build(13, *CONFIGS[1])
        session = InferenceSession(model, max_batch=6)
        info = snapshot_info(session.snapshot())
        assert info == {
            "format": "repro.infer.session/v1",
            "quantized": False,
            "image_size": 12,
            "channels": 3,
            "num_classes": 5,
            "max_batch": 6,
            "blocks": 1,
        }
        quantized = QuantizedSession(session, scheme="per_tensor", mode="int8")
        qinfo = snapshot_info(quantized.snapshot())
        assert qinfo["quantized"] is True
        assert qinfo["scheme"] == "per_tensor"
        assert qinfo["mode"] == "int8"
        assert qinfo["bits"] == 8
        assert "matmul" not in qinfo
        assert qinfo == quantized.info()

    def test_from_state_dict_roundtrip(self):
        geometry = CONFIGS[1]
        model = _build(7, *geometry)
        config = model.config
        state = model.state_dict()
        session = InferenceSession.from_state_dict(
            config, model.image_size, model.channels, model.num_classes, state
        )
        images = np.random.default_rng(8).standard_normal((4, 12, 12, 3)).astype(np.float32)
        with no_grad():
            reference = model(Tensor(images)).data
        np.testing.assert_allclose(session.predict_many(images), reference, atol=1e-5)


class TestCompiledBaselines:
    def _sherpa_like(self, rng):
        """The SHERPA-style dense baseline: backbone + classifier chain."""
        backbone = nn.Sequential(
            nn.Dense(30, 32, rng=rng), nn.ReLU(), nn.Dropout(0.1),
            nn.Dense(32, 16, rng=rng), nn.ReLU(), nn.Dropout(0.1),
        )
        classifier = nn.Dense(16, 8, rng=rng)
        return backbone, classifier

    def test_chain_matches_reference_forward(self):
        rng = np.random.default_rng(11)
        backbone, classifier = self._sherpa_like(rng)
        backbone.eval(), classifier.eval()
        x = rng.standard_normal((13, 30)).astype(np.float32)
        with no_grad():
            reference = classifier(backbone(Tensor(x))).data
        compiled = compile_chain([backbone, classifier], source="sherpa")
        np.testing.assert_allclose(compiled.predict(x), reference, atol=1e-5, rtol=1e-5)
        np.testing.assert_array_equal(
            compiled.predict(x).argmax(axis=1), reference.argmax(axis=1)
        )

    def test_layernorm_folding(self):
        rng = np.random.default_rng(12)
        model = nn.Sequential(
            nn.Dense(10, 12, rng=rng), nn.GELU(),
            nn.LayerNorm(12), nn.Dense(12, 6, rng=rng), nn.Tanh(),
            nn.LayerNorm(6),  # trailing norm not followed by Dense
        )
        model.eval()
        x = rng.standard_normal((9, 10)).astype(np.float32)
        with no_grad():
            reference = model(Tensor(x)).data
        compiled = compile_module(model)
        np.testing.assert_allclose(compiled.predict(x), reference, atol=1e-5, rtol=1e-5)

    def test_batchnorm_eval_folding(self):
        rng = np.random.default_rng(13)
        model = nn.Sequential(nn.Dense(8, 8, rng=rng), nn.BatchNorm1d(8),
                              nn.Dense(8, 3, rng=rng))
        bn = model[1]
        bn.running_mean = rng.standard_normal(8).astype(np.float32)
        bn.running_var = (rng.random(8).astype(np.float32) + 0.5)
        model.eval()
        x = rng.standard_normal((7, 8)).astype(np.float32)
        with no_grad():
            reference = model(Tensor(x)).data
        compiled = compile_module(model)
        np.testing.assert_allclose(compiled.predict(x), reference, atol=1e-5, rtol=1e-5)

    def test_predict_many_chunks(self):
        rng = np.random.default_rng(14)
        model = nn.Sequential(nn.Dense(6, 4, rng=rng), nn.Sigmoid())
        model.eval()
        x = rng.standard_normal((25, 6)).astype(np.float32)
        compiled = compile_module(model)
        np.testing.assert_allclose(
            compiled.predict_many(x, max_batch=4), compiled.predict(x), atol=1e-6
        )

    def test_unsupported_layer_raises(self):
        class Exotic(nn.Module):
            def forward(self, x):
                return x

        model = nn.Sequential(nn.Dense(4, 4), Exotic())
        with pytest.raises(UnsupportedModuleError):
            compile_module(model)

    def test_predict_many_rejects_bad_max_batch(self):
        compiled = compile_module(nn.Sequential(nn.Dense(4, 2)))
        x = np.zeros((3, 4), dtype=np.float32)
        for bad in (0, -1, 0.5, True):
            with pytest.raises(ValueError, match="max_batch"):
                compiled.predict_many(x, max_batch=bad)


class TestCompiledConvStacks:
    """Conv1d / pooling coverage: the CNNLoc baseline stack, tape-free."""

    def test_conv_pool_chain_matches_reference(self):
        rng = np.random.default_rng(30)
        model = nn.Sequential(
            nn.Conv1d(2, 8, kernel_size=3, padding=1, rng=rng), nn.ReLU(),
            nn.MaxPool1d(2),
            nn.Conv1d(8, 4, kernel_size=3, stride=2, rng=rng), nn.Tanh(),
            nn.GlobalAveragePool1d(),
            nn.Dense(4, 3, rng=rng),
        )
        model.eval()
        x = rng.standard_normal((6, 2, 20)).astype(np.float32)
        with no_grad():
            reference = model(Tensor(x)).data
        compiled = compile_module(model)
        np.testing.assert_allclose(compiled.predict(x), reference,
                                   atol=1e-5, rtol=1e-5)

    def test_cnnloc_style_head_promotes_2d_code(self):
        """The CNNLoc head feeds a 2-D SAE code into a single-channel
        Conv1d; the compiled op must promote (batch, code) transparently."""
        rng = np.random.default_rng(31)
        code_dim = 16
        conv1 = nn.Conv1d(1, 8, kernel_size=3, padding=1, rng=rng)
        conv2 = nn.Conv1d(8, 4, kernel_size=3, padding=1, rng=rng)
        regressor = nn.Dense(4 * code_dim, 2, rng=rng)
        x = rng.standard_normal((5, code_dim)).astype(np.float32)
        with no_grad():
            feat = conv1(Tensor(x[:, None, :])).relu()
            feat = conv2(feat).relu()
            reference = regressor(feat.reshape(len(x), -1)).data
        compiled = compile_chain(
            [conv1, nn.ReLU(), conv2, nn.ReLU(), nn.Flatten(), regressor],
            source="cnnloc-head",
        )
        np.testing.assert_allclose(compiled.predict(x), reference,
                                   atol=1e-5, rtol=1e-5)

    def test_unbiased_and_strided_conv(self):
        rng = np.random.default_rng(32)
        model = nn.Sequential(
            nn.Conv1d(3, 5, kernel_size=4, stride=3, bias=False, rng=rng),
            nn.Flatten(),
        )
        model.eval()
        x = rng.standard_normal((4, 3, 17)).astype(np.float32)
        with no_grad():
            reference = model(Tensor(x)).data
        np.testing.assert_allclose(compile_module(model).predict(x),
                                   reference, atol=1e-5, rtol=1e-5)


class TestCompiledAttention:
    """MultiHeadSelfAttention + chain-wrapper coverage: the ANVIL path."""

    def test_attention_matches_reference(self):
        rng = np.random.default_rng(40)
        attn = nn.MultiHeadSelfAttention(24, heads=4, rng=rng)
        attn.eval()
        x = rng.standard_normal((5, 9, 24)).astype(np.float32)
        with no_grad():
            reference = attn(Tensor(x)).data
        compiled = compile_chain([attn], source="attn")
        np.testing.assert_allclose(compiled.predict(x), reference,
                                   atol=1e-5, rtol=1e-5)

    def test_layernorm_folds_into_attention_qkv(self):
        rng = np.random.default_rng(41)
        norm = nn.LayerNorm(24)
        norm.gamma.data = rng.standard_normal(24).astype(np.float32)
        norm.beta.data = rng.standard_normal(24).astype(np.float32)
        attn = nn.MultiHeadSelfAttention(24, heads=3, rng=rng)
        attn.eval()
        x = rng.standard_normal((4, 7, 24)).astype(np.float32)
        with no_grad():
            reference = attn(norm(Tensor(x))).data
        compiled = compile_chain([norm, attn], source="norm-attn")
        # The affine fold leaves exactly two ops: affine-free norm + attention.
        assert len(compiled._ops) == 2
        np.testing.assert_allclose(compiled.predict(x), reference,
                                   atol=1e-5, rtol=1e-5)

    def test_anvil_style_residual_chain(self):
        """Residual + AddConstant + TokenMeanPool reproduce the ANVIL
        embedding block: tanh(head(mean(post(x + attn(norm(x + pos))))))."""
        from repro.infer import AddConstant, Residual, TokenMeanPool

        rng = np.random.default_rng(42)
        dim, n_tokens = 16, 6
        proj = nn.Dense(3, dim, rng=rng)
        position = rng.standard_normal((n_tokens, dim)).astype(np.float32)
        norm, post = nn.LayerNorm(dim), nn.LayerNorm(dim)
        attn = nn.MultiHeadSelfAttention(dim, heads=2, rng=rng)
        head = nn.Dense(dim, dim, rng=rng)
        for module in (proj, norm, post, attn, head):
            module.eval()
        x = rng.standard_normal((5, n_tokens, 3)).astype(np.float32)
        with no_grad():
            tokens = proj(Tensor(x)) + Tensor(position)
            tokens = tokens + attn(norm(tokens))
            reference = head(post(tokens).mean(axis=1)).tanh().data
        compiled = compile_chain(
            [proj, AddConstant(position), Residual(norm, attn),
             post, TokenMeanPool(axis=1), head, nn.Tanh()],
            source="anvil-style",
        )
        np.testing.assert_allclose(compiled.predict(x), reference,
                                   atol=1e-5, rtol=1e-5)


class TestRegressionGate:
    """The pure comparison behind ``infer-bench --check``."""

    @staticmethod
    def _record(p50_ms: float, max_abs_diff: float = 1e-7,
                argmax_match: bool = True) -> dict:
        return {
            "single_sample": {"fused": {"p50_ms": p50_ms}},
            "equivalence": {"max_abs_diff": max_abs_diff,
                            "argmax_match": argmax_match},
        }

    def test_within_threshold_passes(self):
        baseline = self._record(1.0)
        assert check_regression(self._record(1.24), baseline) == []
        assert check_regression(self._record(0.5), baseline) == []

    def test_regression_fails(self):
        problems = check_regression(self._record(1.3), self._record(1.0))
        assert problems and "p50 regressed" in problems[0]

    def test_custom_threshold(self):
        baseline = self._record(1.0)
        assert check_regression(self._record(1.4), baseline, threshold=0.5) == []
        assert check_regression(self._record(1.2), baseline, threshold=0.1)

    def test_equivalence_breakage_fails(self):
        baseline = self._record(1.0)
        assert check_regression(self._record(1.0, argmax_match=False), baseline)
        assert check_regression(self._record(1.0, max_abs_diff=1e-3), baseline)

    def test_mismatched_geometry_refused(self):
        """A smaller/faster model must not be comparable to the baseline —
        that would let a real regression hide behind cheaper compute."""
        baseline = self._record(1.0)
        baseline["config"] = {"image_size": 24, "num_classes": 32}
        fresh = self._record(0.1)
        fresh["config"] = {"image_size": 12, "num_classes": 32}
        problems = check_regression(fresh, baseline)
        assert problems and "not comparable" in problems[0]
        fresh["config"]["image_size"] = 24
        assert check_regression(fresh, baseline) == []


class TestTapeFreeness:
    def test_no_grad_forward_builds_no_closures(self):
        """Under no_grad() every op result is a leaf: no parents, no
        backward closure, no requires_grad."""
        model = _build(5, *CONFIGS[1])
        images = Tensor(np.zeros((2, 12, 12, 3), dtype=np.float32))
        with no_grad():
            out = model(images)
        assert out.requires_grad is False
        assert out._parents == ()
        assert out._backward is None

    def test_no_grad_primitive_ops_are_leaves(self):
        a = Tensor(np.ones((3, 3)), requires_grad=True)
        with no_grad():
            for result in (a + a, a * 2.0, a @ a, a.relu(), a.gelu(),
                           a.softmax(), a.sum(), a.reshape(9)):
                assert result.requires_grad is False
                assert result._parents == ()
                assert result._backward is None
        grad_result = a + a
        assert grad_result.requires_grad and grad_result._backward is not None

    def test_dropout_is_identity_under_no_grad(self):
        """Dropout in a no_grad() region returns its input unchanged —
        the very same Tensor object, no mask, no new node."""
        dropout = nn.Dropout(0.5)
        x = Tensor(np.ones((4, 4)))
        with no_grad():
            assert dropout(x) is x
        dropout.eval()
        assert dropout(x) is x

    def test_attention_not_retained_during_inference(self):
        model = _build(6, *CONFIGS[1])
        with no_grad():
            model(Tensor(np.zeros((1, 12, 12, 3), dtype=np.float32)))
        for block in model.encoder:
            assert block.attention.last_attention is None

    def test_frozen_context_restores_modes(self):
        model = _build(8, *CONFIGS[1])
        model.train()
        with model.frozen():
            assert not model.training
            out = model(Tensor(np.zeros((1, 12, 12, 3), dtype=np.float32)))
            assert out.requires_grad is False
        assert model.training
