"""The repro.quant subsystem: calibration, quantized execution, snapshots,
serving and the localization-accuracy parity pins."""

import pickle

import numpy as np
import pytest

from repro.infer import InferenceSession, QuantizedLinear, restore_session
from repro.quant import (
    MODES,
    QUANT_SNAPSHOT_FORMAT,
    SCHEMES,
    Calibration,
    QuantizedSession,
    calibrate_session,
    quantize_session,
)
from repro.vit import VitalConfig, VitalModel


def _model(seed: int = 0, image_size: int = 12, num_classes: int = 5,
           blocks: int = 2) -> VitalModel:
    config = VitalConfig(
        image_size=image_size, patch_size=3, projection_dim=24, num_heads=4,
        encoder_blocks=blocks, encoder_mlp_units=(32, 16), head_units=(32,),
    )
    model = VitalModel(config, image_size=image_size, channels=3,
                       num_classes=num_classes,
                       rng=np.random.default_rng(seed))
    model.eval()
    return model


@pytest.fixture(scope="module")
def float_session():
    return InferenceSession(_model(), max_batch=4)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(7)
    return rng.standard_normal((13, 12, 12, 3)).astype(np.float32)


class TestQuantizedExecution:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("mode", MODES)
    def test_stays_close_to_float(self, float_session, images, scheme, mode):
        reference = float_session.predict_many(images)
        quantized = QuantizedSession(float_session, scheme=scheme, mode=mode)
        logits = quantized.predict_many(images)
        assert np.abs(logits - reference).max() < 0.05
        agreement = (logits.argmax(axis=1) == reference.argmax(axis=1)).mean()
        assert agreement >= 0.9

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_modes_agree(self, float_session, images, scheme):
        """dequant and int8 decode the same codes — logits must agree to
        float32 matmul reassociation tolerance."""
        dequant = QuantizedSession(float_session, scheme=scheme, mode="dequant")
        int8 = QuantizedSession(float_session, scheme=scheme, mode="int8")
        reference = dequant.predict_many(images)
        np.testing.assert_allclose(
            reference, int8.predict_many(images), atol=1e-5, rtol=1e-5,
        )

    def test_int8_mode_weights_stay_quantized(self, float_session):
        quantized = QuantizedSession(float_session, mode="int8")
        assert isinstance(quantized.w_embed, QuantizedLinear)
        assert quantized.w_embed.codes.dtype == np.int8
        assert all(isinstance(block.w_qkv, QuantizedLinear)
                   for block in quantized.blocks)
        # ~4x fewer resident weight bytes than the dequantized engine.
        dequant = QuantizedSession(float_session, mode="dequant")
        assert not isinstance(dequant.w_embed, QuantizedLinear)
        assert quantized.resident_weight_bytes() < 0.5 * dequant.resident_weight_bytes()
        assert dequant.quantized_weight_bytes() == quantized.quantized_weight_bytes()

    def test_per_channel_tracks_outlier_channels_better(self):
        """Blow up one head-weight output channel: per-tensor loses the
        narrow channels' resolution, per-channel must not."""
        model = _model(3)
        model.head.layers[-1].weight.data = (
            model.head.layers[-1].weight.data.copy()
        )
        model.head.layers[-1].weight.data[:, 0] *= 50.0
        session = InferenceSession(model, max_batch=4)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((16, 12, 12, 3)).astype(np.float32)
        reference = session.predict_many(x)
        errors = {
            scheme: np.abs(
                QuantizedSession(session, scheme=scheme).predict_many(x)
                - reference
            )[:, 1:].max()  # error on the *non*-outlier logits
            for scheme in SCHEMES
        }
        assert errors["per_channel"] < errors["per_tensor"]

    def test_quantized_linear_rejects_out_of_range_codes(self):
        """Wider-than-int8 codes must be refused, not silently wrapped."""
        QuantizedLinear(np.array([[1, -5]], dtype=np.int16), 0.1)  # in range: ok
        with pytest.raises(ValueError, match="int8"):
            QuantizedLinear(np.array([[300, 0]], dtype=np.int16), 0.1)
        with pytest.raises(ValueError, match="integers"):
            QuantizedLinear(np.ones((2, 2), dtype=np.float32), 0.1)

    def test_validation(self, float_session):
        with pytest.raises(ValueError, match="scheme"):
            QuantizedSession(float_session, scheme="per_block")
        with pytest.raises(ValueError, match="mode"):
            QuantizedSession(float_session, mode="fp16")
        with pytest.raises(ValueError, match="bits"):
            QuantizedSession(float_session, bits=16)
        # the retired int8-accumulate engine is refused, not silently mapped
        with pytest.raises(ValueError, match="matmul"):
            QuantizedSession(float_session, mode="int8",
                             matmul="int8_accumulate")
        quantized = QuantizedSession(float_session)
        with pytest.raises(TypeError, match="already a QuantizedSession"):
            QuantizedSession(quantized)

    def test_compiles_straight_from_model(self, images):
        model = _model(1)
        direct = QuantizedSession(model, max_batch=8)
        via_session = QuantizedSession(InferenceSession(model, max_batch=8))
        np.testing.assert_array_equal(
            direct.predict_many(images), via_session.predict_many(images)
        )
        assert direct.max_batch == 8


class TestQuantizedSnapshots:
    @pytest.mark.parametrize("mode", MODES)
    def test_pickle_roundtrip_is_bit_identical(self, float_session, images, mode):
        """The invariant quantized serving relies on: a snapshot shipped
        through pickle serves bit-identical logits (mirrors the float32
        pin in test_infer_session.py)."""
        quantized = QuantizedSession(float_session, mode=mode)
        before = quantized.predict_many(images)
        snapshot = pickle.loads(pickle.dumps(quantized.snapshot()))
        restored = QuantizedSession.from_snapshot(snapshot)
        np.testing.assert_array_equal(restored.predict_many(images), before)
        assert restored.mode == mode and restored.scheme == "per_channel"
        # Direct session pickles round-trip the same way.
        np.testing.assert_array_equal(
            pickle.loads(pickle.dumps(quantized)).predict_many(images), before
        )

    def test_snapshot_is_at_most_35_percent_of_float32(self):
        """The headline footprint gate at the benchmark geometry."""
        model = VitalModel(VitalConfig.fast(24), image_size=24, channels=3,
                           num_classes=32, rng=np.random.default_rng(0))
        session = InferenceSession(model)
        float_bytes = len(pickle.dumps(session.snapshot()))
        for scheme in SCHEMES:
            quant_bytes = len(pickle.dumps(
                QuantizedSession(session, scheme=scheme).snapshot()
            ))
            assert quant_bytes <= 0.35 * float_bytes, (scheme, quant_bytes)

    def test_mode_override_on_restore(self, float_session, images):
        snapshot = QuantizedSession(
            float_session, mode="int8", matmul="dequant_tile"
        ).snapshot()
        restored = QuantizedSession.from_snapshot(snapshot, mode="dequant")
        assert restored.mode == "dequant"
        assert not isinstance(restored.w_embed, QuantizedLinear)
        np.testing.assert_allclose(
            restored.predict_many(images),
            QuantizedSession.from_snapshot(snapshot).predict_many(images),
            atol=1e-5, rtol=1e-5,
        )

    def test_restore_session_dispatches_by_format(self, float_session):
        assert isinstance(restore_session(float_session.snapshot()),
                          InferenceSession)
        restored = restore_session(QuantizedSession(float_session).snapshot())
        assert isinstance(restored, QuantizedSession)
        with pytest.raises(ValueError, match="snapshot"):
            restore_session({"format": "bogus"})
        with pytest.raises(ValueError, match="snapshot"):
            restore_session("not a dict")

    def test_from_snapshot_rejects_garbage(self):
        with pytest.raises(ValueError, match="QuantizedSession snapshot"):
            QuantizedSession.from_snapshot({"format": "bogus", "state": {}})
        with pytest.raises(ValueError, match="QuantizedSession snapshot"):
            QuantizedSession.from_snapshot(42)

    def test_snapshot_format_and_int8_payload(self, float_session):
        snapshot = QuantizedSession(float_session).snapshot()
        assert snapshot["format"] == QUANT_SNAPSHOT_FORMAT
        state = snapshot["state"]
        assert isinstance(state["w_embed"], QuantizedLinear)
        assert state["patch_grid"].dtype == np.int32
        for block in state["blocks"]:
            assert isinstance(block, dict)
            assert isinstance(block["w_qkv"], QuantizedLinear)
            assert block["b_qkv"].dtype == np.float32  # biases stay float


class TestCalibration:
    def test_records_per_site_peaks(self, float_session, images):
        calibration = calibrate_session(float_session, images)
        assert calibration.samples == len(images)
        peaks = calibration.activation_peaks
        assert {"patches", "block_0_tokens", "block_1_tokens",
                "encoder_out", "pooled", "logits"} <= set(peaks)
        assert all(peak > 0.0 for peak in peaks.values())
        summary = calibration.summary()
        assert summary["samples"] == len(images)

    def test_chunks_through_scratch_buffers(self, float_session, images):
        """Calibrating more images than max_batch must chunk, and the
        recorded peak equals the max over per-chunk peaks."""
        full = calibrate_session(float_session, images)  # max_batch=4 < 13
        halves = [
            calibrate_session(float_session, images[:6]),
            calibrate_session(float_session, images[6:]),
        ]
        for site, peak in full.activation_peaks.items():
            assert peak == pytest.approx(max(
                half.activation_peaks[site] for half in halves
            ))

    def test_empty_calibration_refused(self, float_session):
        with pytest.raises(ValueError, match="at least one image"):
            calibrate_session(
                float_session, np.empty((0, 12, 12, 3), dtype=np.float32)
            )

    def test_calibration_travels_in_snapshot(self, float_session, images):
        quantized = quantize_session(float_session, calibration_images=images)
        snapshot = quantized.snapshot()
        assert snapshot["calibration"]["samples"] == len(images)
        restored = QuantizedSession.from_snapshot(snapshot)
        assert restored.calibration == snapshot["calibration"]
        # Ready-made Calibration objects are accepted too.
        ready = Calibration(samples=3, activation_peaks={"patches": 1.0})
        assert QuantizedSession(
            float_session, calibration=ready
        ).calibration["samples"] == 3


class TestLocalizationParity:
    """The satellite pin: per-channel int8 localization error stays within
    a stated tolerance of float32 on a fixed-seed synthetic eval."""

    @pytest.fixture(scope="class")
    def trained(self):
        from repro.data import (
            BASE_DEVICES,
            SurveyConfig,
            collect_fingerprints,
            make_building_1,
            train_test_split,
        )
        from repro.vit import VitalLocalizer

        building = make_building_1(n_aps=10)
        data = collect_fingerprints(
            building, BASE_DEVICES[:3], SurveyConfig(n_visits=1, seed=0)
        )
        train, test = train_test_split(data, 0.2, seed=0)
        localizer = VitalLocalizer(VitalConfig.fast(12, epochs=12), seed=0)
        localizer.fit(train)
        return localizer, train, test

    def test_per_channel_int8_error_within_tolerance(self, trained):
        localizer, train, test = trained
        float_session = localizer.compile_inference(max_batch=32)
        float_error = localizer.errors_m(test).mean()
        calibration_images = localizer.dam.process(
            train.features, training=False, as_image=True
        )
        for mode in MODES:
            localizer._session = quantize_session(
                float_session, scheme="per_channel", mode=mode,
                calibration_images=calibration_images[:32],
            )
            quant_error = localizer.errors_m(test).mean()
            # Stated tolerance: within 0.5 m (or 15%) of the float engine.
            assert quant_error <= float_error + max(0.5, 0.15 * float_error), (
                mode, float_error, quant_error
            )
        localizer._session = float_session

    def test_quantized_serving_matches_local_session(self, trained):
        """CLI-shaped end-to-end: quantized snapshot → LocalizationServer
        → bit-identical logits, ~3x fewer snapshot bytes shipped."""
        from repro.serve import LocalizationServer

        localizer, train, test = trained
        float_session = localizer.compile_inference(max_batch=16)
        quantized = quantize_session(float_session, mode="int8")
        images = localizer.dam.process(
            test.features, training=False, as_image=True
        ).astype(np.float32)
        local = quantized.predict_many(images)
        snapshot = pickle.loads(pickle.dumps(quantized.snapshot()))
        with LocalizationServer(snapshot, workers=2,
                                max_delay_ms=1.0) as server:
            served = server.predict_many(images, timeout=60.0)
            stats = server.stats()
        np.testing.assert_array_equal(served, local)
        transport = stats["snapshot"]
        assert transport["format"] == QUANT_SNAPSHOT_FORMAT
        assert transport["shipped"] == 2
        assert transport["bytes_shipped"] == 2 * transport["bytes"]
        float_bytes = len(pickle.dumps(float_session.snapshot()))
        assert transport["bytes"] <= 0.35 * float_bytes
