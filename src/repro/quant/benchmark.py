"""Quantization trade-off benchmark: accuracy vs latency vs footprint.

Two experiment groups, recorded as the ``quantization`` section of
``BENCH_inference.json`` (see :mod:`repro.bench`):

* **engine** — the fused ViT engine at the benchmark geometry: pickled
  snapshot bytes (float32 vs per-tensor int8 vs per-channel int8),
  resident weight bytes per execution mode, logit fidelity against the
  float32 engine, and single-sample p50 latency for every scheme × mode
  lane.
* **accuracy** — a small fixed-seed synthetic survey: VITAL trained end
  to end, served float32 / per-tensor int8 / per-channel int8, mean
  localization error per arm; plus
  the dense baselines (SHERPA, CNNLoc) fake-quantized through
  :func:`repro.nn.quantize_model` at both granularities.

Run via ``python -m repro.bench run quantization [--quick]`` (``--quick``
records a ``smoke`` run: fewer iterations and training epochs).
"""

from __future__ import annotations

import pickle
import time

import numpy as np

from repro.infer.session import InferenceSession
from repro.nn.quantization import model_size_bytes, quantize_model
from repro.quant.calibrate import calibrate_session
from repro.quant.session import SCHEMES, QuantizedSession, _state_weight_bytes


def _p50_ms(fn, iterations: int, warmup: int = 3) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(iterations):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return float(np.percentile(samples, 50))


def _engine_experiment(
    image_size: int, num_classes: int, max_batch: int, seed: int, smoke: bool
) -> dict:
    """Fidelity / latency / footprint of the quantized fused engine."""
    from repro.vit.config import VitalConfig
    from repro.vit.model import VitalModel

    iters = 10 if smoke else 100
    eval_samples = 2 * max_batch if smoke else 8 * max_batch
    calibration_samples = 16 if smoke else 64

    rng = np.random.default_rng(seed)
    model = VitalModel(
        VitalConfig.fast(image_size),
        image_size=image_size,
        channels=3,
        num_classes=num_classes,
        rng=rng,
    )
    session = InferenceSession(model, max_batch=max_batch)
    calibration_images = rng.standard_normal(
        (calibration_samples, image_size, image_size, 3)
    ).astype(np.float32)
    eval_images = rng.standard_normal(
        (eval_samples, image_size, image_size, 3)
    ).astype(np.float32)
    single = eval_images[:1]

    calibration = calibrate_session(session, calibration_images)
    reference = session.predict_many(eval_images)
    float_snapshot_bytes = len(pickle.dumps(session.snapshot()))

    snapshot_bytes = {"float32": float_snapshot_bytes}
    resident_bytes = {"float32": _state_weight_bytes(session.__getstate__())}
    fidelity: dict[str, dict] = {}
    latency = {"float32_p50_ms": _p50_ms(lambda: session.predict(single), iters)}

    def _fidelity(logits: np.ndarray) -> dict:
        return {
            "max_abs_diff": float(np.abs(logits - reference).max()),
            "argmax_agreement": float(
                (logits.argmax(axis=1) == reference.argmax(axis=1)).mean()
            ),
        }

    for scheme in SCHEMES:
        sessions = {
            mode: QuantizedSession(session, scheme=scheme, mode=mode,
                                   calibration=calibration)
            for mode in ("dequant", "int8")
        }
        snapshot_bytes[scheme] = len(pickle.dumps(sessions["dequant"].snapshot()))
        resident_bytes[f"{scheme}_int8_mode"] = sessions["int8"].resident_weight_bytes()
        fidelity[scheme] = _fidelity(sessions["dequant"].predict_many(eval_images))
        for mode, quantized in sessions.items():
            latency[f"{scheme}_{mode}_p50_ms"] = _p50_ms(
                lambda q=quantized: q.predict(single), iters
            )

    return {
        "snapshot_bytes": snapshot_bytes,
        "snapshot_ratio_per_channel": snapshot_bytes["per_channel"] / float_snapshot_bytes,
        "resident_weight_bytes": resident_bytes,
        "fidelity": fidelity,
        "latency": latency,
        "calibration": calibration.summary(),
        "eval_samples": eval_samples,
        "single_iters": iters,
    }


def _mean_error_m(localizer, test) -> float:
    return float(localizer.errors_m(test).mean())


def _chance_error_m(test) -> float:
    """Mean error of a uniformly random RP guess on ``test``: the floor a
    trained model must sit well below (an untrained VITAL reads worse)."""
    truth = test.location_of(test.labels)
    return float(np.linalg.norm(
        truth[:, None, :] - test.rp_locations[None, :, :], axis=-1).mean())


def _quantized_arm_errors(localizer, test, quantize_fn) -> dict[str, float]:
    """Mean error per scheme with the network fake-quantized in place.

    ``quantize_fn(scheme)`` must quantize the live network; weights are
    restored from a float32 checkpoint between arms.
    """
    network = localizer.network
    checkpoint = {name: values.copy() for name, values in network.state_dict().items()}
    errors = {}
    for scheme in SCHEMES:
        quantize_fn(scheme)
        errors[scheme] = _mean_error_m(localizer, test)
        network.load_state_dict(checkpoint)
    return errors


def _accuracy_experiment(seed: int, smoke: bool, verbose: bool) -> dict:
    """Localization error of quantized arms on a fixed-seed tiny survey."""
    from repro.baselines.cnnloc import CnnLocLocalizer
    from repro.baselines.sherpa import SherpaLocalizer
    from repro.data import BASE_DEVICES, SurveyConfig, collect_fingerprints
    from repro.data.buildings import make_building_1
    from repro.data.splits import train_test_split
    from repro.vit.config import VitalConfig
    from repro.vit.localizer import VitalLocalizer

    def log(message: str) -> None:
        if verbose:
            print(message, flush=True)

    building = make_building_1(n_aps=10)
    dataset = collect_fingerprints(
        building, BASE_DEVICES[:3], SurveyConfig(n_visits=1, seed=seed)
    )
    train, test = train_test_split(dataset, test_fraction=0.2, seed=seed)

    # Smoke trains long enough for VITAL to learn (~4.6 m against a
    # ~17.7 m chance floor at seed 0), so its int8 delta can show.
    vital_epochs = 50 if smoke else 80
    record: dict[str, dict] = {}

    # --- VITAL through the quantized fused engine
    log(f"  training VITAL ({vital_epochs} epochs) on the synthetic survey...")
    vital = VitalLocalizer(VitalConfig.fast(12, epochs=vital_epochs), seed=seed)
    vital.fit(train)
    float_session = vital.compile_inference(max_batch=32)
    calibration_images = vital.dam.process(
        train.features, training=False, as_image=True
    )
    calibration = calibrate_session(float_session, calibration_images[:64])
    float_error = _mean_error_m(vital, test)
    vital_errors = {}
    for scheme in SCHEMES:
        vital._session = QuantizedSession(
            float_session, scheme=scheme, mode="dequant", calibration=calibration
        )
        vital_errors[scheme] = _mean_error_m(vital, test)
    vital._session = float_session
    record["VITAL"] = {
        "float32_mean_error_m": float_error,
        **{f"{scheme}_mean_error_m": err for scheme, err in vital_errors.items()},
        **{f"{scheme}_delta_m": err - float_error
           for scheme, err in vital_errors.items()},
        "served_via": "QuantizedSession (dequant mode, calibrated)",
    }
    log(f"  VITAL: float {float_error:.2f} m, per-channel int8 "
        f"{vital_errors['per_channel']:.2f} m")

    # --- dense baselines via fake-quantized weights on the compiled path
    baselines = {
        "SHERPA": lambda: SherpaLocalizer(epochs=2 if smoke else 10, seed=seed),
        "CNNLoc": lambda: CnnLocLocalizer(
            epochs=4 if smoke else 30, sae_epochs=2 if smoke else 10, seed=seed
        ),
    }
    for name, factory in baselines.items():
        localizer = factory().fit(train)
        float_error = _mean_error_m(localizer, test)
        errors = _quantized_arm_errors(
            localizer, test,
            lambda scheme, loc=localizer: quantize_model(
                loc.network, bits=8, scheme=scheme
            ),
        )
        record[name] = {
            "float32_mean_error_m": float_error,
            **{f"{scheme}_mean_error_m": err for scheme, err in errors.items()},
            **{f"{scheme}_delta_m": err - float_error
               for scheme, err in errors.items()},
            "footprint_bytes": {
                "float32": model_size_bytes(localizer.network, bits=32),
                "int8": model_size_bytes(localizer.network, bits=8),
            },
        }
        log(f"  {name}: float {float_error:.2f} m, per-channel int8 "
            f"{errors['per_channel']:.2f} m")

    return {
        "survey": {"building": 1, "n_aps": 10, "devices": 3,
                   "records": len(dataset), "test_fraction": 0.2},
        "vital_epochs": vital_epochs,
        "chance_mean_error_m": _chance_error_m(test),
        "frameworks": record,
    }


def run_quantization_benchmark(
    image_size: int = 24,
    num_classes: int = 32,
    max_batch: int = 32,
    seed: int = 0,
    smoke: bool = False,
    verbose: bool = True,
) -> dict:
    """Run both experiment groups; returns the ``quantization`` record."""

    def log(message: str) -> None:
        if verbose:
            print(message, flush=True)

    log("engine experiment (fidelity / latency / footprint)...")
    engine = _engine_experiment(image_size, num_classes, max_batch, seed, smoke)
    log("accuracy experiment (synthetic survey)...")
    accuracy = _accuracy_experiment(seed, smoke, verbose)
    return {
        "config": {
            "image_size": image_size,
            "num_classes": num_classes,
            "max_batch": max_batch,
            "seed": seed,
            "smoke": smoke,
        },
        "engine": engine,
        "accuracy": accuracy,
    }


def format_quantization_summary(record: dict) -> str:
    """Human-readable summary of a quantization benchmark record."""
    engine = record["engine"]
    ratio = record["engine"]["snapshot_ratio_per_channel"]
    lines = [
        "quantization benchmark "
        f"(image={record['config']['image_size']}, "
        f"smoke={record['config']['smoke']})",
        "  snapshot bytes: "
        + " | ".join(
            f"{name} {engine['snapshot_bytes'][name]:,}"
            for name in ("float32", "per_tensor", "per_channel")
        )
        + f"  (per-channel = {ratio:.1%} of float32)",
        "  single-sample p50: "
        + " | ".join(
            f"{lane.removesuffix('_p50_ms')} {value:.3f} ms"
            for lane, value in engine["latency"].items()
        ),
    ]
    for scheme in SCHEMES:
        fidelity = engine["fidelity"][scheme]
        lines.append(
            f"  fidelity[{scheme}]: max|Δlogit| {fidelity['max_abs_diff']:.2e}, "
            f"argmax agreement {fidelity['argmax_agreement']:.1%}"
        )
    frameworks = record["accuracy"]["frameworks"]
    for name, row in frameworks.items():
        lines.append(
            f"  {name}: float {row['float32_mean_error_m']:.2f} m | "
            f"per-tensor {row['per_tensor_mean_error_m']:.2f} m | "
            f"per-channel {row['per_channel_mean_error_m']:.2f} m "
            f"(Δ {row['per_channel_delta_m']:+.3f} m)"
        )
    return "\n".join(lines)
