"""Quantized execution of the fused inference engine.

A :class:`QuantizedSession` takes a compiled float32
:class:`repro.infer.InferenceSession` (or a trained ``VitalModel``) and
re-expresses every packed matmul weight — the per-block QKV pack, the
attention output projection, the encoder MLP, the patch embedding and the
head denses — as int8 codes plus scales:

* ``scheme="per_channel"`` (default) gives every output channel of each
  weight its own scale (:func:`repro.nn.quantize_tensor_per_channel`);
  ``scheme="per_tensor"`` keeps the classic single-scale path.
* ``mode="dequant"`` decodes the weights back to float32 once at session
  build — zero steady-state overhead, identical kernels to the float
  engine; ``mode="int8"`` keeps the weights int8-resident and casts them
  tile by tile inside each matmul (:class:`repro.infer.QuantizedLinear`)
  into one float32 panel the session owns, sized for its largest site,
  cutting the resident weight footprint ~4x.  There is one int8 engine: snapshots that
  recorded ``matmul="int8_accumulate"`` (a retired engine that also
  quantized the activations) restore onto it.

Biases, the fused position-embedding add and the LayerNorm epsilons stay
float32 — they are a rounding-error fraction of the footprint and
quantizing them buys nothing.

Either mode snapshots to the same int8 wire format
(:data:`QUANT_SNAPSHOT_FORMAT`): ``snapshot()`` ships codes + scales, so
seeding :class:`repro.serve.LocalizationServer` workers costs ~4x fewer
pickled bytes than a float32 snapshot, and ``from_snapshot`` rebuilds a
serving-ready session without ever materializing the original model.
"""

from __future__ import annotations

import numpy as np

from repro.infer.ops import QuantizedLinear
from repro.infer.session import (
    InferenceSession,
    _BlockProgram,
    _drop_legacy_keys,
    _validate_max_batch,
    _validate_state,
)
from repro.nn.quantization import quantize_tensor, quantize_tensor_per_channel
from repro.quant.calibrate import Calibration, calibrate_session

#: Version tag of the quantized snapshot wire format.
QUANT_SNAPSHOT_FORMAT = "repro.quant.session/v1"

#: Weight-scale granularities.
SCHEMES = ("per_tensor", "per_channel")

#: Execution modes: decode once at build vs. int8-resident tiled decode.
MODES = ("dequant", "int8")

#: Accepted values of the ``matmul=`` keyword.  There is one int8
#: engine (cast int8 tiles to float32 inside the matmul), so both name
#: it and neither selects anything; the keyword stays for callers that
#: pass ``matmul="auto"``.
MATMULS = ("auto", "dequant_tile")


def _quantize_weight(weight: np.ndarray, scheme: str, bits: int) -> QuantizedLinear:
    """One compiled (in, out) weight matrix → int8 codes + scale(s)."""
    if scheme == "per_channel":
        codes, scales = quantize_tensor_per_channel(weight, axis=-1, bits=bits)
    else:
        codes, scales = quantize_tensor(weight, bits=bits)
    return QuantizedLinear(codes, scales)


def _quantize_state(state: dict, scheme: str, bits: int) -> dict:
    """Session state → the same structure with int8 weights.

    Blocks are stored as their plain ``__getstate__`` dicts so the
    snapshot pickles without any scratch machinery; biases stay float32.
    """
    qstate = dict(state)
    # Flat pixel indices are < image_size**2 * channels, so int32 is a
    # lossless halving of the gather grid's wire size.
    qstate["patch_grid"] = np.ascontiguousarray(state["patch_grid"], dtype=np.int32)
    qstate["w_embed"] = _quantize_weight(state["w_embed"], scheme, bits)
    qblocks = []
    for block in state["blocks"]:
        data = dict(block.__getstate__())
        data["w_qkv"] = _quantize_weight(data["w_qkv"], scheme, bits)
        data["w_out"] = _quantize_weight(data["w_out"], scheme, bits)
        data["mlp_weights"] = [
            (_quantize_weight(w, scheme, bits), bias)
            for w, bias in data["mlp_weights"]
        ]
        qblocks.append(data)
    qstate["blocks"] = qblocks
    qstate["head_weights"] = [
        (_quantize_weight(w, scheme, bits), bias)
        for w, bias in state["head_weights"]
    ]
    return qstate


def _executable_state(qstate: dict, mode: str, max_batch: int | None) -> dict:
    """Quantized state → the state the engine actually runs on.

    ``dequant`` materializes every :class:`QuantizedLinear` to float32;
    ``int8`` wires the quantized objects straight into the blocks
    (:func:`repro.infer.ops.dense_calls` dispatches on the weight type).
    """

    def resolve(weight):
        if mode == "dequant" and isinstance(weight, QuantizedLinear):
            return weight.materialize()
        return weight

    state = dict(qstate)
    if max_batch is not None:
        state["max_batch"] = _validate_max_batch(max_batch)
    state["w_embed"] = resolve(qstate["w_embed"])
    blocks = []
    for data in qstate["blocks"]:
        data = dict(data)
        data["w_qkv"] = resolve(data["w_qkv"])
        data["w_out"] = resolve(data["w_out"])
        data["mlp_weights"] = [(resolve(w), bias) for w, bias in data["mlp_weights"]]
        if max_batch is not None:
            data["_max_batch"] = state["max_batch"]
        block = _BlockProgram.__new__(_BlockProgram)
        block.__setstate__(data)
        blocks.append(block)
    state["blocks"] = blocks
    state["head_weights"] = [(resolve(w), bias) for w, bias in qstate["head_weights"]]
    return state


def _iter_weight_arrays(state: dict):
    """Every weight/bias array (or QuantizedLinear) of a session state."""
    yield state["w_embed"]
    yield state["pos_bias"]
    for block in state["blocks"]:
        data = block if isinstance(block, dict) else block.__getstate__()
        yield data["w_qkv"]
        yield data["b_qkv"]
        yield data["w_out"]
        yield data["b_out"]
        for w, bias in data["mlp_weights"]:
            yield w
            if bias is not None:
                yield bias
    for w, bias in state["head_weights"]:
        yield w
        if bias is not None:
            yield bias


def _state_weight_bytes(state: dict) -> int:
    return int(sum(arr.nbytes for arr in _iter_weight_arrays(state)))


class QuantizedSession(InferenceSession):
    """The fused ViT engine running on calibrated int8 weights.

    Parameters
    ----------
    source:
        A compiled float32 :class:`InferenceSession` or a trained
        ``VitalModel`` (compiled on the fly).
    scheme:
        ``"per_channel"`` (default) or ``"per_tensor"`` weight scales.
    mode:
        ``"dequant"`` — decode to float32 at build, zero steady-state
        overhead; ``"int8"`` — int8-resident weights, per-tile decode
        inside the packed matmuls.
    bits:
        Code width, 2..8 (codes ship as int8 either way).
    matmul:
        ``"auto"`` or ``"dequant_tile"``; selects nothing (see
        :data:`MATMULS`) and raises ``ValueError`` on any other value.
    calibration / calibration_images:
        Either a ready :class:`repro.quant.Calibration` or a batch of
        representative images to run through the float engine before
        quantizing; the evidence is embedded in every snapshot.
    """

    def __init__(
        self,
        source,
        scheme: str = "per_channel",
        mode: str = "dequant",
        bits: int = 8,
        max_batch: int | None = None,
        matmul: str = "auto",
        calibration: Calibration | dict | None = None,
        calibration_images=None,
    ):
        if isinstance(source, QuantizedSession):
            raise TypeError(
                "source is already a QuantizedSession; re-quantizing "
                "quantized weights would compound rounding (build from the "
                "float32 session or model instead)"
            )
        if not 2 <= bits <= 8:
            raise ValueError(f"bits must be in [2, 8] for int8 codes, got {bits}")
        if matmul not in MATMULS:
            raise ValueError(f"matmul must be one of {MATMULS}, got {matmul!r}")
        if isinstance(source, InferenceSession):
            base = source
        else:
            base = InferenceSession(source, max_batch=max_batch or 32)
        if calibration is None and calibration_images is not None:
            calibration = calibrate_session(base, calibration_images)
        self._install(
            _quantize_state(base.__getstate__(), _check_scheme(scheme), bits),
            scheme=scheme,
            mode=mode,
            bits=bits,
            calibration=calibration,
            max_batch=max_batch,
        )

    # ------------------------------------------------------------------
    def _install(
        self,
        qstate: dict,
        scheme: str,
        mode: str,
        bits: int,
        calibration,
        max_batch: int | None = None,
    ) -> None:
        """Wire quantized state + metadata into a runnable session."""
        self.scheme = _check_scheme(scheme)
        self.mode = _check_mode(mode)
        self.bits = int(bits)
        if isinstance(calibration, Calibration):
            calibration = calibration.summary()
        self.calibration = calibration
        self._qstate = _drop_legacy_keys(qstate)
        InferenceSession.__setstate__(
            self, _executable_state(self._qstate, mode, max_batch))

    # -- snapshot / restore -------------------------------------------
    def snapshot(self) -> dict:
        """Int8 snapshot: codes + scales + float biases + geometry.

        ~4x fewer pickled bytes than the float32
        :meth:`InferenceSession.snapshot`, which is exactly what crosses
        a worker's task pipe when a
        :class:`repro.serve.LocalizationServer` seeds its workers.
        """
        return {
            "format": QUANT_SNAPSHOT_FORMAT,
            "scheme": self.scheme,
            "mode": self.mode,
            "bits": self.bits,
            "calibration": self.calibration,
            "state": self._qstate,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict,
                      mode: str | None = None) -> "QuantizedSession":
        """Rebuild from :meth:`snapshot`; ``mode`` optionally overrides the
        recorded execution mode (the wire format is identical for both).
        A ``matmul`` entry recorded by older snapshots is ignored: they
        all restore onto the one int8 engine."""
        if not isinstance(snapshot, dict) or snapshot.get("format") != QUANT_SNAPSHOT_FORMAT:
            raise ValueError(
                f"not a QuantizedSession snapshot (expected format "
                f"{QUANT_SNAPSHOT_FORMAT!r}, got "
                f"{snapshot.get('format') if isinstance(snapshot, dict) else snapshot!r})"
            )
        session = cls.__new__(cls)
        session._install(
            _validate_state(snapshot.get("state"), QUANT_SNAPSHOT_FORMAT),
            scheme=snapshot["scheme"],
            mode=mode or snapshot["mode"],
            bits=snapshot["bits"],
            calibration=snapshot.get("calibration"),
        )
        return session

    def __getstate__(self) -> dict:
        # Direct pickles ship the compact quantized state, not the
        # (possibly materialized float32) execution arrays.
        return {
            "qstate": self._qstate,
            "scheme": self.scheme,
            "mode": self.mode,
            "bits": self.bits,
            "calibration": self.calibration,
        }

    def __setstate__(self, state: dict) -> None:
        self._install(
            state["qstate"],
            scheme=state["scheme"],
            mode=state["mode"],
            bits=state["bits"],
            calibration=state.get("calibration"),
        )

    # -- metadata ------------------------------------------------------
    def info(self) -> dict:
        """Snapshot metadata (geometry + scheme/mode/bits) — what the
        :mod:`repro.fleet` registry records in a version manifest."""
        from repro.infer.session import snapshot_info

        return snapshot_info(self.snapshot())

    def gemm_sites(self) -> list[dict]:
        """Base sites tagged with the session's scheme and mode."""
        sites = super().gemm_sites()
        for site in sites:
            site["scheme"] = self.scheme
            site["mode"] = self.mode
        return sites

    # -- footprint accounting -----------------------------------------
    def quantized_weight_bytes(self) -> int:
        """Bytes of the quantized weight payload (what a snapshot ships)."""
        return _state_weight_bytes(self._qstate)

    def resident_weight_bytes(self) -> int:
        """Bytes of the weights this session actually holds in memory.

        ``int8`` mode holds only the int8 codes (the execution state and
        the snapshot state share the same :class:`QuantizedLinear`
        objects, which hold no decode scratch).  Beside them the session
        keeps one float32 cast panel in its scratch, sized for its
        largest site (``n_in x tile`` floats: 63,488 B at the served
        24x24 geometry, against 57,088 B of codes); it is scratch, so it
        is not counted here.  ``dequant`` mode holds the materialized
        float32 arrays *plus* the retained codes — the codes stay resident so
        :meth:`snapshot` can re-ship the compact wire format (which the
        serving layer relies on when re-seeding workers), making dequant a
        latency choice, not a memory saving.
        """
        resident = _state_weight_bytes(InferenceSession.__getstate__(self))
        if self.mode == "dequant":
            resident += self.quantized_weight_bytes()
        return resident

    def __repr__(self) -> str:
        return (
            f"QuantizedSession(image={self.image_size}, "
            f"blocks={len(self.blocks)}, classes={self.num_classes}, "
            f"scheme={self.scheme}, mode={self.mode}, bits={self.bits}, "
            f"max_batch={self.max_batch})"
        )


def _check_scheme(scheme: str) -> str:
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    return scheme


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def quantize_session(
    source,
    scheme: str = "per_channel",
    mode: str = "dequant",
    bits: int = 8,
    matmul: str = "auto",
    calibration_images=None,
    max_batch: int | None = None,
) -> QuantizedSession:
    """Calibrate (when images are given) and quantize in one call;
    ``matmul`` is validated as in :class:`QuantizedSession`."""
    return QuantizedSession(
        source,
        scheme=scheme,
        mode=mode,
        bits=bits,
        matmul=matmul,
        max_batch=max_batch,
        calibration_images=calibration_images,
    )
