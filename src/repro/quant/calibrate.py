"""Calibration: run representative fingerprint images through the engine.

Post-training weight quantization itself is data-free (the scales come
from the weight tensors), but a deployment should never ship a quantized
model blind.  :func:`calibrate_session` drives a batch of representative
RSSI images through the compiled float32 engine and records the absolute
activation peak at every matmul input — the patch gather, the token
stream entering each encoder block, the encoder output, the pooled head
input and the logits.
The resulting :class:`Calibration` is embedded in the quantized snapshot
and reported by the quantization benchmark, so the int8 deployment
carries evidence of the activation ranges it was validated on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.infer.ops import dense_, gelu_, layer_norm_
from repro.infer.session import InferenceSession


@dataclass
class Calibration:
    """Activation-range evidence gathered from representative images."""

    samples: int
    activation_peaks: dict[str, float] = field(default_factory=dict)

    def summary(self) -> dict:
        """JSON-serializable record embedded in snapshots and benchmarks."""
        return {
            "samples": self.samples,
            "activation_peaks": {
                name: float(peak) for name, peak in self.activation_peaks.items()
            },
        }

    def __repr__(self) -> str:
        peak = max(self.activation_peaks.values(), default=0.0)
        return (
            f"Calibration(samples={self.samples}, "
            f"sites={len(self.activation_peaks)}, max_peak={peak:.3g})"
        )


def calibrate_session(
    session: InferenceSession, images, max_batch: int | None = None
) -> Calibration:
    """Run ``images`` through ``session`` recording per-site activation peaks.

    Uses the session's own compiled blocks (the exact kernels the
    quantized engine reuses), chunked through its scratch buffers like
    ``predict_many``.
    """
    x = session._coerce(images)
    if len(x) == 0:
        raise ValueError("calibration needs at least one image")
    chunk = min(session.max_batch, max_batch or session.max_batch)
    peaks: dict[str, float] = {}

    def observe(name: str, values: np.ndarray) -> None:
        peak = float(np.abs(values).max()) if values.size else 0.0
        peaks[name] = max(peaks.get(name, 0.0), peak)

    for begin in range(0, len(x), chunk):
        batch = x[begin : begin + chunk]
        b = len(batch)
        flat = batch.reshape(b, -1)
        patches = np.take(flat, session.patch_grid, axis=1).astype(np.float32)
        observe("patches", patches)

        tokens = np.empty((b, session.num_patches, session.w_embed.shape[1]),
                          dtype=np.float32)
        dense_(patches, session.w_embed, None, out=tokens)
        tokens += session.pos_bias
        out = tokens
        for index, block in enumerate(session.blocks):
            observe(f"block_{index}_tokens", out)
            out = block.run(out)
        observe("encoder_out", out)

        normed = np.empty_like(out)
        layer_norm_(out, session.eps_final, out=normed)
        pooled = normed.mean(axis=1)
        observe("pooled", pooled)
        x2d = pooled
        for index, (w, bias) in enumerate(session.head_weights):
            target = np.empty((b, w.shape[1]), dtype=np.float32)
            dense_(x2d, w, bias, out=target)
            if index < len(session.head_weights) - 1:
                gelu_(target, np.empty_like(target), np.empty_like(target))
            x2d = target
        observe("logits", x2d)

    return Calibration(samples=len(x), activation_peaks=peaks)
