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

from repro.infer.ops import run_calls
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

    Runs the session's own compiled plan (the exact calls ``predict``
    makes), chunked through its scratch buffers like ``predict_many``,
    and observes each phase's output as the next site's input.
    """
    x = session._coerce(images)
    if len(x) == 0:
        raise ValueError("calibration needs at least one image")
    chunk = min(session.max_batch, max_batch or session.max_batch)
    sites = [f"block_{index}_tokens" for index in range(len(session.blocks))]
    sites += ["encoder_out", "pooled", "logits"]
    peaks: dict[str, float] = {}

    def observe(name: str, values: np.ndarray) -> None:
        peak = float(np.abs(values).max()) if values.size else 0.0
        peaks[name] = max(peaks.get(name, 0.0), peak)

    for begin in range(0, len(x), chunk):
        batch = x[begin : begin + chunk]
        plan = session._plan_for(len(batch))
        batch.reshape(len(batch), -1).take(session.patch_grid, 1, plan.patches)
        observe("patches", plan.patches)
        for site, (_name, calls, output) in zip(sites, plan.segments):
            run_calls(calls)
            observe(site, output)

    return Calibration(samples=len(x), activation_peaks=peaks)
