"""Allocation-lean NumPy kernels for the tape-free inference engine.

Every kernel writes into caller-provided scratch buffers (``out=`` /
in-place) so a compiled forward pass allocates no large intermediates.
The math mirrors the :class:`repro.tensor.Tensor` primitives bit-for-bit
modulo float32 rounding: the equivalence tests pin fused logits to the
reference forward within 1e-5.
"""

from __future__ import annotations

import numpy as np

# Abramowitz & Stegun 7.1.26: for z >= 0,
#   erfc(z) = (a1 t + a2 t^2 + a3 t^3 + a4 t^4 + a5 t^5) exp(-z^2),
#   t = 1 / (1 + p z),  |error| <= 1.5e-7.
# GELU needs Phi(x) = erfc(-x / sqrt2) / 2, so p is pre-divided by sqrt2
# (t is taken straight from |x|) and the a_i carry the 1/2.
_GELU_P = np.float32(0.3275911 / np.sqrt(2.0))
_GELU_A5, *_GELU_HORNER = (np.float32(0.5 * a) for a in (
    1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592,
))  # a5, then a4 .. a1 in Horner order


def contiguous_f32(array: np.ndarray) -> np.ndarray:
    """Copy ``array`` into a fresh C-contiguous float32 array."""
    return np.ascontiguousarray(np.asarray(array), dtype=np.float32)


def fold_norm_into_dense(
    gamma: np.ndarray,
    beta: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold LayerNorm affine parameters into the following dense layer.

    ``LN(x) @ W + c`` with ``LN(x) = g * n(x) + b`` (``n`` the affine-free
    normalization) equals ``n(x) @ (g[:, None] * W) + (b @ W + c)``; the
    fold is exact, so the engine only ever computes ``n(x)`` and one
    matmul.  Folding runs in float64 and rounds once to float32.
    """
    w64 = np.asarray(weight, dtype=np.float64)
    g64 = np.asarray(gamma, dtype=np.float64)
    b64 = np.asarray(beta, dtype=np.float64)
    folded_w = g64[:, None] * w64
    folded_b = b64 @ w64
    if bias is not None:
        folded_b = folded_b + np.asarray(bias, dtype=np.float64)
    return contiguous_f32(folded_w), contiguous_f32(folded_b)


def layer_norm_(x: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
    """Affine-free LayerNorm over the trailing axis, written into ``out``.

    The learnable gain/shift are folded into the next matmul by
    :func:`fold_norm_into_dense`, so the kernel only centers and scales.
    """
    mean = x.mean(axis=-1, keepdims=True)
    np.subtract(x, mean, out=out)
    var = np.einsum("...d,...d->...", out, out)[..., None]
    var /= x.shape[-1]
    var += eps
    np.sqrt(var, out=var)
    out /= var
    return out


def softmax_(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the trailing axis, fully in place."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def gelu_(x: np.ndarray, tmp: np.ndarray, tmp2: np.ndarray) -> np.ndarray:
    """GELU ``x * Phi(x)`` applied in place to float32 ``x``; returns ``x``.

    ``Phi`` is the standard normal CDF, evaluated as a float32 erfc from
    NumPy ufuncs with the Abramowitz & Stegun 7.1.26 rational
    approximation (``|erf error| <= 1.5e-7``), so the GELU error is at
    most ``7.5e-8 * |x|`` plus float32 rounding; the measured maximum
    against the float64 ``x * (1 + erf(x / sqrt2)) / 2`` is below 1e-6 on
    ``[-12, 12]``.  ``tmp`` and ``tmp2`` are caller-owned scratch of
    ``x``'s shape; nothing else is written or allocated.  The training
    path (``Tensor.gelu``) keeps ``scipy.special.erf`` as the reference.
    """
    np.abs(x, out=tmp)
    tmp *= _GELU_P
    tmp += 1.0
    np.reciprocal(tmp, out=tmp)  # t
    np.multiply(tmp, _GELU_A5, out=tmp2)
    for coeff in _GELU_HORNER:  # Horner: tmp2 = sum(a_i t^i) / 2
        tmp2 += coeff
        tmp2 *= tmp
    np.multiply(x, x, out=tmp)
    tmp *= -0.5
    np.exp(tmp, out=tmp)
    tmp *= tmp2  # E = Phi(-|x|) = erfc(|x| / sqrt2) / 2
    # Phi(x) = 1 - E for x >= 0 and E for x < 0, i.e. [x >= 0] - sign(x) E
    np.copysign(tmp, x, out=tmp)
    np.greater_equal(x, 0.0, out=tmp2)
    tmp2 -= tmp
    x *= tmp2
    return x


#: Float32 scratch budget for one quantized decode/cast panel (~L2-sized).
QUANT_PANEL_CAP_BYTES = 512 * 1024


def tune_quant_tile(n_in: int, n_out: int,
                    cap_bytes: int = QUANT_PANEL_CAP_BYTES) -> int:
    """Panel width for a quantized ``(n_in, n_out)`` weight's in-matmul
    decode/cast scratch: as wide as the cache budget allows.

    Narrow fixed tiles starve BLAS — the PR-3 default of 64 columns
    measures ~1.9x slower than a full-width panel at the serving shapes
    of this model family — while the byte cap keeps the float32 panel of
    a genuinely large layer cache-resident.  Deterministic (size-based,
    no timing), so snapshots restored on another host bind identically.
    """
    if n_out < 1:
        return 1
    width = max(1, cap_bytes // (4 * max(1, n_in)))
    return min(n_out, width)


class QuantizedLinear:
    """An int8 weight matrix executed by casting tiles inside the matmul.

    Holds ``(in, out)`` int8 codes plus either one scalar scale
    (per-tensor) or a ``(out,)`` per-output-channel scale vector, so the
    resident weight footprint stays ~4x below float32.
    :meth:`matmul_into` streams ``tile`` output columns at a time
    (:func:`tune_quant_tile`, fixed by the weight's shape) through one
    reusable float32 scratch panel and matmuls straight into the
    caller's output slice — no full float32 copy of the weight ever
    exists.  The panel is *cast* from int8, never multiplied by its
    scale; the weight scale lands on the output block instead, which is
    the same column scaling (``(x @ c) * s == x @ (c * s)`` up to float
    rounding) at a fraction of the per-call decode cost, since the
    output block has ``M x tile`` elements against the panel's
    ``K x tile``.

    :meth:`materialize` decodes to a full float32 matrix (for the
    dequantize-on-load serving mode).  The scratch panel is lazily
    allocated and excluded from pickles, so a quantized session snapshot
    ships codes + scales only.
    """

    __slots__ = ("codes", "scales", "tile", "_scratch")

    def __init__(self, codes: np.ndarray, scales):
        codes = np.asarray(codes)
        if not np.issubdtype(codes.dtype, np.integer):
            raise ValueError(f"codes must be integers, got dtype {codes.dtype}")
        if codes.dtype != np.int8 and codes.size and (
            codes.min() < -128 or codes.max() > 127
        ):
            raise ValueError(
                f"codes exceed the int8 range (dtype {codes.dtype}); "
                "QuantizedLinear stores 8-bit codes only"
            )
        codes = np.ascontiguousarray(codes, dtype=np.int8)
        if codes.ndim != 2:
            raise ValueError(f"QuantizedLinear needs a 2-D weight, got {codes.shape}")
        scales = np.asarray(scales, dtype=np.float32)
        if scales.ndim not in (0, 1) or (
            scales.ndim == 1 and len(scales) != codes.shape[1]
        ):
            raise ValueError(
                f"scales must be scalar or ({codes.shape[1]},), got {scales.shape}"
            )
        self.codes = codes
        self.scales = scales
        self.tile = tune_quant_tile(*codes.shape)
        self._scratch = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape

    @property
    def nbytes(self) -> int:
        """Resident weight bytes (codes + scales)."""
        return self.codes.nbytes + self.scales.nbytes

    def materialize(self) -> np.ndarray:
        """Decode to one C-contiguous float32 weight matrix."""
        return np.ascontiguousarray(self.codes.astype(np.float32) * self.scales)

    def matmul_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``x @ weight`` written into ``out``, one cast panel at a time."""
        n_in, n_out = self.codes.shape
        if n_out == 0:
            return out
        if n_in == 0:
            # Empty reduction: the sum over zero products is exactly 0.
            out[...] = 0.0
            return out
        width = self.tile
        if self._scratch is None:
            self._scratch = np.empty((n_in, width), dtype=np.float32)
        per_channel = self.scales.ndim == 1
        for begin in range(0, n_out, width):
            end = min(begin + width, n_out)
            w = self._scratch[:, : end - begin]
            np.copyto(w, self.codes[:, begin:end], casting="unsafe")
            target = out[..., begin:end]
            np.matmul(x, w, out=target)
            scale = self.scales[begin:end] if per_channel else self.scales
            np.multiply(target, scale, out=target)
        return out

    def __getstate__(self) -> dict:
        return {"codes": self.codes, "scales": self.scales}

    def __setstate__(self, state: dict) -> None:
        # Older pickles also carry ``tile`` and ``matmul_mode``; the panel
        # width is a function of the shape and there is one engine, so
        # both are ignored.
        self.codes = state["codes"]
        self.scales = state["scales"]
        self.tile = tune_quant_tile(*self.codes.shape)
        self._scratch = None

    def __repr__(self) -> str:
        granularity = "per_channel" if self.scales.ndim == 1 else "per_tensor"
        return f"QuantizedLinear(shape={self.codes.shape}, {granularity})"


def dense_(x: np.ndarray, weight, bias: np.ndarray | None,
           out: np.ndarray) -> np.ndarray:
    """``x @ weight + bias`` written into ``out`` (strided ``out`` is fine).

    ``weight`` is a float32 array or a :class:`QuantizedLinear` (int8
    codes cast tile by tile) — the call sites in the fused engine stay
    identical across precisions.
    """
    if isinstance(weight, QuantizedLinear):
        weight.matmul_into(x, out)
    else:
        np.matmul(x, weight, out=out)
    if bias is not None:
        out += bias
    return out
