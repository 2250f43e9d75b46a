"""Allocation-lean NumPy kernels for the tape-free inference engine.

Every kernel writes into caller-provided scratch buffers (``out=`` /
in-place) so a compiled forward pass allocates no large intermediates.
The math mirrors the :class:`repro.tensor.Tensor` primitives bit-for-bit
modulo float32 rounding: the equivalence tests pin fused logits to the
reference forward within 1e-5.

Each kernel is defined once, as the list of NumPy calls it makes, bound
to its operands and scratch: ``layer_norm_calls``, ``softmax_calls``,
``gelu_calls``, ``dense_calls`` and :meth:`QuantizedLinear.matmul_calls`.
Calling a kernel (``layer_norm_``, ``softmax_``, ``gelu_``, ``dense_``,
:meth:`QuantizedLinear.matmul_into`) builds that list on fresh scratch
and runs it once; an :class:`repro.infer.InferenceSession` binds the
same lists into its per-batch-size plan and runs them on every call.
Ufuncs take their outputs and operands positionally, and scalar
operands are bound as read-only float32 0-d arrays
(:func:`scalar_operand`): NEP 50 rounds them exactly as it does a Python
float, and a ufunc takes one with less work per call than a scalar.
"""

from __future__ import annotations

from functools import partial

import numpy as np


def scalar_operand(value) -> np.ndarray:
    """``np.float32(value)`` as a read-only 0-d array, to bind as an
    operand."""
    array = np.array(value, dtype=np.float32)
    array.setflags(write=False)
    return array


# Abramowitz & Stegun 7.1.26: for z >= 0,
#   erfc(z) = (a1 t + a2 t^2 + a3 t^3 + a4 t^4 + a5 t^5) exp(-z^2),
#   t = 1 / (1 + p z),  |error| <= 1.5e-7.
# GELU needs Phi(x) = erfc(-x / sqrt2) / 2, so p is pre-divided by sqrt2
# (t is taken straight from |x|) and the a_i carry the 1/2.
_GELU_P = scalar_operand(0.3275911 / np.sqrt(2.0))
_GELU_A5, *_GELU_HORNER = (scalar_operand(0.5 * a) for a in (
    1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592,
))  # a5, then a4 .. a1 in Horner order
_ONE, _MINUS_HALF, _ZERO = (scalar_operand(v) for v in (1.0, -0.5, 0.0))


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


def run_calls(calls) -> None:
    """Run a kernel's call list once, in order."""
    for call in calls:
        call()


def layer_norm_calls(x: np.ndarray, eps: float, out: np.ndarray,
                     stat: np.ndarray) -> list:
    """The calls of :func:`layer_norm_`, bound to ``x``, ``out`` and
    ``stat`` (scratch of shape ``x.shape[:-1] + (1,)``, holding first the
    row mean, then the row scale).

    The mean is ``x.mean(axis=-1)`` as a sum and a float32 division by
    the row count.  NumPy's ``mean`` divides by an ``intp`` count in
    float64 and rounds to float32; that is the same float32 quotient,
    because float64 carries more than twice float32's precision, so the
    double rounding is innocuous (Figueroa 1995), and it avoids a
    casting loop.  The variance is one ``einsum``.
    """
    by_width = partial(np.true_divide, stat, scalar_operand(x.shape[-1]), stat)
    return [
        partial(np.add.reduce, x, -1, None, stat, True),
        by_width,
        partial(np.subtract, x, stat, out),
        partial(np.einsum, "...d,...d->...", out, out, out=stat[..., 0]),
        by_width,
        partial(np.add, stat, scalar_operand(eps), stat),
        partial(np.sqrt, stat, stat),
        partial(np.true_divide, out, stat, out),
    ]


def layer_norm_(x: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
    """Affine-free LayerNorm over the trailing axis, written into ``out``.

    The learnable gain/shift are folded into the next matmul by
    :func:`fold_norm_into_dense`, so the kernel only centers and scales.
    """
    stat = np.empty(x.shape[:-1] + (1,), dtype=np.float32)
    run_calls(layer_norm_calls(x, eps, out, stat))
    return out


def softmax_calls(x: np.ndarray, x_t: np.ndarray, stat: np.ndarray) -> list:
    """The calls of :func:`softmax_` on ``x`` (at least 2-D), bound to
    ``x_t`` (scratch of ``x``'s shape with the last two axes swapped) and
    ``stat`` (scratch of shape ``x.shape[:-1]``).

    The row max is reduced over a transposed copy, so the reduction runs
    along whole contiguous rows instead of once per short row; a max does
    not depend on order, so it is the same value.  The row sum keeps the
    trailing-axis reduction, whose order it does depend on.
    """
    peak = stat[..., None]
    return [
        partial(np.copyto, x_t, x.swapaxes(-1, -2)),
        partial(np.maximum.reduce, x_t, -2, None, stat),
        partial(np.subtract, x, peak, x),
        partial(np.exp, x, x),
        partial(np.add.reduce, x, -1, None, peak, True),
        partial(np.true_divide, x, peak, x),
    ]


def softmax_(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the trailing axis, fully in place."""
    x_t = np.empty(x.shape[:-2] + (x.shape[-1], x.shape[-2]), dtype=x.dtype)
    stat = np.empty(x.shape[:-1], dtype=x.dtype)
    run_calls(softmax_calls(x, x_t, stat))
    return x


def gelu_calls(x: np.ndarray, tmp: np.ndarray, tmp2: np.ndarray) -> list:
    """The calls of :func:`gelu_`, bound to ``x`` and its two scratch
    buffers."""
    calls = [
        partial(np.abs, x, tmp),
        partial(np.multiply, tmp, _GELU_P, tmp),
        partial(np.add, tmp, _ONE, tmp),
        partial(np.reciprocal, tmp, tmp),  # t
        partial(np.multiply, tmp, _GELU_A5, tmp2),
    ]
    for coeff in _GELU_HORNER:  # Horner: tmp2 = sum(a_i t^i) / 2
        calls += [partial(np.add, tmp2, coeff, tmp2),
                  partial(np.multiply, tmp2, tmp, tmp2)]
    return calls + [
        partial(np.multiply, x, x, tmp),
        partial(np.multiply, tmp, _MINUS_HALF, tmp),
        partial(np.exp, tmp, tmp),
        partial(np.multiply, tmp, tmp2, tmp),  # E = Phi(-|x|) = erfc(|x| / sqrt2) / 2
        # Phi(x) = 1 - E for x >= 0 and E for x < 0, i.e. |[x >= 0] - E|:
        # the Horner sum stays above 0.119 t on (0, 1], so 0 <= E <= 1/2
        # and the absolute value rounds nothing (a copysign of E by x
        # gives the same bits at 5x the cost).
        partial(np.greater_equal, x, _ZERO, tmp2),
        partial(np.subtract, tmp2, tmp, tmp2),
        partial(np.abs, tmp2, tmp2),
        partial(np.multiply, x, tmp2, x),
    ]


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
    run_calls(gelu_calls(x, tmp, tmp2))
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
    :meth:`matmul_calls` streams ``tile`` output columns at a time
    (:func:`tune_quant_tile`, fixed by the weight's shape) through a
    float32 cast panel and matmuls straight into the caller's output
    slice — no full float32 copy of the weight ever exists.  The panel is
    *cast* from int8, never multiplied by its scale; the weight scale
    lands on the output block instead, which is the same column scaling
    (``(x @ c) * s == x @ (c * s)`` up to float rounding) at a fraction of
    the per-call decode cost, since the output block has ``M x tile``
    elements against the panel's ``K x tile``.

    The panel belongs to the caller: an inference session binds one
    panel of its own, sized for its largest site, so a weight shared by
    several sessions holds no scratch and two sessions never write one
    panel.  Only a direct :meth:`matmul_into` call allocates a panel on
    the weight itself (lazily, excluded from pickles).

    :meth:`materialize` decodes to a full float32 matrix (for the
    dequantize-on-load serving mode).  A quantized session snapshot ships
    codes + scales only.
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

    @property
    def panel_size(self) -> int:
        """Float32 elements of the cast panel :meth:`matmul_calls` needs."""
        return self.codes.shape[0] * self.tile

    def materialize(self) -> np.ndarray:
        """Decode to one C-contiguous float32 weight matrix."""
        return np.ascontiguousarray(self.codes.astype(np.float32) * self.scales)

    def matmul_calls(self, x: np.ndarray, out: np.ndarray,
                     panel: np.ndarray) -> list:
        """The calls of ``x @ weight`` into ``out``, casting through
        ``panel`` (flat float32 scratch of at least :attr:`panel_size`
        elements): per panel of ``tile`` columns, cast the codes, matmul,
        scale the output block."""
        n_in, n_out = self.codes.shape
        if n_out == 0:
            return []
        if n_in == 0:
            # Empty reduction: the sum over zero products is exactly 0.
            return [partial(np.copyto, out, _ZERO)]
        width = self.tile
        grid = panel[: n_in * width].reshape(n_in, width)
        per_channel = self.scales.ndim == 1
        calls = []
        for begin in range(0, n_out, width):
            end = min(begin + width, n_out)
            w = grid[:, : end - begin]
            target = out[..., begin:end]
            scale = self.scales[begin:end] if per_channel else self.scales
            calls += [partial(np.copyto, w, self.codes[:, begin:end], "unsafe"),
                      partial(np.matmul, x, w, target),
                      partial(np.multiply, target, scale, target)]
        return calls

    def matmul_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``x @ weight`` written into ``out``, through this weight's own
        lazily allocated panel."""
        if self._scratch is None and self.codes.size:
            self._scratch = np.empty((self.codes.shape[0], self.tile),
                                     dtype=np.float32)
        panel = None if self._scratch is None else self._scratch.reshape(-1)
        run_calls(self.matmul_calls(x, out, panel))
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


def dense_calls(x: np.ndarray, weight, bias: np.ndarray | None,
                out: np.ndarray, panel: np.ndarray | None = None) -> list:
    """The calls of :func:`dense_` on 2-D ``x`` and C-contiguous 2-D
    ``out``: ``np.dot`` for a float32 weight (the same ``sgemm`` call as
    ``np.matmul``, with less dispatch), the weight's own
    :meth:`QuantizedLinear.matmul_calls` through ``panel`` for an int8
    one, then the bias add."""
    if isinstance(weight, QuantizedLinear):
        calls = weight.matmul_calls(x, out, panel)
    else:
        calls = [partial(np.dot, x, weight, out)]
    if bias is not None:
        calls.append(partial(np.add, out, bias, out))
    return calls


def dense_(x: np.ndarray, weight, bias: np.ndarray | None,
           out: np.ndarray) -> np.ndarray:
    """``x @ weight + bias`` written into ``out``.

    ``weight`` is a float32 array or a :class:`QuantizedLinear` (int8
    codes cast tile by tile, through a panel allocated for this call) —
    the call sites in the fused engine stay identical across precisions.
    """
    panel = None
    if isinstance(weight, QuantizedLinear):
        panel = np.empty(weight.panel_size, dtype=np.float32)
    run_calls(dense_calls(x, weight, bias, out, panel))
    return out
