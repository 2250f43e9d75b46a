"""Generic tape-free compiler for sequential :class:`repro.nn.Module` stacks.

:func:`compile_module` walks a module tree (``Sequential`` / ``ModuleList``
containers and leaf layers) in forward order and emits a flat list of pure
NumPy ops over contiguous float32 weight exports.  LayerNorm and eval-mode
BatchNorm1d are folded into the dense layer *or* the packed QKV projection
of the attention block that follows them; Dropout and Identity disappear
entirely.  This covers the dense baseline networks (SHERPA's feature
extractor, WiDeep's autoencoder encoder, MLP heads), the CNNLoc
convolutional stack (Conv1d / MaxPool1d / GlobalAveragePool1d) and —
via :class:`repro.nn.MultiHeadSelfAttention` support plus the
:class:`Residual` / :class:`AddConstant` / :class:`TokenMeanPool` chain
wrappers — the ANVIL attention encoder (the last Fig. 7 framework without
a tape-free serving path); the ViT has its own dedicated engine in
:class:`repro.infer.InferenceSession`.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np
from scipy import special as _special

from repro import nn
from repro.infer.ops import contiguous_f32, fold_norm_into_dense, softmax_
from repro.infer.session import _validate_max_batch

_Op = Callable[[np.ndarray], np.ndarray]


class UnsupportedModuleError(TypeError):
    """Raised when a module cannot be compiled to a tape-free program."""


class Residual:
    """Chain wrapper: ``y = x + chain(x)`` over the wrapped modules.

    Lets :func:`compile_chain` express pre-norm residual blocks
    (``x + attention(norm(x))``) without forcing the network itself into a
    Sequential shape.
    """

    def __init__(self, *modules: nn.Module):
        self.modules = modules


class AddConstant:
    """Chain wrapper: add a fixed array (e.g. learned position embeddings)."""

    def __init__(self, values: np.ndarray):
        self.values = contiguous_f32(values)


class TokenMeanPool:
    """Chain wrapper: mean over the token axis, ``(B, N, D) → (B, D)``."""

    def __init__(self, axis: int = 1):
        self.axis = int(axis)


def _flatten(module: nn.Module) -> list[nn.Module]:
    """Leaf layers of a Sequential/ModuleList tree in forward order."""
    if isinstance(module, nn.Sequential):
        leaves: list[nn.Module] = []
        for child in module.layers:
            leaves.extend(_flatten(child))
        return leaves
    if isinstance(module, nn.ModuleList):
        leaves = []
        for child in module:
            leaves.extend(_flatten(child))
        return leaves
    return [module]


def _activation_op(layer: nn.Module) -> _Op | None:
    if isinstance(layer, nn.ReLU):
        return lambda x: np.maximum(x, 0.0)
    if isinstance(layer, nn.GELU):
        return lambda x: x * (0.5 * (1.0 + _special.erf(x * np.float32(2**-0.5))))
    if isinstance(layer, nn.Tanh):
        return np.tanh
    if isinstance(layer, nn.Sigmoid):
        return _special.expit
    if isinstance(layer, nn.LeakyReLU):
        alpha = np.float32(layer.alpha)
        return lambda x: np.where(x > 0, x, x * alpha)
    if isinstance(layer, nn.Softmax):
        axis = layer.axis

        def softmax(x):
            shifted = x - x.max(axis=axis, keepdims=True)
            np.exp(shifted, out=shifted)
            shifted /= shifted.sum(axis=axis, keepdims=True)
            return shifted

        return softmax
    return None


def _dense_op(weight: np.ndarray, bias: np.ndarray | None) -> _Op:
    if bias is None:
        return lambda x: x @ weight
    return lambda x: x @ weight + bias


def _conv1d_op(weight: np.ndarray, bias: np.ndarray | None,
               stride: int, padding: int, in_channels: int) -> _Op:
    """Channels-first 1-D cross-correlation matching :func:`repro.nn.conv1d`.

    A 2-D ``(batch, length)`` input is promoted to ``(batch, 1, length)``
    when the layer expects a single channel — the CNNLoc head feeds its SAE
    code to the convolution exactly this way.
    """
    def conv(x: np.ndarray) -> np.ndarray:
        if x.ndim == 2 and in_channels == 1:
            x = x[:, None, :]
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding))) if padding else x
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, weight.shape[2], axis=2
        )[:, :, ::stride]
        out = np.einsum("bclk,ock->bol", windows, weight, optimize=True)
        if bias is not None:
            out += bias[None, :, None]
        return out

    return conv


def _attention_op(attn: nn.MultiHeadSelfAttention,
                  gamma: np.ndarray | None = None,
                  beta: np.ndarray | None = None) -> _Op:
    """Eval-mode multi-head self-attention over ``(B, N, D)`` sequences.

    The Q/K/V projections are packed into one ``(D, 3D)`` matmul exactly
    like the ViT engine (:class:`repro.infer.InferenceSession`); when the
    attention follows a LayerNorm its affine parameters are folded into
    the packed projection, so only the affine-free normalization runs at
    serve time.  Attention-weight dropout vanishes in eval mode.
    """
    heads, head_dim, dim = attn.heads, attn.head_dim, attn.dim
    packed_w = np.concatenate(
        [attn.query.weight.data, attn.key.weight.data, attn.value.weight.data],
        axis=1,
    )
    packed_b = np.concatenate(
        [attn.query.bias.data, attn.key.bias.data, attn.value.bias.data]
    )
    if gamma is not None:
        packed_w, packed_b = fold_norm_into_dense(gamma, beta, packed_w, packed_b)
    else:
        packed_w, packed_b = contiguous_f32(packed_w), contiguous_f32(packed_b)
    w_out = contiguous_f32(attn.out.weight.data)
    b_out = contiguous_f32(attn.out.bias.data)
    scale = np.float32(attn.scale)

    def attention(x: np.ndarray) -> np.ndarray:
        b, seq, _d = x.shape
        qkv = (x @ packed_w + packed_b).reshape(b, seq, 3, heads, head_dim)
        q = qkv[:, :, 0].transpose(0, 2, 1, 3)  # (b, h, N, hd) views
        k = qkv[:, :, 1].transpose(0, 2, 1, 3)
        v = qkv[:, :, 2].transpose(0, 2, 1, 3)
        scores = softmax_((q @ k.transpose(0, 1, 3, 2)) * scale)
        merged = (scores @ v).transpose(0, 2, 1, 3).reshape(b, seq, dim)
        return merged @ w_out + b_out

    return attention


def _max_pool1d_op(kernel: int, stride: int) -> _Op:
    def pool(x: np.ndarray) -> np.ndarray:
        windows = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=2)[:, :, ::stride]
        return windows.max(axis=-1)

    return pool


def _norm_op(gamma, beta, eps: float) -> _Op:
    def norm(x):
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = np.square(centered).mean(axis=-1, keepdims=True)
        return centered / np.sqrt(var + eps) * gamma + beta

    return norm


def _affine_free_norm_op(eps: float) -> _Op:
    def norm(x):
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = np.square(centered).mean(axis=-1, keepdims=True)
        return centered / np.sqrt(var + eps)

    return norm


class CompiledModule:
    """A tape-free program compiled from a sequential module stack."""

    def __init__(self, ops: list[_Op], source: str):
        self._ops = ops
        self.source = source

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Forward plain NumPy features through the compiled program."""
        x = np.asarray(features, dtype=np.float32)
        for op in self._ops:
            x = op(x)
        return x

    def predict_many(self, features: np.ndarray, max_batch: int = 256) -> np.ndarray:
        """Micro-batched forward for large server-style workloads."""
        max_batch = _validate_max_batch(max_batch)
        x = np.asarray(features, dtype=np.float32)
        if len(x) <= max_batch:
            return self.predict(x)
        chunks = [self.predict(x[b : b + max_batch]) for b in range(0, len(x), max_batch)]
        return np.concatenate(chunks, axis=0)

    def __call__(self, features: np.ndarray) -> np.ndarray:
        return self.predict(features)

    def __repr__(self) -> str:
        return f"CompiledModule({self.source}, ops={len(self._ops)})"


def compile_chain(modules: Iterable[nn.Module],
                  source: str = "chain") -> CompiledModule:
    """Compile an explicit sequence of modules applied one after another."""
    leaves: list[nn.Module] = []
    for module in modules:
        leaves.extend(_flatten(module))

    ops: list[_Op] = []
    index = 0
    while index < len(leaves):
        layer = leaves[index]
        if isinstance(layer, (nn.Dropout, nn.Identity)):
            index += 1
            continue
        if isinstance(layer, Residual):
            inner = compile_chain(layer.modules, source=f"{source}.residual")
            ops.append(lambda x, _inner=inner: x + _inner.predict(x))
            index += 1
            continue
        if isinstance(layer, AddConstant):
            ops.append(lambda x, _values=layer.values: x + _values)
            index += 1
            continue
        if isinstance(layer, TokenMeanPool):
            ops.append(lambda x, _axis=layer.axis: x.mean(axis=_axis))
            index += 1
            continue
        if isinstance(layer, nn.MultiHeadSelfAttention):
            ops.append(_attention_op(layer))
            index += 1
            continue
        if isinstance(layer, nn.Flatten):
            ops.append(lambda x: x.reshape(len(x), -1))
            index += 1
            continue
        if isinstance(layer, nn.Dense):
            ops.append(_dense_op(
                contiguous_f32(layer.weight.data),
                contiguous_f32(layer.bias.data) if layer.bias is not None else None,
            ))
            index += 1
            continue
        if isinstance(layer, nn.Conv1d):
            ops.append(_conv1d_op(
                contiguous_f32(layer.weight.data),
                contiguous_f32(layer.bias.data) if layer.bias is not None else None,
                layer.stride,
                layer.padding,
                layer.in_channels,
            ))
            index += 1
            continue
        if isinstance(layer, nn.MaxPool1d):
            ops.append(_max_pool1d_op(layer.kernel_size, layer.stride))
            index += 1
            continue
        if isinstance(layer, nn.GlobalAveragePool1d):
            ops.append(lambda x: x.mean(axis=-1))
            index += 1
            continue
        if isinstance(layer, nn.LayerNorm):
            # Fold the affine parameters into an immediately following
            # Dense or attention QKV projection.
            following = leaves[index + 1] if index + 1 < len(leaves) else None
            if isinstance(following, nn.Dense):
                w, b = fold_norm_into_dense(
                    layer.gamma.data,
                    layer.beta.data,
                    following.weight.data,
                    following.bias.data if following.bias is not None else None,
                )
                ops.append(_affine_free_norm_op(layer.eps))
                ops.append(_dense_op(w, b))
                index += 2
            elif isinstance(following, nn.MultiHeadSelfAttention):
                ops.append(_affine_free_norm_op(layer.eps))
                ops.append(_attention_op(
                    following, layer.gamma.data, layer.beta.data
                ))
                index += 2
            else:
                ops.append(_norm_op(
                    contiguous_f32(layer.gamma.data),
                    contiguous_f32(layer.beta.data),
                    layer.eps,
                ))
                index += 1
            continue
        if isinstance(layer, nn.BatchNorm1d):
            # Eval-mode batch norm is a per-feature affine map; precompute it.
            scale = layer.gamma.data / np.sqrt(layer.running_var + layer.eps)
            shift = layer.beta.data - layer.running_mean * scale
            following = leaves[index + 1] if index + 1 < len(leaves) else None
            if isinstance(following, nn.Dense):
                w, b = fold_norm_into_dense(
                    scale,
                    shift,
                    following.weight.data,
                    following.bias.data if following.bias is not None else None,
                )
                ops.append(_dense_op(w, b))
                index += 2
            else:
                ops.append(_dense_op_affine(contiguous_f32(scale), contiguous_f32(shift)))
                index += 1
            continue
        activation = _activation_op(layer)
        if activation is not None:
            ops.append(activation)
            index += 1
            continue
        raise UnsupportedModuleError(
            f"cannot compile layer {layer!r}; supported: Dense, Conv1d, "
            "MaxPool1d, GlobalAveragePool1d, MultiHeadSelfAttention, "
            "activations, LayerNorm, BatchNorm1d (eval), Dropout, Flatten, "
            "Identity, and the Residual/AddConstant/TokenMeanPool wrappers "
            "(use InferenceSession for the ViT)"
        )
    return CompiledModule(ops, source)


def _dense_op_affine(scale: np.ndarray, shift: np.ndarray) -> _Op:
    return lambda x: x * scale + shift


def compile_module(module: nn.Module) -> CompiledModule:
    """Compile a Sequential/ModuleList module tree into a tape-free program."""
    return compile_chain([module], source=type(module).__name__)
