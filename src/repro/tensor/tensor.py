"""A broadcast-aware NumPy tensor with reverse-mode automatic differentiation.

The design follows the classic define-by-run tape: every operator returns a
new :class:`Tensor` holding references to its parents and a closure that
propagates the upstream gradient to them.  Calling :meth:`Tensor.backward`
topologically sorts the tape and accumulates gradients into ``.grad``.

Only the operators required by the VITAL reproduction are implemented, but
each is implemented completely (full broadcasting support, arbitrary axes,
batched matmul) so the neural-network stack above never needs to special
case shapes.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return ``True`` when operations are currently recording gradients."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient recording.

    Used for inference and for optimizer update steps, exactly like
    ``torch.no_grad``.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw data, got a Tensor; use .data")
    array = np.asarray(value)
    if dtype is not None:
        return array.astype(dtype, copy=False)
    if not np.issubdtype(array.dtype, np.floating):
        return array.astype(DEFAULT_DTYPE)
    return array


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were stretched from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An n-dimensional array that records operations for backpropagation.

    Parameters
    ----------
    data:
        Anything convertible to a NumPy array.  Integral inputs are cast to
        the library default float dtype; floating inputs keep their dtype.
    requires_grad:
        When ``True`` the tensor accumulates a gradient during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str = "",
    ):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self.name = name

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=16)}{grad_note})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def tolist(self):
        return self.data.tolist()

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut off from the autograd tape."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        out = self._make(self.data.astype(dtype), (self,))
        if out.requires_grad:
            source_dtype = self.dtype

            def backward(grad):
                self._accumulate(grad.astype(source_dtype))

            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # autograd machinery
    # ------------------------------------------------------------------
    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...]) -> "Tensor":
        if not _GRAD_ENABLED:
            # Tape-free fast path: no parent bookkeeping, no closure slots.
            return Tensor(data)
        requires = any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=requires, _parents=tuple(p for p in parents if p.requires_grad))

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ``1`` for scalar tensors, which
            is the usual loss-backward entry point.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(_as_array(other, dtype=self.dtype))

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self._make(self.data + other.data, (self, other))
        if out.requires_grad:

            def backward(grad):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(grad, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(grad, other.shape))

            out._backward = backward
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self._make(self.data * other.data, (self, other))
        if out.requires_grad:

            def backward(grad):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(grad * other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(grad * self.data, other.shape))

            out._backward = backward
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * (-1.0)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self._make(self.data / other.data, (self, other))
        if out.requires_grad:

            def backward(grad):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(grad / other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(
                        _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                    )

            out._backward = backward
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log composition")
        out = self._make(self.data**exponent, (self,))
        if out.requires_grad:

            def backward(grad):
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

            out._backward = backward
        return out

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self._make(self.data @ other.data, (self, other))
        if out.requires_grad:

            def backward(grad):
                if self.requires_grad:
                    if other.data.ndim == 1:
                        grad_self = np.multiply.outer(grad, other.data) if self.data.ndim > 1 else grad * other.data
                        if self.data.ndim == 1:
                            grad_self = grad * other.data
                        else:
                            grad_self = np.expand_dims(grad, -1) * other.data
                    else:
                        grad_expanded = np.expand_dims(grad, -2) if self.data.ndim == 1 else grad
                        grad_self = grad_expanded @ np.swapaxes(other.data, -1, -2)
                        if self.data.ndim == 1:
                            grad_self = grad_self.reshape(self.shape[-1:])
                    self._accumulate(_unbroadcast(grad_self, self.shape))
                if other.requires_grad:
                    if self.data.ndim == 1:
                        grad_other = np.multiply.outer(self.data, grad)
                    elif other.data.ndim == 1:
                        grad_other = np.swapaxes(self.data, -1, -2) @ np.expand_dims(grad, -1)
                        grad_other = grad_other.reshape(grad_other.shape[:-1])
                        grad_other = _unbroadcast(grad_other, other.shape)
                    else:
                        grad_other = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(_unbroadcast(grad_other, other.shape))

            out._backward = backward
        return out

    # comparisons return plain bool arrays (no gradient flows through them)
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        result = np.exp(self.data)
        out = self._make(result, (self,))
        if out.requires_grad:

            def backward(grad):
                self._accumulate(grad * result)

            out._backward = backward
        return out

    def log(self) -> "Tensor":
        out = self._make(np.log(self.data), (self,))
        if out.requires_grad:

            def backward(grad):
                self._accumulate(grad / self.data)

            out._backward = backward
        return out

    def sqrt(self) -> "Tensor":
        result = np.sqrt(self.data)
        out = self._make(result, (self,))
        if out.requires_grad:

            def backward(grad):
                self._accumulate(grad * 0.5 / result)

            out._backward = backward
        return out

    def tanh(self) -> "Tensor":
        result = np.tanh(self.data)
        out = self._make(result, (self,))
        if out.requires_grad:

            def backward(grad):
                self._accumulate(grad * (1.0 - result**2))

            out._backward = backward
        return out

    def sigmoid(self) -> "Tensor":
        from scipy.special import expit  # lazy: the serving path never trains

        result = expit(self.data)
        out = self._make(result, (self,))
        if out.requires_grad:

            def backward(grad):
                self._accumulate(grad * result * (1.0 - result))

            out._backward = backward
        return out

    def relu(self) -> "Tensor":
        out = self._make(np.maximum(self.data, 0.0), (self,))
        if out.requires_grad:
            mask = self.data > 0

            def backward(grad):
                self._accumulate(grad * mask)

            out._backward = backward
        return out

    def gelu(self) -> "Tensor":
        """Exact Gaussian-error GELU, the non-linearity used by the ViT MLPs."""
        from scipy.special import erf

        x = self.data
        cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        out = self._make(x * cdf, (self,))
        if out.requires_grad:
            pdf = np.exp(-0.5 * x**2) / np.sqrt(2.0 * np.pi)

            def backward(grad):
                self._accumulate(grad * (cdf + x * pdf))

            out._backward = backward
        return out

    def erf(self) -> "Tensor":
        from scipy.special import erf

        out = self._make(erf(self.data), (self,))
        if out.requires_grad:
            coeff = 2.0 / np.sqrt(np.pi)

            def backward(grad):
                self._accumulate(grad * coeff * np.exp(-self.data**2))

            out._backward = backward
        return out

    def abs(self) -> "Tensor":
        out = self._make(np.abs(self.data), (self,))
        if out.requires_grad:
            sign = np.sign(self.data)

            def backward(grad):
                self._accumulate(grad * sign)

            out._backward = backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]``; gradient is zero outside the range."""
        out = self._make(np.clip(self.data, low, high), (self,))
        if out.requires_grad:
            mask = (self.data >= low) & (self.data <= high)

            def backward(grad):
                self._accumulate(grad * mask)

            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            input_shape = self.shape

            def backward(grad):
                expanded = grad
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(a % len(input_shape) for a in axes)
                    for a in sorted(axes):
                        expanded = np.expand_dims(expanded, a)
                self._accumulate(np.broadcast_to(expanded, input_shape).astype(self.dtype))

            out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        result = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make(result, (self,))
        if out.requires_grad:

            def backward(grad):
                expanded_result = self.data.max(axis=axis, keepdims=True)
                expanded_grad = grad
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    for a in sorted(a % self.ndim for a in axes):
                        expanded_grad = np.expand_dims(expanded_grad, a)
                elif axis is None and not keepdims:
                    expanded_grad = np.broadcast_to(grad, self.shape)
                mask = self.data == expanded_result
                count = mask.sum(axis=axis, keepdims=True)
                self._accumulate(mask * expanded_grad / count)

            out._backward = backward
        return out

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    def logsumexp(self, axis: int = -1, keepdims: bool = False) -> "Tensor":
        """Numerically stable ``log(sum(exp(x)))`` along ``axis``."""
        shift = Tensor(self.data.max(axis=axis, keepdims=True))
        stable = (self - shift).exp().sum(axis=axis, keepdims=True).log() + shift
        if keepdims:
            return stable
        return stable.squeeze(axis)

    def softmax(self, axis: int = -1) -> "Tensor":
        """Stable softmax along ``axis``."""
        shifted = self - Tensor(self.data.max(axis=axis, keepdims=True))
        exps = shifted.exp()
        return exps / exps.sum(axis=axis, keepdims=True)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        return self - self.logsumexp(axis=axis, keepdims=True)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make(self.data.reshape(shape), (self,))
        if out.requires_grad:
            original = self.shape

            def backward(grad):
                self._accumulate(grad.reshape(original))

            out._backward = backward
        return out

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def squeeze(self, axis=None) -> "Tensor":
        new_shape = self.data.squeeze(axis=axis).shape
        return self.reshape(new_shape)

    def expand_dims(self, axis: int) -> "Tensor":
        return self.reshape(self.shape[:axis] + (1,) + self.shape[axis:]) if axis >= 0 else self.reshape(
            self.shape[: self.ndim + 1 + axis] + (1,) + self.shape[self.ndim + 1 + axis :]
        )

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        out = self._make(self.data.transpose(axes), (self,))
        if out.requires_grad:
            if axes is None:
                inverse = None
            else:
                inverse = np.argsort(axes)

            def backward(grad):
                self._accumulate(grad.transpose(inverse))

            out._backward = backward
        return out

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(axes)

    def __getitem__(self, index) -> "Tensor":
        out = self._make(self.data[index], (self,))
        if out.requires_grad:

            def backward(grad):
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

            out._backward = backward
        return out

    def pad(self, pad_width) -> "Tensor":
        """Zero padding; ``pad_width`` follows ``np.pad`` conventions."""
        out = self._make(np.pad(self.data, pad_width), (self,))
        if out.requires_grad:
            slices = tuple(
                slice(before, before + size)
                for (before, _after), size in zip(pad_width, self.shape)
            )

            def backward(grad):
                self._accumulate(grad[slices])

            out._backward = backward
        return out


# ----------------------------------------------------------------------
# free functions
# ----------------------------------------------------------------------
def cat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _parents=tuple(t for t in tensors if t.requires_grad))
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad):
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    index = [slice(None)] * grad.ndim
                    index[axis] = slice(start, stop)
                    t._accumulate(grad[tuple(index)])

        out._backward = backward
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = [t.expand_dims(axis) if axis >= 0 else t for t in tensors]
    return cat(tensors, axis=axis)


def where(condition, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; gradient flows to the chosen branch only."""
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    data = np.where(cond, a.data, b.data)
    requires = _GRAD_ENABLED and (a.requires_grad or b.requires_grad)
    out = Tensor(data, requires_grad=requires, _parents=tuple(t for t in (a, b) if t.requires_grad))
    if out.requires_grad:

        def backward(grad):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad * cond, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad * (~cond if cond.dtype == bool else 1 - cond), b.shape))

        out._backward = backward
    return out


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, value, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def arange(*args, requires_grad: bool = False) -> Tensor:
    return Tensor(np.arange(*args, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def randn(*shape, rng: np.random.Generator | None = None, requires_grad: bool = False) -> Tensor:
    rng = rng or np.random.default_rng()
    return Tensor(rng.standard_normal(shape).astype(DEFAULT_DTYPE), requires_grad=requires_grad)


def rand(*shape, rng: np.random.Generator | None = None, requires_grad: bool = False) -> Tensor:
    rng = rng or np.random.default_rng()
    return Tensor(rng.random(shape).astype(DEFAULT_DTYPE), requires_grad=requires_grad)
