"""Differentiable primitive operations on :class:`~repro.tensor.Tensor`.

Each function computes the forward value with NumPy and registers a closure
computing the vector-Jacobian product.  Binary operations broadcast like
NumPy and un-broadcast their gradients with
:func:`~repro.tensor.autograd.unbroadcast`.

Operator dunders (``+``, ``*``, ``@`` ...) are attached to ``Tensor`` at the
bottom of this module, so importing :mod:`repro.tensor` is enough to make
tensors fully operable.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .autograd import Tensor, ensure_tensor, is_grad_enabled, make_op, unbroadcast

__all__ = [
    "add", "sub", "mul", "div", "neg", "pow_", "exp", "log", "sqrt",
    "abs_", "clip", "maximum", "minimum",
    "matmul", "reshape", "transpose", "flatten", "concat", "pad2d",
    "sum_", "mean", "max_", "min_",
    "relu", "relu6", "leaky_relu", "sigmoid", "tanh",
    "softmax", "log_softmax",
    "getitem", "where",
]


# ----------------------------------------------------------------------
# Binary arithmetic
# ----------------------------------------------------------------------
def _pair(a, b):
    """Wrap both operands as Tensors.

    Non-Tensor operands (Python scalars, lists) are cast to the Tensor
    operand's dtype: under NumPy 2 (NEP 50) a freshly wrapped float64
    scalar would otherwise silently upcast every float32 activation it
    touches.
    """
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return ensure_tensor(a), ensure_tensor(b)


def add(a, b) -> Tensor:
    """Elementwise ``a + b`` with broadcasting."""
    a, b = _pair(a, b)
    out = a.data + b.data

    def backward(grad):
        return unbroadcast(grad, a.shape), unbroadcast(grad, b.shape)

    return make_op(out, (a, b), backward)


def sub(a, b) -> Tensor:
    """Elementwise ``a - b`` with broadcasting."""
    a, b = _pair(a, b)
    out = a.data - b.data

    def backward(grad):
        return unbroadcast(grad, a.shape), unbroadcast(-grad, b.shape)

    return make_op(out, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise ``a * b`` with broadcasting."""
    a, b = _pair(a, b)
    out = a.data * b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward(grad):
        return (
            unbroadcast(grad * b.data, a.shape) if need_a else None,
            unbroadcast(grad * a.data, b.shape) if need_b else None,
        )

    return make_op(out, (a, b), backward)


def div(a, b) -> Tensor:
    """Elementwise ``a / b`` with broadcasting."""
    a, b = _pair(a, b)
    out = a.data / b.data

    def backward(grad):
        return (
            unbroadcast(grad / b.data, a.shape),
            unbroadcast(-grad * a.data / (b.data * b.data), b.shape),
        )

    return make_op(out, (a, b), backward)


def neg(a) -> Tensor:
    """Elementwise ``-a``."""
    a = ensure_tensor(a)
    return make_op(-a.data, (a,), lambda grad: (-grad,))


def pow_(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant scalar exponent."""
    a = ensure_tensor(a)
    out = a.data ** exponent

    def backward(grad):
        return (grad * exponent * a.data ** (exponent - 1),)

    return make_op(out, (a,), backward)


def maximum(a, b) -> Tensor:
    """Elementwise maximum; gradient flows to the larger operand (ties: a)."""
    a, b = _pair(a, b)
    out = np.maximum(a.data, b.data)
    a_wins = a.data >= b.data

    def backward(grad):
        return (
            unbroadcast(grad * a_wins, a.shape),
            unbroadcast(grad * ~a_wins, b.shape),
        )

    return make_op(out, (a, b), backward)


def minimum(a, b) -> Tensor:
    """Elementwise minimum; gradient flows to the smaller operand (ties: a)."""
    a, b = _pair(a, b)
    out = np.minimum(a.data, b.data)
    a_wins = a.data <= b.data

    def backward(grad):
        return (
            unbroadcast(grad * a_wins, a.shape),
            unbroadcast(grad * ~a_wins, b.shape),
        )

    return make_op(out, (a, b), backward)


# ----------------------------------------------------------------------
# Unary elementwise
# ----------------------------------------------------------------------
def exp(a) -> Tensor:
    """Elementwise exponential."""
    a = ensure_tensor(a)
    out = np.exp(a.data)
    return make_op(out, (a,), lambda grad: (grad * out,))


def log(a) -> Tensor:
    """Elementwise natural logarithm."""
    a = ensure_tensor(a)
    return make_op(np.log(a.data), (a,), lambda grad: (grad / a.data,))


def sqrt(a) -> Tensor:
    """Elementwise square root."""
    a = ensure_tensor(a)
    out = np.sqrt(a.data)
    return make_op(out, (a,), lambda grad: (grad / (2.0 * out),))


def abs_(a) -> Tensor:
    """Elementwise absolute value (subgradient 0 at 0... sign convention)."""
    a = ensure_tensor(a)
    return make_op(np.abs(a.data), (a,), lambda grad: (grad * np.sign(a.data),))


def clip(a, low: float, high: float) -> Tensor:
    """Clamp to ``[low, high]``; gradient is zero outside the interval.

    A call that records no graph (gradients disabled, or ``a`` needs
    none) returns the clipped values alone: it builds no ``inside`` mask
    and no closure.
    """
    a = ensure_tensor(a)
    out = np.clip(a.data, low, high)
    if not (is_grad_enabled() and a.requires_grad):
        return Tensor(out)
    # A value is inside the interval exactly when clipping left it
    # untouched — one compare instead of two compares plus a cast, on
    # the hottest activation (ReLU6) path.
    inside = out == a.data
    return make_op(out, (a,), lambda grad: (grad * inside,))


def relu(a) -> Tensor:
    """Rectified linear unit."""
    a = ensure_tensor(a)
    mask = a.data > 0
    return make_op(a.data * mask, (a,), lambda grad: (grad * mask,))


def relu6(a) -> Tensor:
    """ReLU clipped at 6 — MobileNetV2's activation, and the activation the
    DoReFa/SBM activation quantisers assume a bounded range from."""
    return clip(a, 0.0, 6.0)


def leaky_relu(a, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU."""
    a = ensure_tensor(a)
    mask = a.data > 0
    scale = np.where(mask, 1.0, negative_slope).astype(a.data.dtype)
    return make_op(a.data * scale, (a,), lambda grad: (grad * scale,))


def sigmoid(a) -> Tensor:
    """Logistic sigmoid, computed stably."""
    a = ensure_tensor(a)
    out = np.where(
        a.data >= 0,
        1.0 / (1.0 + np.exp(-np.abs(a.data))),
        np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))),
    ).astype(a.data.dtype)
    return make_op(out, (a,), lambda grad: (grad * out * (1.0 - out),))


def tanh(a) -> Tensor:
    """Hyperbolic tangent."""
    a = ensure_tensor(a)
    out = np.tanh(a.data)
    return make_op(out, (a,), lambda grad: (grad * (1.0 - out * out),))


# ----------------------------------------------------------------------
# Linear algebra / shape
# ----------------------------------------------------------------------
def matmul(a, b) -> Tensor:
    """Matrix product supporting (..., M, K) @ (..., K, N) and 2-D weights."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data @ b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward(grad):
        ga = gb = None
        if need_a:
            ga = unbroadcast(grad @ np.swapaxes(b.data, -1, -2), a.shape)
        if need_b:
            gb = unbroadcast(np.swapaxes(a.data, -1, -2) @ grad, b.shape)
        return ga, gb

    return make_op(out, (a, b), backward)


def reshape(a, shape) -> Tensor:
    """Reshape preserving element order."""
    a = ensure_tensor(a)
    old_shape = a.shape
    return make_op(
        a.data.reshape(shape), (a,), lambda grad: (grad.reshape(old_shape),)
    )


def flatten(a, start_dim: int = 1) -> Tensor:
    """Flatten all dimensions from ``start_dim`` onward."""
    a = ensure_tensor(a)
    lead = a.shape[:start_dim]
    return reshape(a, lead + (-1,))


def transpose(a, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Permute dimensions (full reversal when ``axes`` is None)."""
    a = ensure_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return make_op(
        a.data.transpose(axes), (a,), lambda grad: (grad.transpose(inverse),)
    )


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    """Concatenate along ``axis``."""
    tensors = [ensure_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad):
        return tuple(np.split(grad, splits, axis=axis))

    return make_op(out, tuple(tensors), backward)


def pad2d(a, padding: int) -> Tensor:
    """Zero-pad the last two (spatial) dimensions symmetrically."""
    a = ensure_tensor(a)
    if padding == 0:
        return a
    pad_width = [(0, 0)] * (a.ndim - 2) + [(padding, padding)] * 2
    out = np.pad(a.data, pad_width)

    def backward(grad):
        sl = [slice(None)] * (a.ndim - 2) + [slice(padding, -padding)] * 2
        return (grad[tuple(sl)],)

    return make_op(out, (a,), backward)


def getitem(a, index) -> Tensor:
    """Index / slice; the gradient scatters back into a zero array."""
    a = ensure_tensor(a)
    out = a.data[index]

    def backward(grad):
        full = np.zeros_like(a.data)
        np.add.at(full, index, grad)
        return (full,)

    return make_op(out, (a,), backward)


def where(condition, a, b) -> Tensor:
    """Elementwise select: ``condition ? a : b`` (condition not differentiable)."""
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    cond = cond.astype(bool)
    a, b = _pair(a, b)
    out = np.where(cond, a.data, b.data)

    def backward(grad):
        return (
            unbroadcast(grad * cond, a.shape),
            unbroadcast(grad * ~cond, b.shape),
        )

    return make_op(out, (a, b), backward)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def _normalize_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    """Sum over ``axis`` (all axes when None)."""
    a = ensure_tensor(a)
    axis = _normalize_axis(axis, a.ndim)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        g = grad
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        elif axis is None and not keepdims:
            g = np.asarray(g).reshape((1,) * a.ndim)
        return (np.broadcast_to(g, a.shape).astype(a.data.dtype),)

    return make_op(out, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean over ``axis``."""
    a = ensure_tensor(a)
    naxis = _normalize_axis(axis, a.ndim)
    if naxis is None:
        count = a.size
    else:
        count = int(np.prod([a.shape[ax] for ax in naxis]))
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def max_(a, axis=None, keepdims: bool = False) -> Tensor:
    """Maximum over ``axis``; gradient splits equally among tied maxima."""
    return _extremum(a, axis, keepdims, np.max)


def min_(a, axis=None, keepdims: bool = False) -> Tensor:
    """Minimum over ``axis``; gradient splits equally among tied minima."""
    return _extremum(a, axis, keepdims, np.min)


def _extremum(a, axis, keepdims, reducer) -> Tensor:
    a = ensure_tensor(a)
    naxis = _normalize_axis(axis, a.ndim)
    out = reducer(a.data, axis=naxis, keepdims=keepdims)

    def backward(grad):
        out_keep = reducer(a.data, axis=naxis, keepdims=True)
        mask = (a.data == out_keep).astype(a.data.dtype)
        mask /= mask.sum(axis=naxis, keepdims=True)
        g = grad
        if not keepdims and naxis is not None:
            g = np.expand_dims(g, naxis)
        elif naxis is None and not keepdims:
            g = np.asarray(g).reshape((1,) * a.ndim)
        return (mask * g,)

    return make_op(out, (a,), backward)


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def softmax(a, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    a = ensure_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(grad):
        dot = (grad * out).sum(axis=axis, keepdims=True)
        return (out * (grad - dot),)

    return make_op(out, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    a = ensure_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_z
    probs = np.exp(out)

    def backward(grad):
        return (grad - probs * grad.sum(axis=axis, keepdims=True),)

    return make_op(out, (a,), backward)


# ----------------------------------------------------------------------
# Operator registration on Tensor
# ----------------------------------------------------------------------
def _register_operators():
    Tensor.__add__ = add
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = sub
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = mul
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = div
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = neg
    Tensor.__pow__ = pow_
    Tensor.__matmul__ = matmul
    Tensor.__getitem__ = getitem
    Tensor.reshape = reshape
    Tensor.flatten = flatten
    Tensor.transpose = transpose
    Tensor.sum = sum_
    Tensor.mean = mean
    Tensor.max = max_
    Tensor.min = min_
    Tensor.exp = exp
    Tensor.log = log
    Tensor.sqrt = sqrt
    Tensor.clip = clip


_register_operators()
