"""Straight-through estimators (STE) for quantisation-aware training.

Quantisers are step functions with zero gradient almost everywhere, so
quantisation-aware training (DoReFa, SBM, and every SP-Net in the paper)
propagates gradients *through* the quantiser as if it were the identity.
:func:`straight_through` realises exactly that: forward uses the quantised
value, backward passes the incoming gradient to the float input unchanged
(optionally masked to the quantiser's clipping range).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .autograd import Tensor, ensure_tensor, is_grad_enabled, make_op

__all__ = ["straight_through", "straight_through_t", "round_ste"]


def straight_through(
    x, quantized: np.ndarray, clip_low: Optional[float] = None,
    clip_high: Optional[float] = None,
) -> Tensor:
    """Return ``quantized`` in the forward pass, identity gradient backward.

    Parameters
    ----------
    x:
        The float tensor being quantised (receives the gradient).
    quantized:
        Pre-computed quantised values (plain array, same shape as ``x``).
    clip_low, clip_high:
        If given, gradients are zeroed where ``x`` fell outside
        ``[clip_low, clip_high]`` — the saturating-STE variant used for
        clipped activation quantisers, which stops gradient flow into the
        saturated region.

    A call that records no graph (gradients disabled, or ``x`` needs
    none) still casts ``quantized`` to ``x``'s dtype and checks its
    shape, but builds no clip mask and no closure.
    """
    x = ensure_tensor(x)
    quantized = np.asarray(quantized, dtype=x.dtype)
    if quantized.shape != x.shape:
        raise ValueError(
            f"quantized shape {quantized.shape} must match input {x.shape}"
        )
    if not (is_grad_enabled() and x.requires_grad):
        return Tensor(quantized)
    if clip_low is None and clip_high is None:
        mask = None
    else:
        lo = -np.inf if clip_low is None else clip_low
        hi = np.inf if clip_high is None else clip_high
        mask = ((x.data >= lo) & (x.data <= hi)).astype(x.dtype)

    def backward(grad):
        if mask is None:
            return (grad,)
        return (grad * mask,)

    return make_op(quantized, (x,), backward)


def straight_through_t(x, quantized_t: np.ndarray) -> Tensor:
    """STE whose forward value is the *transpose* of the quantised input.

    ``quantized_t`` holds the quantised values of the 2-D tensor ``x``
    already transposed (shape ``x.shape[::-1]``).  The gradient is
    transposed back onto ``x``.  This lets :class:`repro.quant.QuantLinear`
    cache the transposed, contiguous quantised weight it feeds to matmul
    instead of re-transposing on every forward.
    """
    x = ensure_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"straight_through_t expects a 2-D tensor, got {x.shape}")
    quantized_t = np.asarray(quantized_t, dtype=x.dtype)
    if quantized_t.shape != x.shape[::-1]:
        raise ValueError(
            f"transposed shape {quantized_t.shape} must match input "
            f"{x.shape} reversed"
        )

    def backward(grad):
        return (grad.T,)

    return make_op(quantized_t, (x,), backward)


def round_ste(x) -> Tensor:
    """Round to nearest integer with a straight-through gradient."""
    x = ensure_tensor(x)
    return straight_through(x, np.round(x.data))
