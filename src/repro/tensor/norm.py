"""Differentiable batch normalisation.

Implemented as a fused primitive (rather than composed from elementwise
ops) because batch norm dominates the op count in MobileNetV2 and the
fused backward is both faster and numerically tighter.

Every elementwise pass (centring, scale, shift and both backwards) views
the NCHW input as (N, C*H*W) and expands each per-channel vector with
``np.repeat(v, H*W)``.  A (1, C, 1, 1) broadcast would leave NumPy an
inner loop of H*W elements, only 4 on MobileNetV2's 2x2 late-stage maps;
the tiled vector gives it one contiguous C*H*W run.  Each element is
still computed by the same ufunc from the same operands, and the
per-channel reductions are the same ``einsum`` calls over NCHW, so
float32 outputs are bitwise those of the broadcast formulas.  A
non-C-contiguous input (no conv path returns one) is copied first, and
every pass and reduction runs over the copy, so the result does not
depend on the input's memory order.

The switchable-precision models in this reproduction keep *independent*
batch-norm statistics per bit-width (switchable BN, following the SP
baseline the paper builds on); that logic lives in
:class:`repro.nn.layers.SwitchableBatchNorm2d` — this module only provides
the underlying normalise-and-affine primitive.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, ensure_tensor, is_grad_enabled, make_op

__all__ = ["batch_norm2d"]


def _tiled(ufunc, a: np.ndarray, v: np.ndarray, hw: int) -> np.ndarray:
    """``ufunc(a, np.repeat(v, hw))`` with the result allocated first.

    The repeated vector is a short-lived (C*H*W,) temporary.  Allocated
    after the result, it frees back into the space the next allocation
    takes.  Allocated before it, it leaves a hole between two long-lived
    activations, and over a training run those holes grow the heap and
    peak RSS.
    """
    out = np.empty(a.shape, np.result_type(a, v))
    return ufunc(a, np.repeat(v, hw), out=out)


def batch_norm2d(
    x,
    gamma,
    beta,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over (N, H, W) for each channel of an NCHW tensor.

    In training mode the batch statistics are used and ``running_mean`` /
    ``running_var`` are updated *in place* with an exponential moving
    average (mirroring ``torch.nn.BatchNorm2d``).  In eval mode the running
    statistics are used and nothing is mutated.  A call that records no
    graph (gradients disabled, or no operand needs one), such as every
    eval-mode forward of a served model, runs the same tiled passes
    (centre, scale, shift) and returns the result detached: it builds no
    closure and keeps nothing for a backward.

    Parameters
    ----------
    gamma, beta:
        Per-channel scale and shift tensors of shape (C,).
    running_mean, running_var:
        Plain NumPy buffers owned by the calling layer.
    """
    x, gamma, beta = ensure_tensor(x), ensure_tensor(gamma), ensure_tensor(beta)
    n, c, h, w = x.shape
    hw = h * w
    count = n * hw
    # Every elementwise pass runs over x viewed as (N, C*H*W) against a
    # per-channel vector repeated H*W times (see the module docstring).
    # The passes and the reductions all see one C-contiguous array (a copy
    # only if x is not), so the result does not depend on x's memory order.
    x4 = np.ascontiguousarray(x.data)
    x2 = x4.reshape(n, c * hw)

    if training:
        # Centre once and derive the (biased) variance from the centred
        # tensor — the same operation sequence np.var performs, so the
        # statistics are unchanged, but the centred array is reused for
        # x_hat instead of subtracting the mean a second time.
        inv_count = 1.0 / count
        mean = np.einsum("nchw->c", x4) * inv_count
        xc = _tiled(np.subtract, x2, mean, hw)
        xc4 = xc.reshape(n, c, h, w)
        # einsum fuses square+reduce without a temporary; same biased
        # variance up to summation order.
        var = np.einsum("nchw,nchw->c", xc4, xc4) * inv_count
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        # Unbiased variance in the running buffer, biased in the forward:
        # the PyTorch convention, kept so literature hyper-parameters apply.
        unbiased = var * count / max(count - 1, 1)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        xc = _tiled(np.subtract, x2, running_mean, hw)
        xc4 = xc.reshape(n, c, h, w)
        var = running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    # x_hat = xc * inv_std is never materialised: the affine output folds
    # gamma into the per-channel scale, and the backward derives every
    # x_hat term from the centred tensor and per-channel scalars.
    scale = gamma.data * inv_std
    out = _tiled(np.multiply, xc, scale, hw)
    out += np.repeat(beta.data, hw)
    if not (
        is_grad_enabled()
        and (x.requires_grad or gamma.requires_grad or beta.requires_grad)
    ):
        return Tensor(out.reshape(n, c, h, w))

    def backward(grad):
        # Fused backward: the per-channel reductions of the standard BN
        # gradient are exactly ggamma and gbeta scaled by gamma, so the
        # mean/projection terms reuse them instead of re-reducing
        # (einsum fuses multiply+reduce without a temporary).  The closure
        # holds only (C,) vectors and xc; the tiled vectors are rebuilt
        # here rather than kept alive until the backward runs.
        ggamma = np.einsum("nchw,nchw->c", grad, xc4) * inv_std
        gbeta = np.einsum("nchw->c", grad)
        grad2 = grad.reshape(n, c * hw)
        if training:
            ic = 1.0 / count
            term2 = gamma.data * gbeta * ic
            proj = gamma.data * ggamma * ic * inv_std
            # In-place chain: one temporary instead of five.
            gx = _tiled(np.multiply, grad2, gamma.data, hw)
            gx -= np.repeat(term2, hw)
            gx -= xc * np.repeat(proj, hw)
            gx *= np.repeat(inv_std, hw)
        else:
            gx = _tiled(np.multiply, grad2, scale, hw)
        return gx.reshape(n, c, h, w), ggamma, gbeta

    return make_op(out.reshape(n, c, h, w), (x, gamma, beta), backward)
