"""Differentiable 2-D convolution and pooling via im2col.

Convolution supports ``groups`` so that MobileNetV2's depthwise layers —
the layers whose quantisation sensitivity motivates cascade distillation in
the paper — run through exactly the same code path as dense convolutions.

Layout convention is NCHW throughout, matching both the PyTorch reference
and the loop-nest nomenclature used by the hardware cost model
(:mod:`repro.hardware`).

Fast paths
----------
Four execution strategies share one differentiable ``conv2d`` surface:

* **pointwise** — 1x1 / stride-1 / pad-0 / dense convolutions skip im2col
  entirely: the layer is a batched BLAS matmul over a reshape of the
  input.  MobileNetV2 is dominated by pointwise convs, so this is the
  headline wall-clock win for the CDT tables.
* **dense** — ``groups == 1`` convolutions use batched ``np.matmul`` on
  the im2col columns instead of ``einsum`` (lower dispatch overhead,
  direct BLAS).
* **depthwise** — ``groups == C_in == C_out`` convolutions (MobileNetV2's
  other workhorse), at any stride, copy the input once into a
  zero-padded channels-last (N, H, W, C) buffer and take one ``einsum``
  over a read-only strided (N, KH, KW, OH, OW, C) tap view of it, so
  no Python loop runs per tap.  The view is a plain ``np.ndarray`` over
  the buffer rather than an ``as_strided`` result, a few microseconds
  less per view on maps this small.  Channels last is the point: on the
  2x2-8x8 maps that dominate MobileNetV2's call count an NCHW layout
  leaves NumPy an innermost loop of 2-4 elements, while here it runs
  over the C channels.  At stride 1 it runs longer still: a row's
  (OW, C) taps are one contiguous run of the NHWC copy, so the view folds
  them into one OW*C axis and the kernel is tiled OW times along it,
  which matters most on the early 16-24-channel maps.  With C > 1 the
  einsum adds each output's taps in (i, j) order whether folded or not,
  so float32 results are bitwise those of a tap-by-tap accumulation.
  The backward rebuilds the padded copy (holding it from the forward
  raises peak memory) and reduces the weight gradient over all taps of
  the same view in one ``einsum``; each (c, i, j) still sums its
  (n, h, w) products in the order a per-tap reduction would, so with
  C > 1 the float32 result is bitwise the per-tap one.  The input
  gradient is the transposed convolution:
  the same tap-view correlation over the zero-dilated output gradient
  with the kernel flipped; it is stride 1 for every layer, so it always
  takes the folded axis.  Output and input gradient are
  returned as C-contiguous NCHW arrays, so the ops that follow (batch
  norm's reductions in particular) see the same memory order as on
  every other path.  A no-grad call does the forward einsum and nothing
  else: the padded copy is freed before it returns, and the backward
  closure, which would rebuild that copy, is never stored.
* **grouped** — the general ``einsum`` path, kept as the reference
  implementation for every layout and used for exotic group counts.

:func:`fast_conv` toggles the fast paths off, forcing everything through
the grouped reference path — used by the equivalence tests.

Every path computes only the gradients someone reads: an input that
does not require a gradient (the images a stem conv sees, or the
activations of a frozen layer) gets no ``gx``, a frozen weight no
``gw`` and a frozen bias no bias gradient.  The choice is made when the
op is recorded, and a skipped slot is returned as ``None``.
"""

from __future__ import annotations

import contextlib
from typing import Optional, Tuple

import numpy as np

from .autograd import Tensor, ensure_tensor, make_op

__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "avg_pool2d",
    "max_pool2d",
    "global_avg_pool2d",
    "conv_output_size",
    "fast_conv",
    "fast_conv_enabled",
]

_FAST_CONV = True


def fast_conv_enabled() -> bool:
    """Whether conv2d's fast paths are currently active."""
    return _FAST_CONV


@contextlib.contextmanager
def fast_conv(enabled: bool):
    """Temporarily enable/disable conv2d's fast paths.

    With ``enabled=False`` every convolution runs the grouped einsum
    reference path, which the equivalence tests compare against.
    """
    global _FAST_CONV
    previous = _FAST_CONV
    _FAST_CONV = bool(enabled)
    try:
        yield
    finally:
        _FAST_CONV = previous


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window sweep."""
    return (size + 2 * padding - kernel) // stride + 1


def _pad_nchw(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two spatial dims (cheaper than generic ``np.pad``)."""
    n, c, h, w = x.shape
    out = np.zeros(
        (n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype
    )
    out[:, :, padding:-padding, padding:-padding] = x
    return out


def _pad_nhwc(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-padded channels-last (N, H, W, C) copy of ``x`` (N, C, H, W)."""
    n, c, h, w = x.shape
    out = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
    out[:, padding:padding + h, padding:padding + w] = x.transpose(0, 2, 3, 1)
    return out


def _tap_view(
    xp: np.ndarray,
    kernel: Tuple[int, int],
    out_hw: Tuple[int, int],
    stride: int,
    offset: int = 0,
) -> np.ndarray:
    """Read-only (N, KH, KW, OH, OW, C) tap view of ``xp`` (N, HP, WP, C).

    ``view[n, i, j, h, w] = xp[n, offset + stride*h + i, offset + stride*w
    + j]``: every kernel tap of every output position, with no copy.
    ``xp`` must be C-contiguous.  The view is a plain ``np.ndarray`` over
    its buffer, which costs a fraction of what ``as_strided`` does per
    call; NumPy still checks that the view stays inside the buffer.
    """
    s0, s1, s2, s3 = xp.strides
    view = np.ndarray(
        (xp.shape[0], *kernel, *out_hw, xp.shape[3]), xp.dtype, xp,
        offset * (s1 + s2), (s0, s1, s2, s1 * stride, s2 * stride, s3),
    )
    view.flags.writeable = False
    return view


def _correlate_nhwc(
    xp: np.ndarray,
    w_khwc: np.ndarray,
    out_hw: Tuple[int, int],
    stride: int,
    offset: int = 0,
) -> np.ndarray:
    """Depthwise correlation of ``xp`` (N, HP, WP, C) with ``w_khwc``.

    Returns (N, OH, OW, C) with ``out[n, h, w] = sum_ij xp[n, o+s*h+i,
    o+s*w+j] * w_khwc[i, j]``, where ``o`` is ``offset``.  At stride 1 a
    row's (OW, C) taps are one contiguous run of ``xp`` (its W stride is
    C * itemsize), so the view folds them into a single OW*C axis and the
    kernel is tiled OW times along it: einsum's innermost loop then runs
    over OW*C elements rather than C and, with C > 1, still adds each
    output's taps in (i, j) order.  ``xp`` must be C-contiguous.
    """
    kh, kw, c = w_khwc.shape
    view = _tap_view(xp, (kh, kw), out_hw, stride, offset)
    if stride != 1:
        return np.einsum("nijhwc,ijc->nhwc", view, w_khwc)
    n, (oh, ow) = xp.shape[0], out_hw
    folded = view.reshape(n, kh, kw, oh, ow * c)  # a view: no copy
    acc = np.einsum("nijhk,ijk->nhk", folded, np.tile(w_khwc, (1, 1, ow)))
    return acc.reshape(n, oh, ow, c)


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
) -> np.ndarray:
    """Unfold ``x`` (N, C, H, W) into columns (N, C*KH*KW, OH*OW).

    Uses a strided sliding-window view; the ``reshape`` of the permuted
    view is the only copy (it always produces a fresh C-contiguous
    array, so no extra ``ascontiguousarray`` pass is needed).
    """
    kh, kw = kernel
    n, c, h, w = x.shape
    if padding > 0:
        x = _pad_nchw(x, padding)
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]  # (N, C, OH, OW, KH, KW)
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)


def _fold_windows(
    target: np.ndarray,
    windows: np.ndarray,
    kernel: Tuple[int, int],
    stride: int,
) -> None:
    """Scatter-add ``windows`` (N, C, KH, KW, OH, OW) into ``target``.

    When windows do not overlap (``stride >= kernel``) every target
    element is written by at most one window tap, so the whole fold is a
    single strided-view assignment — the write-side twin of the
    sliding-window view the forward passes use.  Overlapping windows
    alias memory, where a strided-view ``+=`` would be undefined, so the
    fold falls back to one vectorised accumulation per kernel tap.
    """
    kh, kw = kernel
    n, c = target.shape[:2]
    oh, ow = windows.shape[4], windows.shape[5]
    if stride >= kh and stride >= kw:
        s0, s1, s2, s3 = target.strides
        view = np.lib.stride_tricks.as_strided(
            target,
            shape=(n, c, oh, ow, kh, kw),
            strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        )
        view[...] = windows.transpose(0, 1, 4, 5, 2, 3)
        return
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            target[:, :, i:i_end:stride, j:j_end:stride] += windows[:, :, i, j]


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold columns back to an image, summing overlapping contributions.

    Exact adjoint of :func:`im2col`; together they make conv2d's backward
    pass pass numerical gradient checks.
    """
    kh, kw = kernel
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    x_padded = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    _fold_windows(x_padded, cols.reshape(n, c, kh, kw, oh, ow), kernel, stride)
    if padding > 0:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


def conv2d(
    x,
    weight,
    bias=None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-D convolution.

    Parameters
    ----------
    x:
        Input tensor (N, C_in, H, W).
    weight:
        Filter tensor (C_out, C_in // groups, KH, KW).
    bias:
        Optional (C_out,) tensor.
    groups:
        Channel groups; ``groups == C_in`` with ``C_out == C_in`` gives a
        depthwise convolution.
    """
    x, weight = ensure_tensor(x), ensure_tensor(weight)
    n, c_in, h, w = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    if c_in_g * groups != c_in:
        raise ValueError(
            f"weight expects {c_in_g * groups} input channels, got {c_in}"
        )
    if c_out % groups:
        raise ValueError(f"C_out={c_out} not divisible by groups={groups}")
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    l = oh * ow

    # Fixed when the op is recorded; a skipped gradient is ``None``.
    need_gx, need_gw = x.requires_grad, weight.requires_grad

    pointwise = (
        _FAST_CONV and groups == 1 and kh == 1 and kw == 1
        and stride == 1 and padding == 0
    )
    if pointwise:
        # 1x1 / stride-1 / pad-0: the conv IS a matmul over channels; no
        # unfold, no fold, no column buffers.
        x2 = x.data.reshape(n, c_in, l)
        w2 = weight.data.reshape(c_out, c_in)
        out = np.matmul(w2, x2).reshape(n, c_out, oh, ow)

        def backward_pointwise(grad):
            grad2 = grad.reshape(n, c_out, l)
            gx = gw = None
            if need_gw:
                gw = np.matmul(grad2, x2.transpose(0, 2, 1)).sum(axis=0)
                gw = gw.reshape(c_out, c_in_g, kh, kw)
            if need_gx:
                gx = np.matmul(w2.T, grad2).reshape(n, c_in, h, w)
            return gx, gw

        backward = backward_pointwise
    elif _FAST_CONV and groups == c_in and c_out == c_in and c_in_g == 1:
        # Depthwise conv, any stride: one einsum over a strided tap view of
        # a zero-padded channels-last copy (see the module docstring).
        # A contiguous (KH, KW, C) kernel keeps channels einsum's innermost
        # loop (for C > 1), so each output adds its taps in (i, j) order,
        # bitwise as a tap-by-tap accumulation would.
        w_khwc = np.ascontiguousarray(weight.data.reshape(c_out, kh * kw).T)
        w_khwc = w_khwc.reshape(kh, kw, c_out)
        xp = _pad_nhwc(x.data, padding)
        acc = _correlate_nhwc(xp, w_khwc, (oh, ow), stride)
        del xp  # rebuilt by the backward rather than held until then
        out = np.ascontiguousarray(acc.transpose(0, 3, 1, 2))

        def backward_depthwise(grad):
            g = np.ascontiguousarray(grad.transpose(0, 2, 3, 1))
            gx = gw = None
            if need_gw:
                # One pass over every tap; each (c, i, j) still sums its
                # (n, h, w) products in the per-tap order.
                view = _tap_view(
                    _pad_nhwc(x.data, padding), (kh, kw), (oh, ow), stride
                )
                gw = np.einsum("nijhwc,nhwc->cij", view, g)
                gw = gw.reshape(c_out, 1, kh, kw)
                del view
            if need_gx:
                # Transposed conv: correlate the zero-dilated gradient with
                # the flipped kernel.  The dilated gradient sits at offset
                # (KH-1, KW-1) so every padding works; the input's (H, W)
                # window then starts at (padding, padding).
                hp, wp = h + 2 * padding, w + 2 * padding
                gd = np.zeros(
                    (n, hp + kh - 1, wp + kw - 1, c_in), dtype=g.dtype
                )
                gd[:, kh - 1:kh - 1 + stride * oh:stride,
                   kw - 1:kw - 1 + stride * ow:stride] = g
                gx = _correlate_nhwc(
                    gd, w_khwc[::-1, ::-1], (h, w), 1, offset=padding
                )
                gx = np.ascontiguousarray(gx.transpose(0, 3, 1, 2))
            return gx, gw

        backward = backward_depthwise
    elif _FAST_CONV and groups == 1:
        # Dense conv: batched BLAS matmul on the im2col columns.
        cols = im2col(x.data, (kh, kw), stride, padding)  # (N, K, L)
        k = c_in_g * kh * kw
        w2 = weight.data.reshape(c_out, k)
        out = np.matmul(w2, cols).reshape(n, c_out, oh, ow)

        def backward_dense(grad):
            grad2 = grad.reshape(n, c_out, l)
            gx = gw = None
            if need_gw:
                gw = np.matmul(grad2, cols.transpose(0, 2, 1)).sum(axis=0)
                gw = gw.reshape(c_out, c_in_g, kh, kw)
            if need_gx:
                gcols = np.matmul(w2.T, grad2)
                gx = col2im(gcols, (n, c_in, h, w), (kh, kw), stride, padding)
            return gx, gw

        backward = backward_dense
    else:
        # Grouped reference path (depthwise convs, and everything when
        # the fast paths are disabled).
        cols = im2col(x.data, (kh, kw), stride, padding)  # (N, C*KH*KW, L)
        c_out_g = c_out // groups
        k = c_in_g * kh * kw
        cols_g = cols.reshape(n, groups, k, l)
        w_g = weight.data.reshape(groups, c_out_g, k)
        out = np.einsum("gok,ngkl->ngol", w_g, cols_g, optimize=True)
        out = out.reshape(n, c_out, oh, ow)

        def backward_grouped(grad):
            grad_g = grad.reshape(n, groups, c_out_g, l)
            gx = gw = None
            if need_gw:
                gw = np.einsum("ngol,ngkl->gok", grad_g, cols_g, optimize=True)
                gw = gw.reshape(c_out, c_in_g, kh, kw)
            if need_gx:
                gcols = np.einsum("gok,ngol->ngkl", w_g, grad_g, optimize=True)
                gcols = gcols.reshape(n, c_in * kh * kw, l)
                gx = col2im(gcols, (n, c_in, h, w), (kh, kw), stride, padding)
            return gx, gw

        backward = backward_grouped

    if bias is None:
        return make_op(out, (x, weight), backward)
    bias = ensure_tensor(bias)
    out = out + bias.data.reshape(1, c_out, 1, 1)
    need_gb, backward_xw = bias.requires_grad, backward

    def backward(grad):
        gb = grad.sum(axis=(0, 2, 3)) if need_gb else None
        return (*backward_xw(grad), gb)

    return make_op(out, (x, weight, bias), backward)


def avg_pool2d(x, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling with square windows (no padding)."""
    x = ensure_tensor(x)
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)
    windows = np.lib.stride_tricks.sliding_window_view(
        x.data, (kernel, kernel), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    out = windows.mean(axis=(4, 5))
    scale = 1.0 / (kernel * kernel)

    def backward(grad):
        gx = np.zeros_like(x.data)
        g = grad * scale
        if stride >= kernel:
            # Disjoint windows: write every tap of every window in one
            # broadcast assignment through a strided view of gx — the
            # backward twin of the forward's sliding-window view.
            s0, s1, s2, s3 = gx.strides
            view = np.lib.stride_tricks.as_strided(
                gx,
                shape=(n, c, oh, ow, kernel, kernel),
                strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
            )
            view[...] = g[..., None, None]
        else:
            for i in range(kernel):
                for j in range(kernel):
                    gx[:, :, i : i + stride * oh : stride,
                       j : j + stride * ow : stride] += g
        return (gx,)

    return make_op(out, (x,), backward)


def max_pool2d(x, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling with square windows (no padding)."""
    x = ensure_tensor(x)
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)
    windows = np.lib.stride_tricks.sliding_window_view(
        x.data, (kernel, kernel), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    flat = windows.reshape(n, c, oh, ow, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(grad):
        gx = np.zeros_like(x.data)
        ki, kj = np.divmod(arg, kernel)
        ni, ci, oi, oj = np.indices(arg.shape)
        rows = oi * stride + ki
        cols = oj * stride + kj
        np.add.at(gx, (ni, ci, rows, cols), grad)
        return (gx,)

    return make_op(out, (x,), backward)


def global_avg_pool2d(x) -> Tensor:
    """Average over all spatial positions, keeping (N, C, 1, 1)."""
    x = ensure_tensor(x)
    return x.mean(axis=(2, 3), keepdims=True)
