"""Fused batch norm: gradients against central finite differences, and
float32 outputs bitwise against the per-channel broadcast formulas."""

import numpy as np
import pytest

from repro.nn import SwitchableBatchNorm2d
from repro.tensor import Tensor, batch_norm2d, check_gradients


def t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestBatchNorm2dGradcheck:
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("shape", [(4, 3, 5, 5), (2, 4, 3, 3), (6, 3, 1, 1), (2, 6, 2, 2)])
    def test_gradcheck_x_gamma_beta(self, shape, training, rng):
        n, c, h, w = shape
        x = t(rng.normal(size=shape))
        gamma = t(rng.uniform(0.5, 1.5, size=c))
        beta = t(rng.normal(size=c))
        mean = rng.normal(size=c)
        var = rng.uniform(0.5, 2.0, size=c)
        # A plain sum is blind to the train-mode x-gradient (it is
        # identically zero), so reduce through a fixed random projection.
        proj = Tensor(rng.normal(size=shape))

        def fn(x, gamma, beta):
            # Fresh buffers per call: train mode updates them in place.
            out = batch_norm2d(x, gamma, beta, mean.copy(), var.copy(),
                               training=training)
            return out * proj

        check_gradients(fn, [x, gamma, beta])
        assert np.abs(x.grad).max() > 1e-3


def _broadcast_bn(x, gamma, beta, mean, var, grad, training, momentum=0.1, eps=1e-5):
    """BN with every per-channel vector broadcast as (1, C, 1, 1).

    Returns (out, gx, ggamma, gbeta); updates ``mean``/``var`` in place in
    training mode, as ``batch_norm2d`` does.
    """
    n, c, h, w = x.shape
    count = n * h * w
    if training:
        inv_count = 1.0 / count
        mean4 = (np.einsum("nchw->c", x) * inv_count).reshape(1, c, 1, 1)
        xc = x - mean4
        batch_var = np.einsum("nchw,nchw->c", xc, xc) * inv_count
        mean *= 1.0 - momentum
        mean += momentum * mean4.reshape(c)
        var *= 1.0 - momentum
        var += momentum * (batch_var * count / max(count - 1, 1))
    else:
        xc = x - mean.reshape(1, c, 1, 1)
        batch_var = var
    inv_std = 1.0 / np.sqrt(batch_var + eps)
    scale4 = (gamma * inv_std).reshape(1, c, 1, 1)
    out = xc * scale4
    out += beta.reshape(1, c, 1, 1)
    ggamma = np.einsum("nchw,nchw->c", grad, xc) * inv_std
    gbeta = np.einsum("nchw->c", grad)
    if training:
        ic = 1.0 / count
        gx = grad * gamma.reshape(1, c, 1, 1)
        gx -= (gamma * gbeta * ic).reshape(1, c, 1, 1)
        gx -= xc * (gamma * ggamma * ic * inv_std).reshape(1, c, 1, 1)
        gx *= inv_std.reshape(1, c, 1, 1)
    else:
        gx = grad * scale4
    return out, gx, ggamma, gbeta


class TestBatchNorm2dBitwise:
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize(
        "shape",
        [
            (8, 480, 2, 2), (64, 72, 16, 16), (3, 5, 1, 1),
            # MobileNetV2's widest late-stage BN at batch 64.
            (64, 640, 2, 2),
            # H != W: the tile length is H*W, not H or W squared.
            (4, 3, 5, 7),
            # One element per channel: zero batch variance and the
            # max(count - 1, 1) guard on the running variance.
            (1, 4, 1, 1),
            (2, 16, 16, 16),
        ],
    )
    def test_float32_matches_broadcast_formulas(self, shape, training, rng):
        # The channel-tiled passes compute every element as the (1, C, 1, 1)
        # broadcasts do, and the reductions are the same einsums, so float32
        # results are identical, not merely close.
        c = shape[1]
        x, grad = rng.normal(size=(2, *shape)).astype(np.float32)
        gamma, var = rng.uniform(0.5, 1.5, size=(2, c)).astype(np.float32)
        beta, mean = rng.normal(size=(2, c)).astype(np.float32)

        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        run_mean, run_var = mean.copy(), var.copy()
        out = batch_norm2d(xt, gt, bt, run_mean, run_var, training=training)
        out.backward(grad)

        ref_mean, ref_var = mean.copy(), var.copy()
        ref = _broadcast_bn(x, gamma, beta, ref_mean, ref_var, grad, training)
        for got, want in zip(
            (out.data, xt.grad, gt.grad, bt.grad, run_mean, run_var),
            (*ref, ref_mean, ref_var),
        ):
            assert got.dtype == np.float32
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_non_contiguous_input_matches_contiguous_copy(self, training, rng):
        # An NHWC array viewed as NCHW cannot be reshaped to (N, C*H*W)
        # without a copy.  Every pass and reduction then runs over that
        # copy, so the float32 bits do not depend on the input's layout.
        x_view = rng.normal(size=(4, 5, 6, 7)).astype(np.float32).transpose(0, 3, 1, 2)
        assert not x_view.flags["C_CONTIGUOUS"]
        grad = rng.normal(size=x_view.shape).astype(np.float32)
        gamma = rng.uniform(0.5, 1.5, size=7).astype(np.float32)
        beta, mean = rng.normal(size=(2, 7)).astype(np.float32)
        var = rng.uniform(0.5, 1.5, size=7).astype(np.float32)

        results = []
        for x in (x_view, np.ascontiguousarray(x_view)):
            xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
            run_mean, run_var = mean.copy(), var.copy()
            out = batch_norm2d(xt, gt, bt, run_mean, run_var, training=training)
            out.backward(grad)
            results.append((out.data, xt.grad, gt.grad, bt.grad, run_mean, run_var))
        for got, want in zip(*results):
            assert np.array_equal(got, want)


class TestSwitchableBatchNorm2dGradcheck:
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_only_active_bn_receives_gradients(self, training, rng):
        shape = (4, 3, 5, 5)
        sbn = SwitchableBatchNorm2d(3, [4, 8]).train(training)
        for bn in sbn.bns:
            bn.gamma.data = rng.uniform(0.5, 1.5, size=3)
            bn.beta.data = rng.normal(size=3)
            bn.running_mean[:] = rng.normal(size=3)
            bn.running_var[:] = rng.uniform(0.5, 2.0, size=3)
        sbn.set_bitwidth(8)
        inactive, active = sbn.bns
        x = t(rng.normal(size=shape))
        proj = Tensor(rng.normal(size=shape))

        check_gradients(
            lambda x, gamma, beta: sbn(x) * proj,
            [x, active.gamma, active.beta],
        )
        assert np.abs(x.grad).max() > 1e-3
        assert inactive.gamma.grad is None and inactive.beta.grad is None
