"""Fused batch-norm backward against central finite differences."""

import numpy as np
import pytest

from repro.nn import SwitchableBatchNorm2d
from repro.tensor import Tensor, batch_norm2d, check_gradients


def t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestBatchNorm2dGradcheck:
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("shape", [(4, 3, 5, 5), (2, 4, 3, 3), (6, 3, 1, 1)])
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
