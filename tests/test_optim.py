"""Optimisers, schedules and gumbel softmax."""

import numpy as np
import pytest

from repro.nn import Parameter
from repro.optim import (
    Adam,
    ConstantSchedule,
    CosineDecay,
    ExponentialDecay,
    SGD,
    StepDecay,
    gumbel_softmax,
    sample_gumbel,
)
from repro.tensor import Tensor


def quadratic_step(opt, p, target):
    """One optimisation step on 0.5*||p - target||^2."""
    opt.zero_grad()
    p.grad = (p.data - target).astype(p.data.dtype)
    opt.step()


class TestSGD:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0], dtype=np.float32))
        opt = SGD([p], lr=0.1, momentum=0.9)
        target = np.array([1.0, 1.0], dtype=np.float32)
        for _ in range(200):
            quadratic_step(opt, p, target)
        assert np.allclose(p.data, target, atol=1e-3)

    def test_momentum_accelerates(self):
        def run(momentum):
            p = Parameter(np.array([10.0], dtype=np.float32))
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                quadratic_step(opt, p, np.zeros(1, dtype=np.float32))
            return abs(float(p.data[0]))

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks_weights(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.1)
        opt.zero_grad()
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert float(p.data[0]) < 1.0

    def test_skips_params_without_grad(self):
        p = Parameter(np.ones(2, dtype=np.float32))
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, 1.0)

    def test_validates_hyperparams(self):
        p = Parameter(np.ones(1, dtype=np.float32))
        with pytest.raises(ValueError):
            SGD([p], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0], dtype=np.float32))
        opt = Adam([p], lr=0.1)
        target = np.array([1.0, 1.0], dtype=np.float32)
        for _ in range(300):
            quadratic_step(opt, p, target)
        assert np.allclose(p.data, target, atol=1e-2)

    def test_first_step_magnitude_is_lr(self):
        # With bias correction, |first update| ~= lr regardless of grad scale.
        p = Parameter(np.array([0.0], dtype=np.float32))
        opt = Adam([p], lr=0.01)
        opt.zero_grad()
        p.grad = np.array([1000.0], dtype=np.float32)
        opt.step()
        assert abs(float(p.data[0])) == pytest.approx(0.01, rel=1e-3)

    def test_weight_decay_adds_to_the_gradient(self):
        decayed = Parameter(np.array([2.0], dtype=np.float32))
        plain = Parameter(np.array([2.0], dtype=np.float32))
        opts = [Adam([decayed], lr=0.1, weight_decay=0.5),
                Adam([plain], lr=0.1)]
        for opt, p in zip(opts, (decayed, plain)):
            opt.zero_grad()
            p.grad = np.array([-1.0], dtype=np.float32)
            opt.step()
        # grad + wd * w = 0 leaves the decayed weight in place, while
        # the plain one moves by lr against its gradient.
        assert decayed.data[0] == pytest.approx(2.0)
        assert plain.data[0] == pytest.approx(2.1, rel=1e-4)

    def test_parameters_without_grad_are_left_alone(self):
        used = Parameter(np.array([1.0], dtype=np.float32))
        unused = Parameter(np.array([1.0], dtype=np.float32))
        opt = Adam([used, unused], lr=0.1)
        opt.zero_grad()
        used.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        assert used.data[0] < 1.0
        assert unused.data[0] == 1.0

    def test_validates_betas(self):
        p = Parameter(np.ones(1, dtype=np.float32))
        with pytest.raises(ValueError):
            Adam([p], betas=(1.1, 0.9))


class TestSchedules:
    def test_cosine_endpoints(self):
        sched = CosineDecay(1.0, 100)
        assert sched(0) == pytest.approx(1.0)
        assert sched(100) == pytest.approx(0.0, abs=1e-9)
        assert sched(50) == pytest.approx(0.5)

    def test_cosine_monotone_decreasing(self):
        sched = CosineDecay(0.1, 50)
        values = [sched(i) for i in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_step_decay(self):
        sched = StepDecay(1.0, step_size=10, gamma=0.1)
        assert sched(9) == pytest.approx(1.0)
        assert sched(10) == pytest.approx(0.1)
        assert sched(25) == pytest.approx(0.01)

    def test_exponential_decay_paper_temperature(self):
        sched = ExponentialDecay(3.0, 0.94)
        assert sched(0) == pytest.approx(3.0)
        assert sched(1) == pytest.approx(2.82)
        assert sched(1000) == pytest.approx(0.0, abs=1e-20)  # floor

    def test_constant(self):
        assert ConstantSchedule(0.3)(12345) == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            CosineDecay(1.0, 0)
        with pytest.raises(ValueError):
            StepDecay(1.0, 0)


class TestGumbel:
    def test_sample_shape(self):
        assert sample_gumbel((3, 4)).shape == (3, 4)

    def test_soft_sums_to_one(self):
        logits = Tensor(np.zeros((5, 4), dtype=np.float32), requires_grad=True)
        y = gumbel_softmax(logits, temperature=1.0)
        assert np.allclose(y.data.sum(axis=-1), 1.0, atol=1e-5)

    def test_hard_is_one_hot_with_soft_gradient(self):
        logits = Tensor(np.zeros((6,), dtype=np.float32), requires_grad=True)
        y = gumbel_softmax(logits, temperature=1.0, hard=True)
        assert sorted(np.unique(y.data)) == [0.0, 1.0]
        assert y.data.sum() == 1.0
        y.sum().backward()
        assert logits.grad is not None

    def test_low_temperature_sharpens(self):
        logits = Tensor(np.array([2.0, 0.0, 0.0], dtype=np.float32))
        rng = np.random.default_rng(0)
        hot = gumbel_softmax(logits, 0.1, rng=rng)
        assert hot.data.max() > 0.9

    def test_biased_logits_win_more_often(self):
        logits = Tensor(np.array([3.0, 0.0], dtype=np.float32))
        rng = np.random.default_rng(0)
        wins = sum(
            gumbel_softmax(logits, 1.0, rng=rng).data.argmax() == 0
            for _ in range(200)
        )
        assert wins > 140

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            gumbel_softmax(Tensor(np.zeros(3)), temperature=0.0)
