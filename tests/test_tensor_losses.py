"""Losses and straight-through estimators."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    accuracy,
    check_gradients,
    cross_entropy,
    mse_loss,
    round_ste,
    softmax,
    straight_through,
)


def t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        loss = cross_entropy(Tensor(logits), labels)
        probs = np.exp(logits - logits.max(1, keepdims=True))
        probs /= probs.sum(1, keepdims=True)
        expected = -np.log(probs[np.arange(6), labels]).mean()
        assert loss.item() == pytest.approx(expected, rel=1e-9)

    def test_gradcheck(self, rng):
        logits = t(rng.normal(size=(5, 3)))
        labels = rng.integers(0, 3, size=5)
        check_gradients(lambda l: cross_entropy(l, labels), [logits])

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = t(rng.normal(size=(4, 3)))
        labels = np.array([0, 1, 2, 0])
        cross_entropy(logits, labels).backward()
        p = softmax(Tensor(logits.data)).numpy()
        onehot = np.eye(3)[labels]
        assert np.allclose(logits.grad, (p - onehot) / 4, atol=1e-7)

    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_accepts_tensor_labels(self, rng):
        logits = Tensor(rng.normal(size=(3, 4)))
        labels = Tensor(np.array([0, 1, 2]))
        assert np.isfinite(cross_entropy(logits, labels).item())


class TestMSE:
    def test_value(self):
        loss = mse_loss(Tensor(np.array([1.0, 2.0])), Tensor(np.array([0.0, 0.0])))
        assert loss.item() == pytest.approx(2.5)

    def test_gradcheck(self, rng):
        a = t(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(3, 4)))
        check_gradients(lambda a: mse_loss(a, b), [a])

    def test_detached_target_gets_no_gradient(self, rng):
        student = t(rng.normal(size=(2, 3)))
        teacher = t(rng.normal(size=(2, 3)))
        mse_loss(student, teacher.detach()).backward()
        assert teacher.grad is None
        assert student.grad is not None


class TestAccuracy:
    def test_perfect(self):
        logits = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert accuracy(logits, np.array([0, 1])) == 1.0

    def test_half(self):
        logits = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert accuracy(logits, np.array([0, 1])) == 0.5


class TestSTE:
    def test_forward_is_quantized(self):
        x = Tensor(np.array([0.1, 0.9]), requires_grad=True)
        out = straight_through(x, np.array([0.0, 1.0]))
        assert np.allclose(out.data, [0.0, 1.0])

    def test_backward_is_identity(self):
        x = Tensor(np.array([0.1, 0.9]), requires_grad=True)
        straight_through(x, np.array([0.0, 1.0])).backward(np.array([2.0, 3.0]))
        assert np.allclose(x.grad, [2.0, 3.0])

    def test_clip_mask_zeroes_saturated(self):
        x = Tensor(np.array([-1.0, 0.5, 7.0]), requires_grad=True)
        out = straight_through(x, np.clip(x.data, 0, 6), clip_low=0.0, clip_high=6.0)
        out.backward(np.ones(3))
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])

    def test_shape_mismatch_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError, match="shape"):
            straight_through(x, np.zeros(4))

    def test_round_ste(self):
        x = Tensor(np.array([0.4, 1.6]), requires_grad=True)
        out = round_ste(x)
        assert np.allclose(out.data, [0.0, 2.0])
        out.backward(np.ones(2))
        assert np.allclose(x.grad, [1.0, 1.0])
