"""Autograd graph mechanics: accumulation, detach, no_grad, errors."""

import weakref

import numpy as np
import pytest

from repro.tensor import Tensor, is_grad_enabled, no_grad
from repro.tensor import ops


class TestGraph:
    def test_gradient_accumulates_over_shared_input(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x  # x used twice by one op
        y.backward()
        assert np.allclose(x.grad, [4.0])

    def test_gradient_accumulates_over_two_paths(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        out = x * 2.0 + x * 5.0
        out.backward()
        assert np.allclose(x.grad, [7.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        a = x * 3.0
        b = x + 1.0
        out = ops.sum_(a * b)  # d/dx (3x * (x+1)) = 6x + 3 = 15
        out.backward()
        assert np.allclose(x.grad, [15.0])

    def test_backward_requires_scalar_without_grad(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (x * 1.0).backward()

    def test_backward_with_explicit_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        (x * 3.0).backward(np.full((2, 2), 2.0))
        assert np.allclose(x.grad, 6.0)

    def test_repeated_backward_accumulates_into_leaf(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).backward()
        (x * 2.0).backward()
        assert np.allclose(x.grad, [4.0])

    def test_zero_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_through_constant(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        c = Tensor(np.array([5.0]))  # no grad
        (x * c).backward()
        assert c.grad is None
        assert np.allclose(x.grad, [5.0])


class TestGraphRelease:
    """``backward`` frees the graph as it walks it (one backward per graph)."""

    def test_intermediate_dies_with_its_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        hidden = x * 2.0
        alive = weakref.ref(hidden)
        loss = ops.sum_(hidden * hidden)
        del hidden
        assert alive() is not None  # only the graph holds it now
        loss.backward()
        assert alive() is None  # freed although ``loss`` is still referenced
        assert np.allclose(x.grad, 8.0)

    def test_second_backward_raises(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        loss = x * 2.0
        loss.backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            loss.backward()
        assert np.allclose(x.grad, [2.0])

    def test_new_root_on_consumed_subgraph_raises(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        shared = x * 2.0
        (shared * 3.0).backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            (shared * 5.0).backward()


class TestDetachNoGrad:
    def test_detach_stops_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = (x * 3.0).detach()
        out = y * x  # gradient only flows through the second factor
        out.backward()
        assert np.allclose(x.grad, [6.0])

    def test_detach_shares_data(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        d = x.detach()
        assert d.data is x.data
        assert not d.requires_grad

    def test_copy_is_independent(self):
        x = Tensor(np.array([1.0]))
        c = x.copy()
        c.data[0] = 99.0
        assert x.data[0] == 1.0

    def test_no_grad_context(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2.0
            assert not y.requires_grad
        assert is_grad_enabled()

    def test_no_grad_nested(self):
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()

    def test_requires_grad_suppressed_inside_no_grad(self):
        with no_grad():
            x = Tensor(np.array([1.0]), requires_grad=True)
        assert not x.requires_grad


class TestTensorBasics:
    def test_item(self):
        assert Tensor(np.array([3.5])).item() == pytest.approx(3.5)

    def test_scalar_default_dtype_is_float32(self):
        assert Tensor(2.5).dtype == np.float32

    def test_numpy_scalar_keeps_dtype(self):
        assert Tensor(np.float64(2.5)).dtype == np.float64

    def test_ndarray_keeps_dtype(self):
        assert Tensor(np.zeros(3, dtype=np.float16)).dtype == np.float16

    def test_nested_tensor_unwrapped(self):
        inner = Tensor(np.ones(3))
        outer = Tensor(inner)
        assert outer.data is inner.data

    def test_len_shape_size(self):
        x = Tensor(np.zeros((4, 5)))
        assert len(x) == 4 and x.shape == (4, 5) and x.size == 20

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor(np.zeros(2), requires_grad=True))


class TestGradcheckItself:
    """check_gradients must fail loudly on a wrong backward."""

    @staticmethod
    def square_with_backward(scale):
        from repro.tensor.autograd import make_op

        def fn(x):
            return make_op(x.data ** 2, (x,),
                           lambda grad: (scale * grad * x.data,))
        return fn

    def test_correct_backward_passes(self):
        from repro.tensor.gradcheck import check_gradients

        x = Tensor(np.array([0.5, -1.5, 2.0]), requires_grad=True)
        check_gradients(self.square_with_backward(2.0), [x])

    def test_wrong_backward_is_reported(self):
        from repro.tensor.gradcheck import check_gradients

        x = Tensor(np.array([0.5, -1.5, 2.0]), requires_grad=True)
        with pytest.raises(AssertionError,
                           match="gradient mismatch for input 0"):
            check_gradients(self.square_with_backward(3.0), [x])

    def test_inputs_without_grad_are_skipped(self):
        from repro.tensor.gradcheck import check_gradients

        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        c = Tensor(np.array([3.0, 4.0]))
        check_gradients(lambda a, b: a * b, [x, c])
        assert c.grad is None


class TestTransposedStraightThrough:
    def test_forward_is_transposed_and_gradient_flows_back(self):
        from repro.tensor.ste import straight_through_t

        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = straight_through_t(x, np.round(x.data.T / 2) * 2)
        assert out.shape == (3, 2)
        (out * Tensor(np.arange(6.0).reshape(3, 2))).sum().backward()
        np.testing.assert_array_equal(x.grad, np.arange(6.0).reshape(3, 2).T)

    @pytest.mark.parametrize("x_shape, q_shape, match", [
        ((2, 3, 1), (1, 3, 2), "expects a 2-D tensor"),
        ((2, 3), (2, 3), "must match input"),
    ])
    def test_shape_mismatch_rejected(self, x_shape, q_shape, match):
        from repro.tensor.ste import straight_through_t

        with pytest.raises(ValueError, match=match):
            straight_through_t(Tensor(np.zeros(x_shape)), np.zeros(q_shape))

