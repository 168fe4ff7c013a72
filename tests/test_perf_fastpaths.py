"""Equivalence tests for the fast execution engine.

Three families of guarantees:

* the conv2d fast paths (pointwise matmul, dense matmul, depthwise tap
  accumulation) produce the same outputs AND gradients as the grouped
  einsum reference path (``fast_conv(False)``), including against the
  numerical gradient checker;
* a quantised depthwise conv's straight-through gradients equal the
  reference conv's gradients at the quantised weight and input;
* the quantised-weight cache is invalidated exactly when weights change
  (``SGD.step``, ``load_state_dict``) and never between consecutive
  forwards.
"""

import numpy as np
import pytest

from repro.optim import SGD
from repro.quant import (
    QuantConv2d,
    QuantLinear,
    make_quantizer,
    weight_cache,
    weight_cache_enabled,
)
from repro.tensor import Tensor, check_gradients, conv2d, fast_conv, fast_conv_enabled

RNG = np.random.default_rng(7)


def _run_conv(x, w, b, g, enabled, **kwargs):
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    bt = Tensor(b, requires_grad=True) if b is not None else None
    with fast_conv(enabled):
        out = conv2d(xt, wt, bt, **kwargs)
        if g is not None:
            out.backward(g)
    if g is None:
        return out.data, []
    grads = [xt.grad, wt.grad] + ([bt.grad] if b is not None else [])
    return out.data, grads


CASES = [
    # (name, x_shape, w_shape, kwargs)
    ("pointwise", (3, 8, 6, 6), (5, 8, 1, 1), dict(stride=1, padding=0, groups=1)),
    ("pointwise_bias", (2, 4, 5, 5), (3, 4, 1, 1), dict(stride=1, padding=0, groups=1)),
    ("dense_3x3", (2, 4, 7, 7), (6, 4, 3, 3), dict(stride=1, padding=1, groups=1)),
    ("dense_strided", (2, 4, 9, 9), (6, 4, 3, 3), dict(stride=2, padding=1, groups=1)),
    ("dense_1x1_strided", (2, 4, 8, 8), (6, 4, 1, 1), dict(stride=2, padding=0, groups=1)),
    ("depthwise_3x3", (2, 6, 8, 8), (6, 1, 3, 3), dict(stride=1, padding=1, groups=6)),
    ("depthwise_strided", (2, 6, 9, 9), (6, 1, 3, 3), dict(stride=2, padding=1, groups=6)),
    ("depthwise_5x5", (2, 4, 11, 11), (4, 1, 5, 5), dict(stride=1, padding=2, groups=4)),
    # MobileNetV2's last-stage map size: every tap but the centre hangs
    # over the border.
    ("depthwise_2x2_bias", (2, 8, 2, 2), (8, 1, 3, 3), dict(stride=1, padding=1, groups=8)),
    ("grouped", (2, 8, 6, 6), (8, 2, 3, 3), dict(stride=1, padding=1, groups=4)),
]


class TestFastPathEquivalence:
    @pytest.mark.parametrize("name,x_shape,w_shape,kwargs", CASES)
    def test_forward_and_gradients_match_reference(
        self, name, x_shape, w_shape, kwargs
    ):
        x = RNG.normal(size=x_shape)
        w = RNG.normal(size=w_shape)
        use_bias = "bias" in name
        b = RNG.normal(size=w_shape[0]) if use_bias else None
        # Probe the output shape, then use a random gradient so every
        # output element is exercised.
        out_fast, _ = _run_conv(x, w, b, None, True, **kwargs)
        g = RNG.normal(size=out_fast.shape)
        out_fast, grads_fast = _run_conv(x, w, b, g, True, **kwargs)
        out_ref, grads_ref = _run_conv(x, w, b, g, False, **kwargs)
        assert np.allclose(out_fast, out_ref, atol=1e-9), name
        for gf, gr in zip(grads_fast, grads_ref):
            assert np.allclose(gf, gr, atol=1e-9), name

    @pytest.mark.parametrize(
        "name,x_shape,w_shape,kwargs",
        [
            c for c in CASES
            if c[0] in (
                "pointwise", "dense_3x3", "depthwise_3x3",
                "depthwise_strided", "depthwise_5x5",
            )
        ],
    )
    def test_fast_paths_pass_numerical_gradcheck(
        self, name, x_shape, w_shape, kwargs
    ):
        x = Tensor(RNG.normal(size=x_shape), requires_grad=True)
        w = Tensor(RNG.normal(size=w_shape), requires_grad=True)
        assert fast_conv_enabled()
        check_gradients(
            lambda xt, wt: conv2d(xt, wt, **kwargs).sum(),
            [x, w],
            atol=1e-4,
            rtol=1e-4,
        )

    @pytest.mark.parametrize("stride", [1, 2])
    def test_depthwise_float32_layout(self, stride):
        # The following BatchNorm reduces in memory order, so a transposed
        # view here would change its float32 sums.
        x = Tensor(RNG.normal(size=(2, 8, 6, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(RNG.normal(size=(8, 1, 3, 3)).astype(np.float32), requires_grad=True)
        out = conv2d(x, w, stride=stride, padding=1, groups=8)
        out.backward(np.ones(out.shape, dtype=np.float32))
        for arr in (out.data, x.grad):
            assert arr.dtype == np.float32
            assert arr.flags["C_CONTIGUOUS"]

    def test_toggle_restores_state(self):
        assert fast_conv_enabled()
        with fast_conv(False):
            assert not fast_conv_enabled()
            with fast_conv(True):
                assert fast_conv_enabled()
            assert not fast_conv_enabled()
        assert fast_conv_enabled()


class TestQuantizedConvSTE:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_depthwise_sbm_gradients_pass_straight_through(self, stride):
        # SBM's STE is unmasked: the layer's gradients are conv2d's
        # gradients at the quantised weight and input, passed unchanged to
        # the float weight and input.
        q = make_quantizer("sbm")
        layer = QuantConv2d(
            6, 6, 3, bit_widths=[4], quantizer=q, stride=stride, padding=1, groups=6
        )
        layer.set_bitwidth(4)
        x_data = RNG.normal(size=(2, 6, 7, 7)).astype(np.float32)
        x = Tensor(x_data, requires_grad=True)
        out = layer(x)
        g = RNG.normal(size=out.shape).astype(np.float32)
        out.backward(g)

        xq = Tensor(q.quantize_activation(Tensor(x_data), 4).data, requires_grad=True)
        wq = Tensor(q.weight_values(layer.weight.data, 4), requires_grad=True)
        with fast_conv(False):
            ref = conv2d(xq, wq, stride=stride, padding=1, groups=6)
            ref.backward(g)
        assert np.allclose(out.data, ref.data, atol=1e-5)
        assert np.allclose(layer.weight.grad, wq.grad, atol=1e-5)
        assert np.allclose(x.grad, xq.grad, atol=1e-5)


def _quantize_calls(layer):
    """Count quantizer.weight_values invocations on a layer."""
    counter = {"n": 0}
    original = layer.quantizer.weight_values

    def counting(weight, bits):
        counter["n"] += 1
        return original(weight, bits)

    layer.quantizer.weight_values = counting
    return counter


class TestQuantizedWeightCache:
    def _layer(self):
        q = make_quantizer("sbm")
        layer = QuantConv2d(4, 4, 3, bit_widths=[4, 8], quantizer=q, padding=1)
        layer.set_bitwidth(4)
        return layer

    def test_consecutive_forwards_reuse_cache(self):
        layer = self._layer()
        x = Tensor(RNG.normal(size=(2, 4, 6, 6)).astype(np.float32))
        counter = _quantize_calls(layer)
        layer(x)
        layer(x)
        layer(x)
        assert counter["n"] == 1

    def test_cache_refreshes_after_sgd_step(self):
        layer = self._layer()
        x = Tensor(RNG.normal(size=(2, 4, 6, 6)).astype(np.float32))
        counter = _quantize_calls(layer)
        out = layer(x)
        assert counter["n"] == 1
        out.sum().backward()
        SGD([layer.weight], lr=0.1).step()
        layer(x)
        assert counter["n"] == 2  # recomputed exactly once after the step

    def test_cache_keys_per_bitwidth(self):
        layer = self._layer()
        x = Tensor(RNG.normal(size=(2, 4, 6, 6)).astype(np.float32))
        counter = _quantize_calls(layer)
        layer(x)
        layer.set_bitwidth(8)
        layer(x)
        layer.set_bitwidth(4)
        layer(x)  # back to 4: still cached
        assert counter["n"] == 2

    def test_cached_forward_matches_uncached(self):
        layer = self._layer()
        x = Tensor(RNG.normal(size=(2, 4, 6, 6)).astype(np.float32))
        out_cached = layer(x)
        with weight_cache(False):
            assert not weight_cache_enabled()
            out_plain = layer(x)
        assert np.allclose(out_cached.data, out_plain.data)

    def test_gradients_flow_through_cached_weights(self):
        layer = self._layer()
        x = Tensor(RNG.normal(size=(2, 4, 6, 6)).astype(np.float32))
        layer(x)  # prime the cache
        out = layer(x)  # cached forward
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.weight.grad.shape == layer.weight.shape

    def test_linear_cache_folds_transpose(self):
        q = make_quantizer("sbm")
        layer = QuantLinear(6, 3, bit_widths=[4, 8], quantizer=q)
        layer.set_bitwidth(4)
        x = Tensor(RNG.normal(size=(2, 6)).astype(np.float32), requires_grad=True)
        out = layer(x)
        cached = layer._wq_cache[(4, layer.weight.version)]
        assert cached.shape == (6, 3)  # stored pre-transposed (in, out)
        assert cached.flags["C_CONTIGUOUS"]
        out.sum().backward()
        assert layer.weight.grad.shape == (3, 6)

    def test_load_state_dict_invalidates_cache(self):
        layer = self._layer()
        x = Tensor(RNG.normal(size=(2, 4, 6, 6)).astype(np.float32))
        counter = _quantize_calls(layer)
        layer(x)
        state = layer.state_dict()
        state["weight"] = state["weight"] * 2.0
        layer.load_state_dict(state)
        out = layer(x)
        assert counter["n"] == 2
        # And the recomputed values reflect the new weights.
        with weight_cache(False):
            out_plain = layer(x)
        assert np.allclose(out.data, out_plain.data)
