"""Equivalence tests for the fast execution engine.

Five families of guarantees:

* the conv2d fast paths (pointwise matmul, dense matmul, depthwise
  tap-view einsum, folded to one OW*C axis at stride 1) produce the same
  outputs AND gradients as the grouped einsum reference path
  (``fast_conv(False)``), including against the numerical gradient
  checker;
* conv2d, ``mul`` and ``matmul`` compute no gradient for an operand that
  does not require one, and the other operand's gradient is unchanged
  bit for bit;
* a quantised depthwise conv's straight-through gradients equal the
  reference conv's gradients at the quantised weight and input;
* the quantised-weight cache is invalidated exactly when weights change
  (``SGD.step``, ``load_state_dict``) and never between consecutive
  forwards;
* an op that records no graph (``clip``, ``straight_through``, eval
  ``batch_norm2d``) returns the recorded op's values bit for bit, in the
  same dtype, with no parents and no closure.
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
from repro.tensor import (
    Tensor,
    batch_norm2d,
    check_gradients,
    conv2d,
    fast_conv,
    fast_conv_enabled,
    no_grad,
    ops,
    straight_through,
)
from repro.tensor.conv import _tap_view

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


def _tap_loop_depthwise(x, w, stride, p):
    """Depthwise forward as a tap-by-tap accumulation from zero, in (i, j) order."""
    k = w.shape[-1]
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    oh = (xp.shape[2] - k) // stride + 1
    ow = (xp.shape[3] - k) // stride + 1
    acc = np.zeros((x.shape[0], x.shape[1], oh, ow), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            tap = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
            acc += tap * w[:, 0, i, j][:, None, None]
    return acc


def _unfolded_depthwise_gx(x, w, g, stride, p):
    """Depthwise input gradient as the unfolded (N, KH, KW, H, W, C) einsum
    over the zero-dilated output gradient with the kernel flipped."""
    n, c, h, wd = x.shape
    k = w.shape[-1]
    oh, ow = g.shape[2:]
    gd = np.zeros((n, h + 2 * p + k - 1, wd + 2 * p + k - 1, c), dtype=g.dtype)
    gd[:, k - 1:k - 1 + stride * oh:stride,
       k - 1:k - 1 + stride * ow:stride] = g.transpose(0, 2, 3, 1)
    view = np.lib.stride_tricks.sliding_window_view(
        gd[:, p:p + h + k - 1, p:p + wd + k - 1], (k, k), axis=(1, 2)
    ).transpose(0, 4, 5, 1, 2, 3)  # (N, KH, KW, H, W, C)
    w_khwc = np.ascontiguousarray(w[:, 0].transpose(1, 2, 0))
    gx = np.einsum("nijhwc,ijc->nhwc", view, w_khwc[::-1, ::-1])
    return gx.transpose(0, 3, 1, 2)


def _per_tap_depthwise_gw(x, g, k, stride, p):
    """Depthwise weight gradient reduced tap by tap, one
    ``einsum("nhwc,nhwc->c")`` per (i, j) over the padded NHWC input."""
    n, c = x.shape[:2]
    oh, ow = g.shape[2:]
    xp = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (p, p), (p, p), (0, 0)))
    g_nhwc = np.ascontiguousarray(g.transpose(0, 2, 3, 1))
    gw = np.empty((c, 1, k, k), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            tap = xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
            gw[:, 0, i, j] = np.einsum("nhwc,nhwc->c", g_nhwc, tap)
    return gw


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
    # Even map at stride 2 (MobileNetV2's 16->8 layers): the trailing
    # padded row and column are read by no window.
    ("depthwise_even_strided", (2, 6, 8, 8), (6, 1, 3, 3), dict(stride=2, padding=1, groups=6)),
    # SP-NAS's stride-2 e*k5 candidates.
    ("depthwise_5x5_strided", (2, 4, 12, 12), (4, 1, 5, 5), dict(stride=2, padding=2, groups=4)),
    ("depthwise_nopad", (2, 4, 7, 7), (4, 1, 3, 3), dict(stride=1, padding=0, groups=4)),
    # Padding wider than the kernel: some output rows see only zeros.
    ("depthwise_overpadded", (2, 4, 5, 5), (4, 1, 3, 3), dict(stride=1, padding=3, groups=4)),
    # OH != OW: the stride-1 fold merges OW (not OH) with the channels.
    ("depthwise_nonsquare", (2, 5, 6, 9), (5, 1, 3, 3), dict(stride=1, padding=1, groups=5)),
    ("depthwise_nonsquare_strided", (2, 6, 7, 10), (6, 1, 3, 3), dict(stride=2, padding=1, groups=6)),
    ("depthwise_1x1map", (2, 8, 1, 1), (8, 1, 3, 3), dict(stride=1, padding=1, groups=8)),
    ("depthwise_single_channel", (2, 1, 7, 7), (1, 1, 3, 3), dict(stride=1, padding=1, groups=1)),
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
                "depthwise_even_strided", "depthwise_5x5_strided",
                "depthwise_nonsquare",
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

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [3, 5])
    def test_depthwise_float32_summation_order(self, stride, k):
        # The forward adds each output's taps in (i, j) order from a zero
        # float32 accumulator, so eval accuracies and serving outputs do
        # not move with the kernel's implementation.
        p = k // 2
        x = RNG.normal(size=(2, 8, 9, 9)).astype(np.float32)
        w = RNG.normal(size=(8, 1, k, k)).astype(np.float32)
        out = conv2d(Tensor(x), Tensor(w), stride=stride, padding=p, groups=8).data
        assert np.array_equal(out, _tap_loop_depthwise(x, w, stride, p))

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [3, 5])
    def test_depthwise_float32_input_gradient_order(self, stride, k):
        # The input gradient correlates the zero-dilated output gradient with
        # the flipped kernel.  Folding (W, C) into one einsum axis must keep
        # the (N, KH, KW, H, W, C) einsum's float32 sums exactly.
        p, c = k // 2, 8
        x = RNG.normal(size=(2, c, 9, 9)).astype(np.float32)
        w = RNG.normal(size=(c, 1, k, k)).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        out = conv2d(xt, Tensor(w), stride=stride, padding=p, groups=c)
        g = RNG.normal(size=out.shape).astype(np.float32)
        out.backward(g)
        assert np.array_equal(xt.grad, _unfolded_depthwise_gx(x, w, g, stride, p))

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [3, 5])
    def test_depthwise_float32_nonsquare_map_bitwise(self, stride, k):
        # With OH != OW a fold that merged the wrong spatial axis with the
        # channels would still have the right element count; only the
        # values tell.  Both the forward and the input gradient must keep
        # the unfolded float32 sums.
        p, c = k // 2, 8
        x = RNG.normal(size=(2, c, 7, 12)).astype(np.float32)
        w = RNG.normal(size=(c, 1, k, k)).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        out = conv2d(xt, Tensor(w), stride=stride, padding=p, groups=c)
        assert np.array_equal(out.data, _tap_loop_depthwise(x, w, stride, p))
        g = RNG.normal(size=out.shape).astype(np.float32)
        out.backward(g)
        assert np.array_equal(xt.grad, _unfolded_depthwise_gx(x, w, g, stride, p))

    @pytest.mark.parametrize("hw", [(9, 9), (7, 12)], ids=["square", "nonsquare"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("c", [8, 24, 72])
    def test_depthwise_float32_weight_gradient_order(self, c, k, stride, hw):
        # The weight gradient reduces every tap in one einsum, yet each
        # (c, i, j) must keep the per-tap reduction's float32 sum.
        p = k // 2
        x = RNG.normal(size=(2, c, *hw)).astype(np.float32)
        w = Tensor(RNG.normal(size=(c, 1, k, k)).astype(np.float32),
                   requires_grad=True)
        out = conv2d(Tensor(x), w, stride=stride, padding=p, groups=c)
        g = RNG.normal(size=out.shape).astype(np.float32)
        out.backward(g)
        assert np.array_equal(w.grad, _per_tap_depthwise_gw(x, g, k, stride, p))

    def test_toggle_restores_state(self):
        assert fast_conv_enabled()
        with fast_conv(False):
            assert not fast_conv_enabled()
            with fast_conv(True):
                assert fast_conv_enabled()
            assert not fast_conv_enabled()
        assert fast_conv_enabled()


FROZEN_CONV_CASES = [
    # (name, x_shape, w_shape, kwargs, fast paths on)
    ("pointwise", (2, 8, 5, 5), (6, 8, 1, 1), dict(stride=1, padding=0, groups=1), True),
    ("depthwise", (2, 8, 7, 7), (8, 1, 3, 3), dict(stride=2, padding=1, groups=8), True),
    ("dense", (2, 4, 7, 7), (6, 4, 3, 3), dict(stride=1, padding=1, groups=1), True),
    ("grouped_reference", (2, 8, 7, 7), (8, 1, 3, 3), dict(stride=1, padding=1, groups=8), False),
]


class TestFrozenOperandsSkipGradients:
    """An operand that needs no gradient gets none computed: its slot in
    the backward closure's result is ``None`` and its ``.grad`` stays
    ``None``, while the other operand's gradient is bitwise the one an
    all-grad run computes."""

    @staticmethod
    def _run(op, arrays, needs, g):
        tensors = [Tensor(a, requires_grad=r) for a, r in zip(arrays, needs)]
        out = op(*tensors)
        slots = out._backward(g)
        out.backward(g)
        return [t.grad for t in tensors], slots

    def _check(self, op, arrays):
        probe = op(*(Tensor(a) for a in arrays))
        g = RNG.normal(size=probe.shape).astype(np.float32)
        full, _ = self._run(op, arrays, [True] * len(arrays), g)
        for frozen in range(len(arrays)):
            needs = [i != frozen for i in range(len(arrays))]
            grads, slots = self._run(op, arrays, needs, g)
            assert slots[frozen] is None
            assert grads[frozen] is None
            for i, need in enumerate(needs):
                if need:
                    assert np.array_equal(grads[i], full[i])

    @pytest.mark.parametrize(
        "name,x_shape,w_shape,kwargs,fast", FROZEN_CONV_CASES,
        ids=[c[0] for c in FROZEN_CONV_CASES],
    )
    def test_conv2d(self, name, x_shape, w_shape, kwargs, fast):
        x = RNG.normal(size=x_shape).astype(np.float32)
        w = RNG.normal(size=w_shape).astype(np.float32)
        with fast_conv(fast):
            self._check(lambda xt, wt: conv2d(xt, wt, **kwargs), [x, w])

    def test_conv2d_bias(self):
        x = RNG.normal(size=(2, 4, 5, 5)).astype(np.float32)
        w = RNG.normal(size=(3, 4, 1, 1)).astype(np.float32)
        b = RNG.normal(size=3).astype(np.float32)
        self._check(lambda xt, wt, bt: conv2d(xt, wt, bt), [x, w, b])

    @pytest.mark.parametrize("b_shape", [(3, 4), (4,), ()], ids=["same", "row", "scalar"])
    def test_mul(self, b_shape):
        a = RNG.normal(size=(3, 4)).astype(np.float32)
        b = RNG.normal(size=b_shape).astype(np.float32)
        self._check(lambda at, bt: at * bt, [a, b])

    @pytest.mark.parametrize("a_shape", [(3, 5), (2, 3, 5)], ids=["2d", "batched"])
    def test_matmul(self, a_shape):
        a = RNG.normal(size=a_shape).astype(np.float32)
        b = RNG.normal(size=(5, 4)).astype(np.float32)
        self._check(lambda at, bt: at @ bt, [a, b])


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

    def test_drop_stale_weights_frees_only_stale_entries(self):
        layer = self._layer()
        x = Tensor(RNG.normal(size=(2, 4, 6, 6)).astype(np.float32))
        counter = _quantize_calls(layer)
        layer(x)
        layer.drop_stale_weights()  # fresh: kept and still served
        layer(x)
        assert counter["n"] == 1
        layer.weight.bump_version()
        layer.drop_stale_weights()
        assert layer._wq_cache == {}
        layer(x)
        assert counter["n"] == 2

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


class TestNoGradShortcuts:
    """An op with nothing to record returns its values alone: the same
    bits and dtype as the recorded op, with no parents and no closure."""

    @staticmethod
    def _assert_detached_copy(out, recorded):
        assert recorded._parents and recorded._backward is not None
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        assert out.dtype == recorded.dtype
        assert out.data.tobytes() == recorded.data.tobytes()

    def test_clip(self):
        x = Tensor(RNG.normal(scale=4.0, size=(2, 3, 5, 5)).astype(np.float32),
                   requires_grad=True)
        recorded = ops.relu6(x)
        with no_grad():
            out = ops.relu6(x)
        self._assert_detached_copy(out, recorded)
        # Grad enabled but nothing requires it: nothing is recorded either.
        out = ops.clip(Tensor(x.data), 0.0, 6.0)
        assert out._parents == () and out._backward is None
        assert out.data.tobytes() == recorded.data.tobytes()

    def test_dorefa_straight_through_with_clip_bounds(self):
        q = make_quantizer("dorefa")
        x = Tensor(RNG.normal(scale=4.0, size=(2, 3, 5, 5)).astype(np.float32),
                   requires_grad=True)
        recorded = q.quantize_activation(x, 4)
        with no_grad():
            out = q.quantize_activation(x, 4)
        self._assert_detached_copy(out, recorded)

    def test_straight_through_keeps_dtype_conversion_and_shape_check(self):
        x = Tensor(RNG.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        quantized = np.round(x.data).astype(np.float64)
        recorded = straight_through(x, quantized, clip_low=-1.0, clip_high=1.0)
        with no_grad():
            out = straight_through(x, quantized, clip_low=-1.0, clip_high=1.0)
            self._assert_detached_copy(out, recorded)
            assert out.dtype == np.float32
            with pytest.raises(ValueError, match="must match input"):
                straight_through(x, quantized[:2])

    def test_eval_batch_norm(self):
        c = 4
        x = Tensor(RNG.normal(size=(3, c, 5, 5)).astype(np.float32),
                   requires_grad=True)
        gamma = Tensor(RNG.normal(size=c).astype(np.float32), requires_grad=True)
        beta = Tensor(RNG.normal(size=c).astype(np.float32), requires_grad=True)
        mean = RNG.normal(size=c).astype(np.float32)
        var = RNG.uniform(0.5, 2.0, size=c).astype(np.float32)
        before = (mean.copy(), var.copy())
        recorded = batch_norm2d(x, gamma, beta, mean, var, training=False)
        with no_grad():
            out = batch_norm2d(x, gamma, beta, mean, var, training=False)
        self._assert_detached_copy(out, recorded)
        # Grad enabled but no operand requires it: nothing is recorded.
        out = batch_norm2d(Tensor(x.data), Tensor(gamma.data), Tensor(beta.data),
                           mean, var, training=False)
        assert out._parents == () and out._backward is None
        assert out.data.tobytes() == recorded.data.tobytes()
        # A channels-last input takes the same values.
        x_cl = Tensor(np.ascontiguousarray(x.data.transpose(0, 2, 3, 1))
                      .transpose(0, 3, 1, 2))
        with no_grad():
            out = batch_norm2d(x_cl, gamma, beta, mean, var, training=False)
        assert out.data.tobytes() == recorded.data.tobytes()
        assert np.array_equal(mean, before[0]) and np.array_equal(var, before[1])


class TestDepthwiseTapView:
    @pytest.mark.parametrize("stride,offset", [(1, 0), (2, 0), (1, 2)])
    def test_view_reads_every_tap_and_rejects_writes(self, stride, offset):
        xp = RNG.normal(size=(2, 9, 10, 3)).astype(np.float32)
        kh, kw, oh, ow = 3, 2, 3, 4
        view = _tap_view(xp, (kh, kw), (oh, ow), stride, offset)
        assert view.shape == (2, kh, kw, oh, ow, 3)
        for i in range(kh):
            for j in range(kw):
                expected = xp[:, offset + i:offset + i + stride * oh:stride,
                              offset + j:offset + j + stride * ow:stride]
                assert np.array_equal(view[:, i, j], expected)
        assert not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0, 0, 0] = 1.0
