"""Quantiser correctness: level counts, scaling, error monotonicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import (
    DoReFaQuantizer,
    SBMQuantizer,
    make_quantizer,
)
from repro.tensor import Tensor


def weights(shape=(8, 4, 3, 3), seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape).astype(np.float32),
                  requires_grad=True)


class TestRegistry:
    def test_make_by_name(self):
        assert isinstance(make_quantizer("sbm"), SBMQuantizer)
        assert isinstance(make_quantizer("DoReFa"), DoReFaQuantizer)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown quantizer"):
            make_quantizer("foo")


class TestFullPrecisionPassthrough:
    @pytest.mark.parametrize("q", [SBMQuantizer(), DoReFaQuantizer()])
    def test_32bit_returns_input_unchanged(self, q):
        w = weights()
        assert q.quantize_weight(w, 32) is w
        assert q.quantize_activation(w, 32) is w


class TestSBM:
    def test_weight_level_count(self):
        w = weights()
        for bits in (2, 3, 4):
            q = SBMQuantizer().quantize_weight(w, bits)
            per_channel_levels = [
                len(np.unique(q.data[c])) for c in range(w.shape[0])
            ]
            assert max(per_channel_levels) <= 2 ** bits - 1

    def test_per_channel_max_preserved(self):
        w = weights()
        q = SBMQuantizer().quantize_weight(w, 8)
        for c in range(w.shape[0]):
            assert np.abs(q.data[c]).max() == pytest.approx(
                np.abs(w.data[c]).max(), rel=1e-5
            )

    def test_activation_unsigned_for_nonnegative(self):
        x = Tensor(np.random.default_rng(0).uniform(0, 6, size=(4, 8)).astype(np.float32))
        q = SBMQuantizer().quantize_activation(x, 4)
        assert q.data.min() >= 0.0
        assert len(np.unique(q.data)) <= 16

    def test_activation_signed_for_mixed(self):
        x = Tensor(np.array([-2.0, -1.0, 0.5, 2.0], dtype=np.float32))
        q = SBMQuantizer().quantize_activation(x, 4)
        assert q.data.min() < 0.0

    def test_rejects_one_bit(self):
        with pytest.raises(ValueError):
            SBMQuantizer().quantize_weight(weights(), 1)

    def test_zero_weights_stable(self):
        w = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
        q = SBMQuantizer().quantize_weight(w, 4)
        assert np.allclose(q.data, 0.0)

    def test_ste_gradient_flows(self):
        w = weights(shape=(4, 4))
        q = SBMQuantizer().quantize_weight(w, 4)
        q.sum().backward()
        assert np.allclose(w.grad, 1.0)


class TestDoReFa:
    def test_weight_range_bounded_by_max(self):
        w = weights()
        q = DoReFaQuantizer().quantize_weight(w, 4)
        assert np.abs(q.data).max() <= np.abs(w.data).max() + 1e-6

    def test_activation_clipped_to_range(self):
        q = DoReFaQuantizer(activation_range=6.0)
        x = Tensor(np.array([-1.0, 3.0, 100.0], dtype=np.float32))
        out = q.quantize_activation(x, 4)
        assert out.data.min() >= 0.0 and out.data.max() <= 6.0

    def test_activation_level_count(self):
        x = Tensor(np.random.default_rng(1).uniform(0, 6, 2000).astype(np.float32))
        out = DoReFaQuantizer().quantize_activation(x, 3)
        assert len(np.unique(out.data)) <= 8

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            DoReFaQuantizer(activation_range=-1.0)

    def test_1bit_weights_binary(self):
        w = weights()
        q = DoReFaQuantizer().quantize_weight(w, 1)
        assert len(np.unique(np.round(q.data, 5))) <= 2


class TestBitWidthGuards:
    def test_dorefa_zero_weights_pass_through(self):
        w = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
        assert DoReFaQuantizer().quantize_weight(w, 4) is w

    @pytest.mark.parametrize("call, match", [
        (lambda: DoReFaQuantizer().quantize_weight(weights(), 0),
         "weight bits must be >= 1"),
        (lambda: DoReFaQuantizer().quantize_activation(weights(), 0),
         "activation bits must be >= 1"),
        (lambda: SBMQuantizer().quantize_activation(weights(), 1),
         "SBM activation bits must be >= 2"),
    ], ids=["dorefa-weight", "dorefa-activation", "sbm-activation"])
    def test_bits_below_minimum_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_sbm_error_decreases_with_bits(seed):
    """More bits -> no larger quantisation error (monotone refinement)."""
    w = Tensor(np.random.default_rng(seed).normal(size=(4, 16)).astype(np.float32))
    q = SBMQuantizer()
    errors = [
        float(np.abs(q.quantize_weight(w, bits).data - w.data).max())
        for bits in (2, 4, 8, 16)
    ]
    assert all(errors[i] >= errors[i + 1] - 1e-6 for i in range(len(errors) - 1))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), bits=st.integers(2, 8))
def test_property_sbm_idempotent(seed, bits):
    """Quantising an already-quantised tensor changes nothing."""
    w = Tensor(np.random.default_rng(seed).normal(size=(3, 10)).astype(np.float32))
    q = SBMQuantizer()
    once = q.quantize_weight(w, bits)
    twice = q.quantize_weight(Tensor(once.data), bits)
    assert np.allclose(once.data, twice.data, atol=1e-5)
