"""Switchable-precision layers and network-level switching."""

import numpy as np
import pytest

from repro.nn import models
from repro.quant import (
    QuantConv2d,
    QuantLinear,
    SBMQuantizer,
    SwitchableFactory,
    SwitchablePrecisionNetwork,
    normalize_bits,
    sort_bitwidths,
)
from repro.tensor import Tensor


def image(n=2, c=3, size=8):
    return Tensor(np.random.default_rng(0).normal(
        size=(n, c, size, size)).astype(np.float32))


class TestBitSpec:
    def test_normalize_int(self):
        assert normalize_bits(8) == (8, 8)

    def test_normalize_pair(self):
        assert normalize_bits((2, 32)) == (2, 32)

    def test_normalize_rejects_triple(self):
        with pytest.raises(ValueError):
            normalize_bits((1, 2, 3))

    def test_sort_ints(self):
        assert sort_bitwidths([32, 4, 8]) == [4, 8, 32]

    def test_sort_pairs(self):
        pairs = [(32, 32), (2, 2), (32, 2), (2, 32)]
        assert sort_bitwidths(pairs)[0] == (2, 2)
        assert sort_bitwidths(pairs)[-1] == (32, 32)


class TestQuantLayers:
    def test_quant_conv_outputs_differ_across_bits(self):
        conv = QuantConv2d(3, 8, 3, bit_widths=[2, 32], quantizer=SBMQuantizer(),
                           padding=1)
        x = image()
        conv.set_bitwidth(2)
        low = conv(x).data.copy()
        conv.set_bitwidth(32)
        high = conv(x).data.copy()
        assert not np.allclose(low, high)

    def test_quant_conv_32bit_matches_float(self):
        conv = QuantConv2d(3, 4, 3, bit_widths=[32], quantizer=SBMQuantizer())
        x = image()
        out_q = conv(x)
        from repro.tensor import conv2d
        out_f = conv2d(x, conv.weight, stride=1, padding=0)
        assert np.allclose(out_q.data, out_f.data)

    def test_rejects_unknown_bits(self):
        conv = QuantConv2d(3, 4, 3, bit_widths=[4, 8], quantizer=SBMQuantizer())
        with pytest.raises(ValueError, match="candidate"):
            conv.set_bitwidth(16)

    def test_quant_linear_pair_bits(self):
        lin = QuantLinear(6, 4, bit_widths=[(2, 32), (32, 32)],
                          quantizer=SBMQuantizer())
        lin.set_bitwidth((2, 32))
        out = lin(Tensor(np.ones((2, 6), dtype=np.float32)))
        assert out.shape == (2, 4)

    def test_default_active_is_last_candidate(self):
        conv = QuantConv2d(3, 4, 3, bit_widths=[4, 8, 32],
                           quantizer=SBMQuantizer())
        assert conv.active_bits == 32


class TestSwitchableFactory:
    def test_builds_quant_layers(self):
        fac = SwitchableFactory([4, 8], quantizer="sbm")
        assert isinstance(fac.conv(3, 8, 3), QuantConv2d)
        assert isinstance(fac.linear(4, 2), QuantLinear)

    def test_quantize_false_builds_float_layers(self):
        from repro.nn import Conv2d, Linear
        fac = SwitchableFactory([4, 8])
        conv = fac.conv(3, 8, 3, quantize=False)
        assert type(conv) is Conv2d
        lin = fac.linear(4, 2, quantize=False)
        assert type(lin) is Linear

    def test_switchable_bn_toggle(self):
        from repro.nn import BatchNorm2d, SwitchableBatchNorm2d
        assert isinstance(SwitchableFactory([4, 8]).norm(4),
                          SwitchableBatchNorm2d)
        assert isinstance(
            SwitchableFactory([4, 8], switchable_bn=False).norm(4),
            BatchNorm2d,
        )

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            SwitchableFactory([])
        with pytest.raises(TypeError):
            SwitchableFactory([4], quantizer=123)
        with pytest.raises(ValueError):
            SwitchableFactory([4], activation="gelu")


class TestSwitchableNetwork:
    def _network(self, bits=(4, 8, 32)):
        fac = SwitchableFactory(list(bits), quantizer="sbm")
        model = models.mobilenet_v2(num_classes=5, setting="tiny", factory=fac,
                                    width_mult=0.5)
        return SwitchablePrecisionNetwork(model, list(bits))

    def test_bit_widths_sorted(self):
        sp = self._network((32, 4, 8))
        assert sp.bit_widths == (4, 8, 32)
        assert sp.lowest == 4 and sp.highest == 32

    def test_forward_all_yields_every_bits(self):
        sp = self._network()
        outs = dict(sp.forward_all(image(size=16)))
        assert set(outs) == {4, 8, 32}

    def test_at_context_restores(self):
        sp = self._network()
        sp.set_bitwidth(32)
        with sp.at(4):
            pass
        # After the context the previous width is restored.
        from repro.quant import QuantConv2d as QC
        active = {m.active_bits for m in sp.model.modules()
                  if isinstance(m, QC)}
        assert active == {32}

    def test_rejects_model_without_switchable_layers(self):
        model = models.mobilenet_v2(num_classes=5, setting="tiny")
        with pytest.raises(ValueError, match="no switchable"):
            SwitchablePrecisionNetwork(model, [4, 8])

    def test_empty_candidate_set_rejected(self):
        fac = SwitchableFactory([4, 8], quantizer="sbm")
        model = models.mobilenet_v2(num_classes=5, setting="tiny",
                                    factory=fac, width_mult=0.5)
        with pytest.raises(ValueError, match="must be non-empty"):
            SwitchablePrecisionNetwork(model, [])

    def test_switch_outside_candidates_rejected(self):
        sp = self._network()
        sp.set_bitwidth(8)
        with pytest.raises(ValueError, match="not in candidate set"):
            sp.set_bitwidth(16)
        from repro.quant import QuantConv2d as QC
        active = {m.active_bits for m in sp.model.modules()
                  if isinstance(m, QC)}
        assert active == {8}

    def test_quantization_noise_ordering(self):
        """Output deviation from FP32 must shrink as bits grow."""
        sp = self._network((4, 8, 16, 32))
        sp.model.eval()
        x = image(size=16)
        outs = {b: o.data.copy() for b, o in sp.forward_all(x)}
        err4 = np.abs(outs[4] - outs[32]).mean()
        err8 = np.abs(outs[8] - outs[32]).mean()
        err16 = np.abs(outs[16] - outs[32]).mean()
        assert err4 > err8 > err16


class TestSwitchableCacheInvalidation:
    """Regression: the cached switchable-layer list must survive surgery.

    The wrapper collects switchable layers once for speed; replacing or
    adding a child module after wrapping used to leave the cache stale,
    silently skipping the new layer on every subsequent switch.
    """

    def _small_net(self, bits=(4, 8)):
        fac = SwitchableFactory(list(bits), quantizer="sbm")
        model = models.resnet8(num_classes=3, factory=fac, width_mult=0.25)
        return SwitchablePrecisionNetwork(model, list(bits)), fac

    def test_replaced_layer_is_switched(self):
        sp, fac = self._small_net()
        block = sp.model.stages[0]
        old = block.conv1.conv  # a QuantConv2d built by the factory
        replacement = fac.conv(
            old.in_channels, old.out_channels, old.kernel_size,
            stride=old.stride, padding=old.padding,
        )
        block.conv1.conv = replacement
        sp.set_bitwidth(4)
        assert replacement.active_bits == 4
        sp.set_bitwidth(8)
        assert replacement.active_bits == 8

    def _replace_first_conv(self, sp, fac):
        block = sp.model.stages[0]
        old = block.conv1.conv
        replacement = fac.conv(
            old.in_channels, old.out_channels, old.kernel_size,
            stride=old.stride, padding=old.padding,
        )
        assert replacement.active_bits == 8  # built at the highest bits
        block.conv1.conv = replacement
        return replacement

    def test_replaced_layer_is_switched_at_the_current_bits(self):
        sp, fac = self._small_net()
        sp.set_bitwidth(4)
        replacement = self._replace_first_conv(sp, fac)
        sp.set_bitwidth(4)  # the network is already at 4
        assert replacement.active_bits == 4

    def test_rescan_without_a_switch_does_not_skip_the_next_one(self):
        sp, fac = self._small_net()
        sp.set_bitwidth(4)
        replacement = self._replace_first_conv(sp, fac)
        sp.drop_stale_weights()  # re-scans the layers, switches none
        sp.set_bitwidth(4)
        assert replacement.active_bits == 4

    def test_at_restores_the_previous_bits_after_surgery(self):
        sp, fac = self._small_net()
        sp.set_bitwidth(4)
        replacement = self._replace_first_conv(sp, fac)
        with sp.at(8):
            assert replacement.active_bits == 8
        assert replacement.active_bits == 4
        active = {m.active_bits for m in sp.model.modules()
                  if isinstance(m, QuantConv2d)}
        assert active == {4}

    def test_added_layer_is_switched(self):
        sp, fac = self._small_net()
        extra = fac.conv(3, 3, 1)
        sp.model.extra_branch = extra
        sp.set_bitwidth(4)
        assert extra.active_bits == 4

    def test_removed_layer_is_no_longer_switched(self):
        sp, fac = self._small_net()
        extra = fac.conv(3, 3, 1)
        sp.model.extra_branch = extra
        sp.set_bitwidth(4)
        sp.model.extra_branch = None  # surgery: detach the branch
        sp.set_bitwidth(8)
        assert extra.active_bits == 4  # detached layer left untouched
        assert all(name != "extra_branch"
                   for name, _ in sp.model.named_parameters())

    def test_deleted_layer_is_no_longer_switched(self):
        sp, fac = self._small_net()
        extra = fac.conv(3, 3, 1)
        sp.model.extra_branch = extra
        sp.set_bitwidth(4)
        del sp.model.extra_branch
        sp.set_bitwidth(8)
        assert extra.active_bits == 4

    def test_sequential_slot_replacement_switches_and_runs_new_layer(self):
        """Container surgery must update BOTH the registry (switching,
        serialisation) and the execution list the forward pass runs."""
        sp, fac = self._small_net()
        stages = sp.model.stages
        replacement = fac.conv(
            stages[0].conv1.conv.in_channels,
            stages[0].conv1.conv.in_channels, 1,
        )

        from repro.nn.module import Module

        class PassThrough(Module):
            def __init__(self, conv):
                super().__init__()
                self.conv = conv

            def forward(self, x):
                return self.conv(x)

        block = PassThrough(replacement)
        stages[0] = block
        assert stages[0] is block                 # execution list updated
        assert stages._modules["layer0"] is block  # registry updated
        sp.set_bitwidth(4)
        assert replacement.active_bits == 4

    def test_manual_refresh_still_works(self):
        sp, fac = self._small_net()
        extra = fac.conv(3, 3, 1)
        sp.model.extra_branch = extra
        sp._refresh_switchable()
        sp.set_bitwidth(4)
        assert extra.active_bits == 4

    def test_removing_every_switchable_layer_fails_loudly(self):
        bits = (4, 8)
        fac = SwitchableFactory(list(bits), quantizer="sbm")
        conv = fac.conv(3, 4, 3, padding=1)

        from repro.nn.module import Module
        from repro.nn.layers import Conv2d

        class Wrap(Module):
            def __init__(self):
                super().__init__()
                self.conv = conv

            def forward(self, x):
                return self.conv(x)

        sp = SwitchablePrecisionNetwork(Wrap(), list(bits))
        sp.model.conv = Conv2d(3, 4, 3, padding=1)  # no longer switchable
        with pytest.raises(RuntimeError, match="switchable"):
            sp.set_bitwidth(4)
        # ...and keeps failing loudly, not just on the first switch.
        with pytest.raises(RuntimeError, match="switchable"):
            sp.set_bitwidth(8)
