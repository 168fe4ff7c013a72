"""Model zoo: shapes, FLOPs accounting, profiler extraction."""

import numpy as np
import pytest

from repro.nn import count_flops, models, profile_model
from repro.nn.blocks import BasicBlock, InvertedResidual
from repro.nn.factory import FloatFactory
from repro.tensor import Tensor


def image(n=2, size=16):
    return Tensor(np.random.default_rng(0).normal(
        size=(n, 3, size, size)).astype(np.float32))


class TestBlocks:
    def test_inverted_residual_shape_stride1(self):
        block = InvertedResidual(FloatFactory("relu6"), 8, 8, stride=1)
        x = Tensor(np.zeros((1, 8, 8, 8), dtype=np.float32))
        assert block(x).shape == (1, 8, 8, 8)

    def test_factory_rejects_unknown_activation(self):
        with pytest.raises(ValueError, match="unknown activation 'gelu'"):
            FloatFactory("gelu")

    def test_inverted_residual_residual_used_only_when_legal(self):
        same = InvertedResidual(FloatFactory(), 8, 8, stride=1)
        diff = InvertedResidual(FloatFactory(), 8, 16, stride=1)
        strided = InvertedResidual(FloatFactory(), 8, 8, stride=2)
        assert same.use_residual
        assert not diff.use_residual
        assert not strided.use_residual

    def test_inverted_residual_expansion_one_skips_expand(self):
        block = InvertedResidual(FloatFactory(), 8, 8, expansion=1)
        assert len(block.body) == 2

    def test_inverted_residual_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            InvertedResidual(FloatFactory(), 8, 8, stride=3)

    def test_basic_block_shapes(self):
        x = Tensor(np.zeros((1, 16, 8, 8), dtype=np.float32))
        assert BasicBlock(FloatFactory(), 16, 16)(x).shape == (1, 16, 8, 8)
        assert BasicBlock(FloatFactory(), 16, 32, stride=2)(x).shape \
            == (1, 32, 4, 4)


class TestModels:
    def test_mobilenetv2_tiny_output(self):
        model = models.mobilenet_v2(num_classes=7, setting="tiny")
        assert model(image()).shape == (2, 7)

    def test_mobilenetv2_rejects_unknown_setting(self):
        with pytest.raises(ValueError, match="setting"):
            models.mobilenet_v2(setting="bogus")

    def test_mobilenetv2_width_scaling_reduces_params(self):
        big = models.mobilenet_v2(setting="tiny", width_mult=1.0)
        small = models.mobilenet_v2(setting="tiny", width_mult=0.5)
        assert small.num_parameters() < big.num_parameters()

    def test_resnet_depths(self):
        assert models.resnet38().depth == 38
        assert models.resnet74().depth == 74
        assert models.resnet8().depth == 8

    def test_resnet8_forward(self):
        model = models.resnet8(num_classes=5, width_mult=0.5)
        assert model(image()).shape == (2, 5)

    def test_resnet18_forward(self):
        model = models.resnet18(num_classes=9, width_mult=0.25)
        assert model(image(size=24)).shape == (2, 9)


class TestProfiler:
    def test_count_flops_positive_and_scales_with_input(self):
        model = models.resnet8(width_mult=0.5)
        f16 = count_flops(model, 16)
        f32 = count_flops(model, 32)
        assert f16 > 0
        assert f32 > 3 * f16  # roughly quadratic in resolution

    def test_profile_records_all_convs_and_linears(self):
        model = models.resnet8(width_mult=0.5)
        prof = profile_model(model, 16)
        kinds = [r.kind for r in prof.records]
        # stem + 3 stages x (2 convs + maybe shortcut) + classifier
        assert kinds.count("linear") == 1
        assert kinds.count("conv") >= 7

    def test_record_macs_match_layer_flops(self):
        model = models.resnet8(width_mult=0.5)
        prof = profile_model(model, 16)
        rec = prof.records[0]  # stem conv on 16x16
        assert rec.macs == rec.out_channels * 16 * 16 * rec.in_channels * 9

    def test_depthwise_macs_divide_by_groups(self):
        model = models.mobilenet_v2(setting="tiny")
        prof = profile_model(model, 16)
        dw = [r for r in prof.records if r.groups > 1]
        assert dw, "MobileNetV2 must contain depthwise layers"
        r = dw[0]
        assert r.macs == r.out_channels * r.output_hw ** 2 * (
            r.kernel_size ** 2 * r.in_channels // r.groups
        )

    def test_profiler_restores_training_mode(self):
        model = models.resnet8()
        model.train()
        profile_model(model, 16)
        assert model.training
