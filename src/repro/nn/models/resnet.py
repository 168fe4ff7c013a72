"""ResNet family used by the paper's Tables II-IV.

* :func:`resnet38` / :func:`resnet74` — CIFAR-style 6n+2 networks
  (n = 6 and n = 12) with three 16/32/64-channel stages, the models of
  Tables II and III (the paper cites the SkipNet variants).
* :func:`resnet18` — the ImageNet-style [2,2,2,2] BasicBlock network
  evaluated on TinyImageNet in Table IV (stem adapted to 64x64 inputs:
  3x3 stride-1 convolution, no initial max-pool).

All constructors accept ``width_mult``, so CPU-scale runs can use
narrower networks than the paper's, and a :class:`LayerFactory` to
build quantised variants.
"""

from __future__ import annotations

from typing import List, Optional

from ...tensor import Tensor
from ..blocks import BasicBlock, ConvBNAct
from ..factory import FloatFactory, LayerFactory
from ..layers import Flatten, GlobalAvgPool2d
from ..module import Module, Sequential

__all__ = ["CifarResNet", "ResNet18", "resnet8", "resnet38", "resnet74", "resnet18"]


def _scale(channels: int, width_mult: float) -> int:
    return max(4, int(round(channels * width_mult / 4)) * 4)


class CifarResNet(Module):
    """6n+2 ResNet for 32x32 inputs (stages of 16, 32, 64 channels)."""

    def __init__(
        self,
        blocks_per_stage: int,
        num_classes: int = 10,
        factory: Optional[LayerFactory] = None,
        width_mult: float = 1.0,
    ):
        super().__init__()
        factory = factory or FloatFactory()
        widths = [_scale(c, width_mult) for c in (16, 32, 64)]
        self.stem = ConvBNAct(factory, 3, widths[0], kernel_size=3, quantize=False)
        stages: List[Module] = []
        in_channels = widths[0]
        for stage_index, out_channels in enumerate(widths):
            for block_index in range(blocks_per_stage):
                stride = 2 if stage_index > 0 and block_index == 0 else 1
                stages.append(BasicBlock(factory, in_channels, out_channels, stride))
                in_channels = out_channels
        self.stages = Sequential(*stages)
        self.pool = GlobalAvgPool2d()
        self.flatten = Flatten()
        self.classifier = factory.linear(in_channels, num_classes, quantize=False)
        self.depth = 6 * blocks_per_stage + 2
        self.num_classes = num_classes

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x)
        x = self.stages(x)
        x = self.pool(x)
        x = self.flatten(x)
        return self.classifier(x)


class ResNet18(Module):
    """ImageNet-style ResNet-18 with a TinyImageNet-friendly stem."""

    def __init__(
        self,
        num_classes: int = 200,
        factory: Optional[LayerFactory] = None,
        width_mult: float = 1.0,
    ):
        super().__init__()
        factory = factory or FloatFactory()
        widths = [_scale(c, width_mult) for c in (64, 128, 256, 512)]
        self.stem = ConvBNAct(factory, 3, widths[0], kernel_size=3, quantize=False)
        stages: List[Module] = []
        in_channels = widths[0]
        for stage_index, out_channels in enumerate(widths):
            for block_index in range(2):
                stride = 2 if stage_index > 0 and block_index == 0 else 1
                stages.append(BasicBlock(factory, in_channels, out_channels, stride))
                in_channels = out_channels
        self.stages = Sequential(*stages)
        self.pool = GlobalAvgPool2d()
        self.flatten = Flatten()
        self.classifier = factory.linear(in_channels, num_classes, quantize=False)
        self.num_classes = num_classes

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x)
        x = self.stages(x)
        x = self.pool(x)
        x = self.flatten(x)
        return self.classifier(x)


def resnet8(num_classes=10, factory=None, width_mult=1.0) -> CifarResNet:
    """Smallest 6n+2 member (n=1); used by fast tests, not by the paper."""
    return CifarResNet(1, num_classes, factory, width_mult)


def resnet38(num_classes=10, factory=None, width_mult=1.0) -> CifarResNet:
    """ResNet-38 (n=6), the model of Table II."""
    return CifarResNet(6, num_classes, factory, width_mult)


def resnet74(num_classes=10, factory=None, width_mult=1.0) -> CifarResNet:
    """ResNet-74 (n=12), the model of Table III."""
    return CifarResNet(12, num_classes, factory, width_mult)


def resnet18(num_classes=200, factory=None, width_mult=1.0) -> ResNet18:
    """ResNet-18 for TinyImageNet, the model of Table IV."""
    return ResNet18(num_classes, factory, width_mult)
