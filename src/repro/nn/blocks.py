"""Residual building blocks shared by the model zoo and the NAS space.

* :class:`InvertedResidual` — MobileNetV2's expand / depthwise / project
  block [Sandler et al. 2018].  Its depthwise stage is the
  quantisation-sensitive structure the paper repeatedly calls out ("SOTA
  SP-Nets fail to work on lower bit-widths when applied to MobileNetV2").
* :class:`BasicBlock` — the classic two-conv ResNet block used by the
  CIFAR-style ResNet-38/74 and ResNet-18 baselines.
"""

from __future__ import annotations

from ..tensor import Tensor
from .factory import LayerFactory
from .layers import Identity
from .module import Module, Sequential

__all__ = ["ConvBNAct", "InvertedResidual", "BasicBlock"]


class ConvBNAct(Module):
    """Convolution + batch norm + optional activation, factory-built."""

    def __init__(
        self,
        factory: LayerFactory,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        groups: int = 1,
        act: bool = True,
        quantize: bool = True,
    ):
        super().__init__()
        padding = kernel_size // 2
        self.conv = factory.conv(
            in_channels,
            out_channels,
            kernel_size,
            stride=stride,
            padding=padding,
            groups=groups,
            quantize=quantize,
        )
        self.bn = factory.norm(out_channels)
        self.act = factory.activation() if act else Identity()

    def forward(self, x: Tensor) -> Tensor:
        return self.act(self.bn(self.conv(x)))


class InvertedResidual(Module):
    """MobileNetV2 inverted-residual block (MBConv).

    expand (1x1) -> depthwise (k x k, stride s) -> project (1x1, linear),
    with a residual connection when ``stride == 1`` and channel counts
    match.  ``expansion == 1`` skips the expand stage, as in the original
    architecture's first bottleneck.
    """

    def __init__(
        self,
        factory: LayerFactory,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        expansion: int = 6,
        kernel_size: int = 3,
    ):
        super().__init__()
        if stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {stride}")
        hidden = in_channels * expansion
        self.use_residual = stride == 1 and in_channels == out_channels
        stages = []
        if expansion != 1:
            stages.append(ConvBNAct(factory, in_channels, hidden, kernel_size=1))
        stages.append(
            ConvBNAct(
                factory, hidden, hidden, kernel_size, stride=stride, groups=hidden
            )
        )
        stages.append(ConvBNAct(factory, hidden, out_channels, 1, act=False))
        self.body = Sequential(*stages)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.expansion = expansion
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        out = self.body(x)
        if self.use_residual:
            out = out + x
        return out


class BasicBlock(Module):
    """Two 3x3 convolutions with a residual connection (ResNet family).

    When the block changes resolution or width, the shortcut is a strided
    1x1 convolution + BN, as in the original paper.
    """

    def __init__(
        self,
        factory: LayerFactory,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
    ):
        super().__init__()
        self.conv1 = ConvBNAct(factory, in_channels, out_channels, 3, stride=stride)
        self.conv2 = ConvBNAct(factory, out_channels, out_channels, 3, act=False)
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Module = ConvBNAct(
                factory, in_channels, out_channels, 1, stride=stride, act=False
            )
        else:
            self.shortcut = Identity()
        self.final_act = factory.activation()

    def forward(self, x: Tensor) -> Tensor:
        out = self.conv2(self.conv1(x))
        out = out + self.shortcut(x)
        return self.final_act(out)
