"""MobileNetV2 [Sandler et al. 2018] in factory-built form.

This is the primary evaluation model of the paper's Table I and Fig. 2:
its depthwise convolutions make it the most quantisation-sensitive of the
model zoo, which is exactly why cascade distillation is demonstrated on
it.  Three block settings are provided:

* ``"imagenet"`` — the original 224x224 configuration,
* ``"cifar"``    — the common 32x32 adaptation (stride-1 stem, first two
  stages keep resolution), as used by the paper's CIFAR experiments,
* ``"tiny"``     — a shallow/narrow configuration for CPU-sized synthetic
  runs; same block structure, smaller widths/depths standing in for
  the paper's full-size network.
"""

from __future__ import annotations

from typing import List, Optional

from ...tensor import Tensor
from ..blocks import ConvBNAct, InvertedResidual
from ..factory import FloatFactory, LayerFactory
from ..layers import Flatten, GlobalAvgPool2d
from ..module import Module, Sequential

__all__ = ["MobileNetV2", "mobilenet_v2"]

# (expansion t, channels c, repeats n, first stride s)
_SETTINGS: dict = {
    "imagenet": dict(
        stem_channels=32,
        stem_stride=2,
        head_channels=1280,
        blocks=[
            (1, 16, 1, 1),
            (6, 24, 2, 2),
            (6, 32, 3, 2),
            (6, 64, 4, 2),
            (6, 96, 3, 1),
            (6, 160, 3, 2),
            (6, 320, 1, 1),
        ],
    ),
    "cifar": dict(
        stem_channels=32,
        stem_stride=1,
        head_channels=1280,
        blocks=[
            (1, 16, 1, 1),
            (6, 24, 2, 1),
            (6, 32, 3, 2),
            (6, 64, 4, 2),
            (6, 96, 3, 1),
            (6, 160, 3, 2),
            (6, 320, 1, 1),
        ],
    ),
    "tiny": dict(
        stem_channels=8,
        stem_stride=1,
        head_channels=64,
        blocks=[
            (1, 8, 1, 1),
            (6, 12, 2, 2),
            (6, 16, 2, 2),
            (6, 24, 2, 2),
        ],
    ),
}


def _scale(channels: int, width_mult: float) -> int:
    """Round scaled channel count to a multiple of 4 (min 4)."""
    return max(4, int(round(channels * width_mult / 4)) * 4)


class MobileNetV2(Module):
    """MobileNetV2 classifier built through a :class:`LayerFactory`.

    The stem convolution and the final classifier stay full-precision in
    quantised configurations (``quantize=False``), following standard
    quantisation-aware-training practice (DoReFa, SBM) which the paper's
    experiments adopt.
    """

    def __init__(
        self,
        num_classes: int = 100,
        factory: Optional[LayerFactory] = None,
        width_mult: float = 1.0,
        setting: str = "cifar",
    ):
        super().__init__()
        if setting not in _SETTINGS:
            raise ValueError(f"unknown setting {setting!r}; use {sorted(_SETTINGS)}")
        factory = factory or FloatFactory(activation="relu6")
        config = _SETTINGS[setting]
        stem_channels = _scale(config["stem_channels"], width_mult)
        head_channels = _scale(config["head_channels"], width_mult)

        self.stem = ConvBNAct(
            factory,
            3,
            stem_channels,
            kernel_size=3,
            stride=config["stem_stride"],
            quantize=False,
        )
        features: List[Module] = []
        in_channels = stem_channels
        for expansion, channels, repeats, first_stride in config["blocks"]:
            out_channels = _scale(channels, width_mult)
            for i in range(repeats):
                stride = first_stride if i == 0 else 1
                features.append(
                    InvertedResidual(
                        factory,
                        in_channels,
                        out_channels,
                        stride=stride,
                        expansion=expansion,
                    )
                )
                in_channels = out_channels
        self.features = Sequential(*features)
        self.head = ConvBNAct(factory, in_channels, head_channels, kernel_size=1)
        self.pool = GlobalAvgPool2d()
        self.flatten = Flatten()
        self.classifier = factory.linear(head_channels, num_classes, quantize=False)
        self.num_classes = num_classes
        self.setting = setting
        self.width_mult = width_mult

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x)
        x = self.features(x)
        x = self.head(x)
        x = self.pool(x)
        x = self.flatten(x)
        return self.classifier(x)


def mobilenet_v2(
    num_classes: int = 100,
    factory: Optional[LayerFactory] = None,
    width_mult: float = 1.0,
    setting: str = "cifar",
) -> MobileNetV2:
    """Convenience constructor mirroring ``torchvision.models.mobilenet_v2``."""
    return MobileNetV2(num_classes, factory, width_mult, setting)
