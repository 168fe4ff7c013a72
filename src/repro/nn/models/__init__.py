"""Model zoo: MobileNetV2 and the ResNet family."""

from .mobilenetv2 import MobileNetV2, mobilenet_v2
from .resnet import (
    CifarResNet,
    ResNet18,
    resnet8,
    resnet18,
    resnet38,
    resnet74,
)

__all__ = [
    "MobileNetV2",
    "mobilenet_v2",
    "CifarResNet",
    "ResNet18",
    "resnet8",
    "resnet18",
    "resnet38",
    "resnet74",
]
