"""Neural-network substrate: modules, layers and the model zoo."""

from .module import Module, ModuleList, Parameter, Sequential
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    ReLU6,
    SwitchableBatchNorm2d,
)
from .factory import FloatFactory, LayerFactory
from .blocks import BasicBlock, ConvBNAct, InvertedResidual
from .profile import LayerRecord, Profiler, count_flops, profile_model
from . import models

__all__ = [
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2d",
    "Identity",
    "Linear",
    "MaxPool2d",
    "ReLU",
    "ReLU6",
    "SwitchableBatchNorm2d",
    "FloatFactory",
    "LayerFactory",
    "BasicBlock",
    "ConvBNAct",
    "InvertedResidual",
    "LayerRecord",
    "Profiler",
    "count_flops",
    "profile_model",
    "models",
]
