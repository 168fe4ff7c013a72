"""Optimisers, schedules, gumbel softmax."""

from .optimizers import Adam, Optimizer, SGD
from .schedules import ConstantSchedule, CosineDecay, ExponentialDecay, StepDecay
from .gumbel import gumbel_softmax, sample_gumbel

__all__ = [
    "Adam",
    "Optimizer",
    "SGD",
    "ConstantSchedule",
    "CosineDecay",
    "ExponentialDecay",
    "StepDecay",
    "gumbel_softmax",
    "sample_gumbel",
]
