"""Baselines the paper compares against: the training-method table and
the expert dataflows."""

from .spnets import METHODS, Method, ModelBuilder, TrainedSPNet, train_method

__all__ = [
    "METHODS",
    "Method",
    "ModelBuilder",
    "TrainedSPNet",
    "train_method",
]
