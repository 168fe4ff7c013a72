"""InstantNet's contributions: CDT, SP-NAS, AutoMapper."""

from .cdt import (
    CascadeDistillation,
    JointCrossEntropy,
    SwitchableTrainingStrategy,
    VanillaDistillation,
)
from .trainer import (
    SwitchableTrainer,
    TrainConfig,
    TrainHistory,
    evaluate_all_bits,
    evaluate_bitwidth,
)

__all__ = [
    "CascadeDistillation",
    "JointCrossEntropy",
    "SwitchableTrainingStrategy",
    "VanillaDistillation",
    "SwitchableTrainer",
    "TrainConfig",
    "TrainHistory",
    "evaluate_all_bits",
    "evaluate_bitwidth",
]
