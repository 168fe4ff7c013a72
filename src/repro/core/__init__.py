"""InstantNet's contributions: CDT, SP-NAS, AutoMapper (S7, S9, S12)."""

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
    train_fixed_precision,
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
    "train_fixed_precision",
]
