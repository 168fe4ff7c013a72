"""Training loops for switchable-precision networks.

One :class:`SwitchableTrainer` covers all four training methods of the
paper's tables: the strategy object decides the loss, and
:data:`repro.baselines.spnets.METHODS` pairs each loss with its
quantiser (SBM's independent training is a single-candidate SP-Net
under :class:`~repro.core.cdt.JointCrossEntropy`).

Hyper-parameter defaults mirror the paper's CIFAR recipe (SGD, momentum
0.9, cosine LR from 0.025, batch 128) scaled to the synthetic datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..data.dataset import Dataset
from ..data.loader import DataLoader
from ..obs.wallclock import wall_clock_s
from ..optim import SGD, CosineDecay
from ..quant.layers import BitSpec
from ..quant.network import SwitchablePrecisionNetwork
from ..tensor import Tensor, accuracy, no_grad
from .cdt import SwitchableTrainingStrategy

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "SwitchableTrainer",
    "evaluate_bitwidth",
    "evaluate_all_bits",
]


@dataclass
class TrainConfig:
    """Hyper-parameters for switchable-precision training."""

    epochs: int = 10
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    augment: bool = True
    loader_key: str = "train-loader"


@dataclass
class TrainHistory:
    """Per-epoch training record."""

    epoch_losses: List[float] = field(default_factory=list)
    per_bit_ce: List[Dict[BitSpec, float]] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


class SwitchableTrainer:
    """Train an SP-Net under a pluggable loss strategy."""

    def __init__(
        self,
        sp_net: SwitchablePrecisionNetwork,
        strategy: SwitchableTrainingStrategy,
        config: Optional[TrainConfig] = None,
    ):
        self.sp_net = sp_net
        self.strategy = strategy
        self.config = config or TrainConfig()

    def fit(self, train_set: Dataset) -> TrainHistory:
        """Run the full training schedule; returns the loss history."""
        cfg = self.config
        loader = DataLoader(
            train_set,
            batch_size=cfg.batch_size,
            shuffle=True,
            augment=cfg.augment,
            key=cfg.loader_key,
        )
        optimizer = SGD(
            self.sp_net.parameters(),
            lr=cfg.lr,
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
        )
        schedule = CosineDecay(cfg.lr, max(1, cfg.epochs * len(loader)))
        history = TrainHistory()
        start = wall_clock_s()
        step = 0
        for _ in range(cfg.epochs):
            self.sp_net.train()
            epoch_loss = 0.0
            batches = 0
            last_ce: Dict[BitSpec, float] = {}
            for images, labels in loader:
                optimizer.lr = schedule(step)
                optimizer.zero_grad()
                loss, per_bit = self.strategy.compute_loss(
                    self.sp_net, Tensor(images), labels
                )
                loss.backward()
                optimizer.step()
                # The step made every cached quantised weight stale.  Free
                # them now, not at the next forward: left in the space this
                # step's graph freed, they cut it into pieces too small for
                # an evaluation's larger batches, whose forwards then grew
                # the heap and gave it back to the OS layer by layer.
                self.sp_net.drop_stale_weights()
                epoch_loss += loss.item()
                last_ce = per_bit
                batches += 1
                step += 1
            history.epoch_losses.append(epoch_loss / max(batches, 1))
            history.per_bit_ce.append(last_ce)
        history.wall_seconds = wall_clock_s() - start
        return history


def evaluate_bitwidth(
    sp_net: SwitchablePrecisionNetwork,
    dataset: Dataset,
    bits: Optional[BitSpec] = None,
    batch_size: int = 256,
) -> float:
    """Top-1 accuracy of the SP-Net at one bit-width (current if None)."""
    if bits is not None:
        sp_net.set_bitwidth(bits)
    sp_net.eval()
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    correct_weighted = []
    weights = []
    with no_grad():
        for images, labels in loader:
            acc = accuracy(sp_net(Tensor(images)), labels)
            correct_weighted.append(acc * len(labels))
            weights.append(len(labels))
    return float(np.sum(correct_weighted) / np.sum(weights))


def evaluate_all_bits(
    sp_net: SwitchablePrecisionNetwork,
    dataset: Dataset,
    batch_size: int = 256,
) -> Dict[BitSpec, float]:
    """Accuracy at every candidate bit-width, lowest first."""
    return {
        bits: evaluate_bitwidth(sp_net, dataset, bits, batch_size)
        for bits in sp_net.bit_widths
    }
