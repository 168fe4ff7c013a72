"""SP-NAS bi-level search — Eq. 2 of the paper.

The heterogeneous update scheme is the paper's key NAS idea:

* **supernet weights** are trained with cascade distillation over the
  whole candidate bit-width set (the inner problem of Eq. 2), on one
  half of the training data, with SGD + cosine LR;
* **architecture parameters** are updated only with the loss of the
  *lowest* bit-width (plus the efficiency loss ``lambda * L_eff``), on
  the other half, with Adam at a fixed LR — forcing the search to pick
  architectures that inherently tolerate the bottleneck precision.

Each half-step freezes the variable it does not update, so its backward
never computes that variable's gradient, and each optimiser clears its
gradients right after its step.

Setting ``arch_bits="highest"`` / ``weight_mode="highest"`` or
``"lowest"`` degrades this scheme into the FP-NAS / LP-NAS baselines of
Fig. 4 (see :mod:`repro.core.spnas.baselines`).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ... import rng as rng_mod
from ...data.dataset import Dataset, split_dataset
from ...data.loader import DataLoader
from ...obs.wallclock import wall_clock_s
from ...optim import Adam, CosineDecay, ExponentialDecay, SGD
from ...quant.factory import SwitchableFactory
from ...quant.layers import BitSpec
from ...quant.network import SwitchablePrecisionNetwork, sort_bitwidths
from ...tensor import Tensor, cross_entropy, relu
from ..cdt import CascadeDistillation
from .space import SearchSpace
from .supernet import Supernet

__all__ = ["SPNASConfig", "SearchResult", "SPNASSearcher"]


@contextlib.contextmanager
def _frozen(params):
    """Mark ``params`` as needing no gradient for the ``with`` body.

    Ops recorded inside skip those parameters' gradients entirely (see
    :func:`repro.tensor.autograd.make_op`), so one half-step of Eq. 2
    never computes the other variable's gradient.
    """
    flags = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in zip(params, flags):
            p.requires_grad = flag


@dataclass
class SPNASConfig:
    """Search hyper-parameters (paper's settings, rescaled for CPU runs)."""

    epochs: int = 8
    batch_size: int = 32
    weight_lr: float = 0.025
    weight_momentum: float = 0.9
    weight_decay: float = 1e-4
    arch_lr: float = 3e-4
    beta: float = 1.0                 # CDT distillation weight
    lambda_eff: float = 0.5           # efficiency-loss weight (Eq. 2's lambda)
    flops_target: float = 1e6         # budget for L_eff (Fig. 4's constraint)
    init_temperature: float = 3.0     # gumbel temperature (paper: 3)
    temperature_decay: float = 0.94   # per-epoch decay (paper: 0.94)
    arch_bits: str = "lowest"         # which precision drives alpha updates
    weight_mode: str = "cdt"          # cdt | highest | lowest
    quantizer: str = "sbm"

    def __post_init__(self):
        if self.arch_bits not in ("lowest", "highest"):
            raise ValueError(f"arch_bits must be lowest|highest, got {self.arch_bits}")
        if self.weight_mode not in ("cdt", "highest", "lowest"):
            raise ValueError(
                f"weight_mode must be cdt|highest|lowest, got {self.weight_mode}"
            )


@dataclass
class SearchResult:
    """Outcome of one architecture search."""

    specs: list                       # chosen BlockSpec per layer
    space: SearchSpace
    bit_widths: tuple
    flops: float                      # analytic MACs of the derived net
    history: Dict[str, List[float]] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def labels(self) -> List[str]:
        return [spec.label for spec in self.specs]


class SPNASSearcher:
    """Run the bi-level optimisation and return the derived architecture."""

    def __init__(
        self,
        space: SearchSpace,
        bit_widths: Sequence[BitSpec],
        num_classes: int,
        config: Optional[SPNASConfig] = None,
    ):
        self.space = space
        self.bit_widths = tuple(sort_bitwidths(bit_widths))
        self.num_classes = num_classes
        self.config = config or SPNASConfig()
        factory = SwitchableFactory(self.bit_widths, quantizer=self.config.quantizer)
        self.supernet = Supernet(space, factory, num_classes)
        self.sp_net = SwitchablePrecisionNetwork(self.supernet, self.bit_widths)

    # ------------------------------------------------------------------
    def search(self, train_set: Dataset) -> SearchResult:
        """Run the full search schedule on ``train_set``.

        The set is split 50/50 into a weight half and an architecture
        half, per the paper's protocol.
        """
        cfg = self.config
        weight_half, arch_half = split_dataset(train_set, 0.5, key="spnas-split")
        weight_loader = DataLoader(
            weight_half, cfg.batch_size, shuffle=True, augment=True,
            key="spnas-w",
        )
        arch_loader = DataLoader(
            arch_half, cfg.batch_size, shuffle=True, augment=False,
            key="spnas-a",
        )
        weight_opt = SGD(
            self.supernet.weight_parameters(),
            lr=cfg.weight_lr,
            momentum=cfg.weight_momentum,
            weight_decay=cfg.weight_decay,
        )
        arch_opt = Adam(self.supernet.arch_parameters(), lr=cfg.arch_lr)
        lr_schedule = CosineDecay(
            cfg.weight_lr, max(1, cfg.epochs * len(weight_loader))
        )
        temp_schedule = ExponentialDecay(
            cfg.init_temperature, cfg.temperature_decay, floor=0.2
        )
        strategy = CascadeDistillation(beta=cfg.beta)
        rng = rng_mod.spawn_rng("spnas-gumbel")
        history: Dict[str, List[float]] = {
            "weight_loss": [], "arch_loss": [], "expected_flops": [],
            "temperature": [],
        }
        start = wall_clock_s()
        step = 0
        for epoch in range(cfg.epochs):
            temperature = temp_schedule(epoch)
            self.supernet.train()
            epoch_w, epoch_a, batches = 0.0, 0.0, 0
            arch_iter = iter(arch_loader)
            for images, labels in weight_loader:
                # ---- (1) weight step on the weight half ----------------
                # alpha is frozen from the resample on, so the gumbel
                # coefficients are constants and backward differentiates
                # the weights only.
                weight_opt.lr = lr_schedule(step)
                with _frozen(arch_opt.params):
                    self.supernet.resample(temperature, rng=rng)
                    w_loss = self._weight_loss(strategy, Tensor(images), labels)
                    w_loss.backward()
                weight_opt.step()
                weight_opt.zero_grad()

                # ---- (2) architecture step on the arch half ------------
                # The weights are frozen: the first MixedOp's candidates
                # see only constants and record no graph, and later layers
                # backpropagate to their inputs but not their weights.
                try:
                    a_images, a_labels = next(arch_iter)
                except StopIteration:
                    arch_iter = iter(arch_loader)
                    a_images, a_labels = next(arch_iter)
                with _frozen(weight_opt.params):
                    self.supernet.resample(temperature, rng=rng)
                    a_loss = self._arch_loss(Tensor(a_images), a_labels)
                    a_loss.backward()
                arch_opt.step()
                arch_opt.zero_grad()

                epoch_w += w_loss.item()
                epoch_a += a_loss.item()
                batches += 1
                step += 1
            history["weight_loss"].append(epoch_w / max(batches, 1))
            history["arch_loss"].append(epoch_a / max(batches, 1))
            history["expected_flops"].append(
                float(self.supernet.expected_flops().item())
            )
            history["temperature"].append(temperature)
        specs = self.supernet.argmax_specs()
        flops = self._derived_flops(specs)
        return SearchResult(
            specs=specs,
            space=self.space,
            bit_widths=self.bit_widths,
            flops=flops,
            history=history,
            wall_seconds=wall_clock_s() - start,
        )

    # ------------------------------------------------------------------
    def _weight_loss(self, strategy, x, labels):
        cfg = self.config
        if cfg.weight_mode == "cdt":
            loss, _ = strategy.compute_loss(self.sp_net, x, labels)
            return loss
        bits = (
            self.sp_net.highest if cfg.weight_mode == "highest"
            else self.sp_net.lowest
        )
        self.sp_net.set_bitwidth(bits)
        return cross_entropy(self.supernet(x), labels)

    def _arch_loss(self, x, labels):
        cfg = self.config
        bits = (
            self.sp_net.lowest if cfg.arch_bits == "lowest"
            else self.sp_net.highest
        )
        self.sp_net.set_bitwidth(bits)
        ce = cross_entropy(self.supernet(x), labels)
        flops = self.supernet.expected_flops()
        overshoot = relu(flops * (1.0 / cfg.flops_target) - 1.0)
        return ce + overshoot * cfg.lambda_eff

    def _derived_flops(self, specs) -> float:
        from .space import candidate_flops

        total = 0.0
        for spec, (in_ch, out_ch, stride, hw, _) in zip(
            specs, self.space.layer_configs()
        ):
            total += candidate_flops(spec, in_ch, out_ch, stride, hw)
        return total
