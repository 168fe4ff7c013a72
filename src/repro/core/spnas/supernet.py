"""Switchable-precision supernet with gumbel-softmax mixed operators.

Every searchable layer holds all candidate blocks (built through a
:class:`~repro.quant.SwitchableFactory`, so each candidate is itself a
switchable-precision block) and mixes their outputs with gumbel-softmax
coefficients over the layer's architecture logits — the differentiable
NAS formulation of DARTS/FBNet that the paper adopts.

Gumbel noise is drawn once per training step (:meth:`Supernet.resample`)
so that cascade distillation sees a consistent architecture across all
bit-widths within a step: Eq. 2's inner problem optimises the *same*
mixture at every precision.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ... import rng as rng_mod
from ...nn.blocks import ConvBNAct, InvertedResidual
from ...nn.factory import LayerFactory
from ...nn.layers import Flatten, GlobalAvgPool2d, Identity
from ...nn.module import Module, ModuleList, Parameter
from ...optim.gumbel import sample_gumbel
from ...tensor import Tensor, softmax
from .space import BlockSpec, SearchSpace, candidate_flops

__all__ = ["MixedOp", "Supernet"]


class MixedOp(Module):
    """All candidate blocks at one position, mixed by soft coefficients."""

    def __init__(
        self,
        factory: LayerFactory,
        candidates: Sequence[BlockSpec],
        in_channels: int,
        out_channels: int,
        stride: int,
        input_hw: int,
        allow_skip: bool,
    ):
        super().__init__()
        specs: List[BlockSpec] = []
        ops: List[Module] = []
        for spec in candidates:
            if spec.kind == "skip":
                if not allow_skip:
                    continue
                ops.append(Identity())
            else:
                ops.append(
                    InvertedResidual(
                        factory, in_channels, out_channels,
                        stride=stride, expansion=spec.expansion,
                        kernel_size=spec.kernel_size,
                    )
                )
            specs.append(spec)
        if not ops:
            raise ValueError("no legal candidates at this position")
        self.ops = ModuleList(ops)
        self.specs = tuple(specs)
        self.flops = tuple(
            candidate_flops(spec, in_channels, out_channels, stride, input_hw)
            for spec in specs
        )
        self._coefficients: Optional[Tensor] = None

    @property
    def num_candidates(self) -> int:
        return len(self.specs)

    def set_coefficients(self, coefficients: Tensor) -> None:
        """Install this step's gumbel-softmax mixture weights."""
        if coefficients.shape != (len(self.specs),):
            raise ValueError(
                f"expected {len(self.specs)} coefficients, got "
                f"{coefficients.shape}"
            )
        self._coefficients = coefficients

    def forward(self, x: Tensor) -> Tensor:
        if self._coefficients is None:
            raise RuntimeError(
                "MixedOp has no coefficients; call Supernet.resample() first"
            )
        out = None
        for i, op in enumerate(self.ops):
            term = op(x) * self._coefficients[i]
            out = term if out is None else out + term
        return out


class Supernet(Module):
    """The weight-sharing network SP-NAS searches over.

    Architecture logits live outside the regular parameter tree
    (:meth:`arch_parameters` vs :meth:`weight_parameters`) because Eq. 2
    updates them with different optimisers on different data halves.
    """

    def __init__(self, space: SearchSpace, factory: LayerFactory,
                 num_classes: int):
        super().__init__()
        self.space = space
        self.stem = ConvBNAct(
            factory, 3, space.stem_channels, kernel_size=3, stride=1,
            quantize=False,
        )
        mixed: List[MixedOp] = []
        for in_ch, out_ch, stride, hw, allow_skip in space.layer_configs():
            mixed.append(
                MixedOp(factory, space.candidates, in_ch, out_ch, stride,
                        hw, allow_skip)
            )
        self.mixed_ops = ModuleList(mixed)
        final_ch = space.stages[-1].out_channels
        self.head = ConvBNAct(factory, final_ch, space.head_channels, 1)
        self.pool = GlobalAvgPool2d()
        self.flatten = Flatten()
        self.classifier = factory.linear(
            space.head_channels, num_classes, quantize=False
        )
        # One logit vector per searchable layer; kept out of _parameters
        # so weight optimisers never see them.
        self._arch_logits: List[Parameter] = [
            Parameter(np.zeros(op.num_candidates, dtype=np.float32),
                      name=f"alpha{i}")
            for i, op in enumerate(mixed)
        ]
        self.num_classes = num_classes

    # ------------------------------------------------------------------
    # Parameter groups (Eq. 2's two optimisation variables)
    # ------------------------------------------------------------------
    def arch_parameters(self) -> List[Parameter]:
        return list(self._arch_logits)

    def weight_parameters(self) -> List[Parameter]:
        return self.parameters()

    # ------------------------------------------------------------------
    # Gumbel-softmax sampling
    # ------------------------------------------------------------------
    def resample(self, temperature: float, rng=None) -> None:
        """Draw fresh gumbel noise and install mixture coefficients.

        Called once per training step; the same coefficients then apply
        to every bit-width forward of that step.
        """
        rng = rng or rng_mod.get_rng()
        for logits, op in zip(self._arch_logits, self.mixed_ops):
            noise = sample_gumbel(logits.shape, rng=rng)
            coeff = softmax((logits + Tensor(noise)) * (1.0 / temperature))
            op.set_coefficients(coeff)

    def use_argmax(self) -> None:
        """Install one-hot coefficients at the current argmax (evaluation)."""
        for logits, op in zip(self._arch_logits, self.mixed_ops):
            one_hot = np.zeros(len(op.specs), dtype=np.float32)
            one_hot[int(np.argmax(logits.data))] = 1.0
            op.set_coefficients(Tensor(one_hot))

    # ------------------------------------------------------------------
    # Efficiency loss (the L_eff of Eq. 2)
    # ------------------------------------------------------------------
    def expected_flops(self) -> Tensor:
        """Differentiable expected MACs under the current soft mixture.

        Uses plain softmax over the logits (not the sampled gumbel
        coefficients) so the efficiency gradient is noise-free.
        """
        total: Optional[Tensor] = None
        for logits, op in zip(self._arch_logits, self.mixed_ops):
            probs = softmax(logits)
            flops = Tensor(np.asarray(op.flops, dtype=np.float32))
            term = (probs * flops).sum()
            total = term if total is None else total + term
        return total

    def argmax_specs(self) -> List[BlockSpec]:
        """The currently most likely candidate at every position."""
        return [
            op.specs[int(np.argmax(logits.data))]
            for logits, op in zip(self._arch_logits, self.mixed_ops)
        ]

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x)
        for op in self.mixed_ops:
            x = op(x)
        x = self.head(x)
        x = self.pool(x)
        x = self.flatten(x)
        return self.classifier(x)
