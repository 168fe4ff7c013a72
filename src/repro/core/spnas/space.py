"""SP-NAS search space (FBNet-style, Section III-C).

The paper adopts the FBNet search space [Wu et al. 2019]: a fixed macro
skeleton (stem -> searchable stages -> head -> classifier) where every
searchable position chooses one block from a candidate set of
inverted-residual variants differing in expansion ratio and kernel size,
plus a skip connection where shapes allow.  Stride settings are adapted
per stage for CIFAR-resolution inputs, exactly as the paper describes.

:func:`candidate_flops` prices each candidate analytically — the
expected-FLOPs efficiency loss ``L_eff`` of Eq. 2 needs differentiable
per-candidate costs, and Fig. 4's large/middle/small constraints are
budgets on the same quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["BlockSpec", "StageSpec", "SearchSpace", "candidate_flops",
           "cifar_search_space", "tiny_search_space"]


@dataclass(frozen=True)
class BlockSpec:
    """One candidate operator for a searchable layer."""

    kind: str  # "mbconv" or "skip"
    expansion: int = 1
    kernel_size: int = 3

    @property
    def label(self) -> str:
        if self.kind == "skip":
            return "skip"
        return f"e{self.expansion}k{self.kernel_size}"


@dataclass(frozen=True)
class StageSpec:
    """A group of searchable layers sharing width and first-layer stride."""

    out_channels: int
    num_layers: int
    stride: int  # stride of the first layer in the stage


@dataclass(frozen=True)
class SearchSpace:
    """Macro skeleton + per-layer candidate sets."""

    stem_channels: int
    stages: Tuple[StageSpec, ...]
    head_channels: int
    candidates: Tuple[BlockSpec, ...]
    input_size: int

    @property
    def num_searchable_layers(self) -> int:
        return sum(stage.num_layers for stage in self.stages)

    def layer_configs(self) -> List[Tuple[int, int, int, int, bool]]:
        """Per searchable layer: (in_ch, out_ch, stride, input_hw, allow_skip).

        Skip is only a legal candidate when the layer preserves both
        resolution and width (otherwise shapes would not match).
        """
        configs = []
        in_ch = self.stem_channels
        hw = self.input_size
        for stage in self.stages:
            for i in range(stage.num_layers):
                stride = stage.stride if i == 0 else 1
                out_hw = hw // stride
                allow_skip = stride == 1 and in_ch == stage.out_channels
                configs.append((in_ch, stage.out_channels, stride, hw, allow_skip))
                in_ch = stage.out_channels
                hw = out_hw
        return configs

    @property
    def max_flops(self) -> int:
        """MACs with the most expensive candidate at every layer: the
        space's maximum, which FLOPs budgets are fractions of."""
        return sum(
            max(candidate_flops(c, *cfg[:4]) for c in self.candidates)
            for cfg in self.layer_configs()
        )

    @property
    def final_hw(self) -> int:
        hw = self.input_size
        for stage in self.stages:
            hw //= stage.stride
        return hw


def candidate_flops(
    spec: BlockSpec, in_ch: int, out_ch: int, stride: int, input_hw: int
) -> int:
    """MAC count of one candidate block at one position."""
    if spec.kind == "skip":
        return 0
    out_hw = input_hw // stride
    hidden = in_ch * spec.expansion
    flops = 0
    if spec.expansion != 1:
        flops += in_ch * hidden * input_hw * input_hw  # 1x1 expand
    flops += hidden * spec.kernel_size ** 2 * out_hw * out_hw  # depthwise
    flops += hidden * out_ch * out_hw * out_hw  # 1x1 project
    return flops


_DEFAULT_CANDIDATES = (
    BlockSpec("mbconv", expansion=1, kernel_size=3),
    BlockSpec("mbconv", expansion=3, kernel_size=3),
    BlockSpec("mbconv", expansion=6, kernel_size=3),
    BlockSpec("mbconv", expansion=3, kernel_size=5),
    BlockSpec("mbconv", expansion=6, kernel_size=5),
    BlockSpec("skip"),
)


def cifar_search_space(input_size: int = 32) -> SearchSpace:
    """FBNet-like space adapted to CIFAR resolution (paper's setting)."""
    return SearchSpace(
        stem_channels=16,
        stages=(
            StageSpec(out_channels=24, num_layers=3, stride=1),
            StageSpec(out_channels=32, num_layers=3, stride=2),
            StageSpec(out_channels=64, num_layers=3, stride=2),
            StageSpec(out_channels=96, num_layers=2, stride=2),
        ),
        head_channels=256,
        candidates=_DEFAULT_CANDIDATES,
        input_size=input_size,
    )


def tiny_search_space(input_size: int = 16) -> SearchSpace:
    """CPU-scale space for the synthetic experiments."""
    return SearchSpace(
        stem_channels=8,
        stages=(
            StageSpec(out_channels=12, num_layers=2, stride=1),
            StageSpec(out_channels=16, num_layers=2, stride=2),
            StageSpec(out_channels=24, num_layers=2, stride=2),
        ),
        head_channels=48,
        candidates=_DEFAULT_CANDIDATES,
        input_size=input_size,
    )
