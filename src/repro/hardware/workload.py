"""DNN layer workloads in loop-nest form.

The hardware side of the reproduction describes every conv / linear layer
by its seven canonical loop dimensions, the nomenclature used by Eyeriss
and the paper's generic dataflow space:

====  =========================================
dim   meaning
====  =========================================
N     batch
K     output channels
C     input channels (per group)
Y     output rows (OH)
X     output cols (OW)
R     filter rows
S     filter cols
====  =========================================

A :class:`ConvWorkload` also carries the stride, channel-group count and
the operand ``bits`` it will execute at — switching an SP-Net's bit-width
changes only ``bits``, which is how AutoMapper searches dataflows per
precision (Fig. 6/7).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Tuple

__all__ = ["DIMS", "DIM_INDEX", "TENSOR_DIMS", "ConvWorkload"]

# Canonical loop-dimension order used across the hardware stack.
DIMS: Tuple[str, ...] = ("N", "K", "C", "Y", "X", "R", "S")

# Position of each dimension in DIMS (and in every DIMS-order tuple).
DIM_INDEX: Dict[str, int] = {d: i for i, d in enumerate(DIMS)}

# Which loop dimensions index each operand tensor.
#   I: input feature map   (N, C, Y', X') with Y' = (Y-1)*stride + R
#   W: weights             (K, C, R, S)
#   O: output feature map  (N, K, Y, X)
TENSOR_DIMS: Dict[str, Tuple[str, ...]] = {
    "I": ("N", "C", "Y", "X", "R", "S"),
    "W": ("K", "C", "R", "S"),
    "O": ("N", "K", "Y", "X"),
}


@dataclass(frozen=True)
class ConvWorkload:
    """One convolution (or matmul) layer as a 7-dim loop nest.

    Linear layers are convolutions with Y = X = R = S = 1.  Depthwise
    convolutions set ``groups == K`` with ``C == 1`` (per-group input
    channels), matching how the model zoo executes them.
    """

    name: str
    n: int
    k: int
    c: int
    y: int
    x: int
    r: int
    s: int
    stride: int = 1
    groups: int = 1
    bits: int = 16

    def __post_init__(self):
        for field_name in ("n", "k", "c", "y", "x", "r", "s", "stride", "groups"):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be >= 1 in {self.name}")
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1 in {self.name}")
        if self.k % self.groups:
            raise ValueError(f"K={self.k} not divisible by groups={self.groups}")

    # ------------------------------------------------------------------
    # Loop-dim access
    # ------------------------------------------------------------------
    @cached_property
    def bounds(self) -> Tuple[int, ...]:
        """Loop bounds per channel group, as a tuple in :data:`DIMS` order.

        Cached (the dataclass is frozen): the cost model reads the
        bounds thousands of times per mapping search, against the
        dataflow's per-level factor tuples.
        """
        return (
            self.n, self.k // self.groups, self.c, self.y, self.x,
            self.r, self.s,
        )

    @cached_property
    def dims(self) -> Dict[str, int]:
        """Loop bounds per canonical dimension, keyed by name.

        Cached like :attr:`bounds`; treat the returned dict as read-only.
        """
        return dict(zip(DIMS, self.bounds))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @cached_property
    def macs(self) -> int:
        """Total multiply-accumulates (all groups)."""
        per_group = (
            self.n * (self.k // self.groups) * self.c
            * self.y * self.x * self.r * self.s
        )
        return per_group * self.groups

    @property
    def input_words(self) -> int:
        ih = (self.y - 1) * self.stride + self.r
        iw = (self.x - 1) * self.stride + self.s
        return self.n * self.c * self.groups * ih * iw

    @property
    def weight_words(self) -> int:
        return self.k * self.c * self.r * self.s

    @property
    def output_words(self) -> int:
        return self.n * self.k * self.y * self.x

    def tensor_words(self) -> Dict[str, int]:
        return {
            "I": self.input_words,
            "W": self.weight_words,
            "O": self.output_words,
        }

    def with_bits(self, bits: int) -> "ConvWorkload":
        """Same layer executed at a different precision."""
        return replace(self, bits=bits)

    def with_batch(self, n: int) -> "ConvWorkload":
        """Same layer with a different batch size."""
        return replace(self, n=n)

    def input_tile_hw(self, y_tile: int, x_tile: int) -> Tuple[int, int]:
        """Input-tile spatial size needed to produce a (y_tile, x_tile)
        output tile (the sliding-window halo)."""
        return (
            (y_tile - 1) * self.stride + self.r,
            (x_tile - 1) * self.stride + self.s,
        )

    def __str__(self) -> str:
        return (
            f"{self.name}: N{self.n} K{self.k} C{self.c} "
            f"Y{self.y} X{self.x} R{self.r} S{self.s} "
            f"st{self.stride} g{self.groups} b{self.bits}"
        )
