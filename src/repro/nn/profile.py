"""Model profiling: FLOPs counting and layer-shape extraction.

A lightweight recording hook is invoked by ``Conv2d.forward`` /
``Linear.forward`` (and their quantised subclasses) whenever a profiler is
active.  Running one forward pass under :func:`profile_model` therefore
yields the exact executed layer workloads — including whichever candidate
ops a NAS supernet or derived architecture actually ran — which feeds

* the FLOPs-constrained NAS objectives of Fig. 4, and
* the conversion of trained SP-Nets into hardware workloads for
  AutoMapper (Figs. 6 and 7).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..tensor import Tensor

__all__ = ["LayerRecord", "Profiler", "profile_model", "count_flops"]

_ACTIVE: Optional["Profiler"] = None


@dataclass(frozen=True)
class LayerRecord:
    """One executed conv/linear layer and its effective workload."""

    kind: str  # "conv" or "linear"
    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int
    padding: int
    groups: int
    input_hw: int
    output_hw: int

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations for one input sample."""
        if self.kind == "linear":
            return self.in_channels * self.out_channels
        per_position = (
            self.kernel_size * self.kernel_size * self.in_channels // self.groups
        )
        return self.out_channels * self.output_hw * self.output_hw * per_position

    @property
    def weight_count(self) -> int:
        if self.kind == "linear":
            return self.in_channels * self.out_channels
        return (
            self.out_channels
            * (self.in_channels // self.groups)
            * self.kernel_size
            * self.kernel_size
        )


class Profiler:
    """Collects :class:`LayerRecord` entries during a forward pass."""

    def __init__(self):
        self.records: List[LayerRecord] = []

    def record_conv(self, layer, x: Tensor) -> None:
        hw = x.shape[-1]
        out_hw = (hw + 2 * layer.padding - layer.kernel_size) // layer.stride + 1
        self.records.append(
            LayerRecord(
                kind="conv",
                in_channels=layer.in_channels,
                out_channels=layer.out_channels,
                kernel_size=layer.kernel_size,
                stride=layer.stride,
                padding=layer.padding,
                groups=layer.groups,
                input_hw=hw,
                output_hw=out_hw,
            )
        )

    def record_linear(self, layer, x: Tensor) -> None:
        self.records.append(
            LayerRecord(
                kind="linear",
                in_channels=layer.in_features,
                out_channels=layer.out_features,
                kernel_size=1,
                stride=1,
                padding=0,
                groups=1,
                input_hw=1,
                output_hw=1,
            )
        )

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.records)


def active_profiler() -> Optional[Profiler]:
    """The profiler currently recording, if any (used by layer forwards)."""
    return _ACTIVE


@contextlib.contextmanager
def profiling():
    """Context manager installing a fresh profiler; yields it."""
    global _ACTIVE
    previous = _ACTIVE
    profiler = Profiler()
    _ACTIVE = profiler
    try:
        yield profiler
    finally:
        _ACTIVE = previous


def profile_model(model, input_size: int, in_channels: int = 3) -> Profiler:
    """Run one dummy forward pass and return the recorded layer workloads."""
    from ..tensor import no_grad

    was_training = model.training
    model.eval()
    x = Tensor(np.zeros((1, in_channels, input_size, input_size), dtype=np.float32))
    with no_grad(), profiling() as profiler:
        model(x)
    if was_training:
        model.train()
    return profiler


def count_flops(model, input_size: int, in_channels: int = 3) -> int:
    """Total MACs of one forward pass (the paper reports FLOPs ~ MACs)."""
    return profile_model(model, input_size, in_channels).total_macs
