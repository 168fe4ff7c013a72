"""Materialise a searched architecture as a trainable network.

After SP-NAS converges, the per-layer argmax of the architecture logits
defines a concrete network.  :class:`DerivedNetwork` rebuilds it through
any :class:`~repro.nn.factory.LayerFactory`, so the same topology can be
instantiated switchable-precision (for CDT training / deployment) or
full-precision (for the FP-NAS baseline comparison) — mirroring the
paper's evaluate-from-scratch protocol.
"""

from __future__ import annotations

from typing import List, Sequence

from ...nn.blocks import ConvBNAct, InvertedResidual
from ...nn.factory import LayerFactory
from ...nn.layers import Flatten, GlobalAvgPool2d, Identity
from ...nn.module import Module, Sequential
from ...tensor import Tensor
from .space import BlockSpec, SearchSpace

__all__ = ["DerivedNetwork", "build_derived"]


class DerivedNetwork(Module):
    """The concrete network selected by a search result."""

    def __init__(
        self,
        space: SearchSpace,
        specs: Sequence[BlockSpec],
        factory: LayerFactory,
        num_classes: int,
    ):
        super().__init__()
        configs = space.layer_configs()
        if len(specs) != len(configs):
            raise ValueError(
                f"{len(specs)} specs for {len(configs)} searchable layers"
            )
        self.stem = ConvBNAct(
            factory, 3, space.stem_channels, kernel_size=3, stride=1,
            quantize=False,
        )
        blocks: List[Module] = []
        for spec, (in_ch, out_ch, stride, hw, allow_skip) in zip(specs, configs):
            if spec.kind == "skip":
                if not allow_skip:
                    raise ValueError(
                        f"skip selected at a shape-changing layer "
                        f"({in_ch}->{out_ch}, stride {stride})"
                    )
                blocks.append(Identity())
            else:
                blocks.append(
                    InvertedResidual(
                        factory, in_ch, out_ch, stride=stride,
                        expansion=spec.expansion, kernel_size=spec.kernel_size,
                    )
                )
        self.blocks = Sequential(*blocks)
        final_ch = space.stages[-1].out_channels
        self.head = ConvBNAct(factory, final_ch, space.head_channels, 1)
        self.pool = GlobalAvgPool2d()
        self.flatten = Flatten()
        self.classifier = factory.linear(
            space.head_channels, num_classes, quantize=False
        )
        self.specs = tuple(specs)
        self.num_classes = num_classes

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x)
        x = self.blocks(x)
        x = self.head(x)
        x = self.pool(x)
        x = self.flatten(x)
        return self.classifier(x)


def build_derived(search_result, num_classes: int):
    """Return a ``model_builder(factory)`` closure for a search result.

    The closure plugs directly into
    :func:`repro.baselines.spnets.train_method` (e.g.
    ``train_method("cdt", builder, ...)``).
    """

    def builder(factory: LayerFactory) -> DerivedNetwork:
        return DerivedNetwork(
            search_result.space, search_result.specs, factory, num_classes
        )

    return builder
