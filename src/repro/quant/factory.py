"""Layer factory producing switchable-precision models.

Passing a :class:`SwitchableFactory` to any model constructor in
:mod:`repro.nn.models` yields an SP-Net: shared weights, switchable
quantisation on every internal conv/linear, and per-bit-width batch norm.
Layers flagged ``quantize=False`` by the topology (stem, classifier) stay
full precision, following the DoReFa/SBM convention the paper's
experiments use.
"""

from __future__ import annotations

from typing import Sequence

from ..nn.factory import LayerFactory
from ..nn.layers import BatchNorm2d, Conv2d, Linear, ReLU, ReLU6, SwitchableBatchNorm2d
from .layers import BitSpec, QuantConv2d, QuantLinear
from .quantizers import Quantizer, make_quantizer

__all__ = ["SwitchableFactory"]


class SwitchableFactory(LayerFactory):
    """Build switchable-precision layers over a candidate bit-width set.

    Parameters
    ----------
    bit_widths:
        Candidate set, e.g. ``[4, 8, 12, 16, 32]`` — ints or
        ``(weight_bits, activation_bits)`` pairs.
    quantizer:
        A :class:`~repro.quant.quantizers.Quantizer` instance or a
        quantizer name (``"sbm"``, ``"dorefa"``).
    switchable_bn:
        Keep independent BN statistics per bit-width (the SP convention the
        paper adopts).  Disable only for the shared-BN ablation.
    activation:
        ``"relu6"`` (default — bounded, quantiser-friendly) or ``"relu"``.
    """

    def __init__(
        self,
        bit_widths: Sequence[BitSpec],
        quantizer="sbm",
        switchable_bn: bool = True,
        activation: str = "relu6",
    ):
        if not bit_widths:
            raise ValueError("bit_widths must be non-empty")
        if isinstance(quantizer, str):
            quantizer = make_quantizer(quantizer)
        if not isinstance(quantizer, Quantizer):
            raise TypeError(f"quantizer must be a Quantizer or name, got {quantizer!r}")
        if activation not in ("relu", "relu6"):
            raise ValueError(f"unknown activation {activation!r}")
        self.bit_widths = tuple(bit_widths)
        self.quantizer = quantizer
        self.switchable_bn = switchable_bn
        self._activation = activation

    def conv(
        self,
        in_channels,
        out_channels,
        kernel_size,
        stride=1,
        padding=0,
        groups=1,
        bias=False,
        quantize=True,
    ):
        if not quantize:
            return Conv2d(
                in_channels, out_channels, kernel_size, stride, padding, groups, bias
            )
        return QuantConv2d(
            in_channels,
            out_channels,
            kernel_size,
            bit_widths=self.bit_widths,
            quantizer=self.quantizer,
            stride=stride,
            padding=padding,
            groups=groups,
            bias=bias,
        )

    def linear(self, in_features, out_features, quantize=True):
        if not quantize:
            return Linear(in_features, out_features)
        return QuantLinear(
            in_features, out_features, bit_widths=self.bit_widths,
            quantizer=self.quantizer,
        )

    def norm(self, num_features):
        if self.switchable_bn:
            return SwitchableBatchNorm2d(num_features, self.bit_widths)
        return BatchNorm2d(num_features)

    def activation(self):
        return ReLU6() if self._activation == "relu6" else ReLU()
