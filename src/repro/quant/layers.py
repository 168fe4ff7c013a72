"""Switchable-precision convolution and linear layers.

These subclasses share ONE set of float weights across all candidate
bit-widths (the defining property of SP-Nets): :meth:`set_bitwidth`
changes only which quantisation grid the shared weights and incoming
activations are snapped to on the next forward pass.  Together with
per-bit batch norm (:class:`repro.nn.SwitchableBatchNorm2d`) this is the
SP-Net parameterisation of AdaBits / SP that the paper builds CDT on.

A bit-width may be a single int (weights and activations alike, as in
Tables I-III) or a ``(weight_bits, activation_bits)`` pair (Table IV's
W2A32 / W32A2 settings).

Quantised-weight caching
------------------------
Weights only change at optimiser steps, yet CDT training forwards the
batch at N bit-widths per step — so a naive implementation re-runs the
full weight quantisation (tanh / max-abs / round over the whole tensor)
N times per batch, and once per batch even during evaluation where the
weights never change at all.  Each layer therefore caches the forward
quantised array keyed on ``(weight_bits, weight.version)`` (see
:attr:`repro.tensor.Tensor.version`): the array is recomputed exactly
once per optimiser step per bit-width, while the straight-through op is
still rebuilt every forward so gradients keep flowing to the shared
float weight.  :func:`weight_cache` disables the cache for equivalence
tests.
"""

from __future__ import annotations

import contextlib
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..nn import profile as profile_mod
from ..nn.layers import Conv2d, Linear
from ..tensor import Tensor, conv2d, straight_through, straight_through_t
from .quantizers import Quantizer

__all__ = [
    "BitSpec",
    "normalize_bits",
    "QuantConv2d",
    "QuantLinear",
    "weight_cache",
    "weight_cache_enabled",
]

BitSpec = Union[int, Tuple[int, int]]

_WEIGHT_CACHE_ENABLED = True


def weight_cache_enabled() -> bool:
    """Whether quantised-weight caching is currently active."""
    return _WEIGHT_CACHE_ENABLED


@contextlib.contextmanager
def weight_cache(enabled: bool):
    """Temporarily enable/disable the quantised-weight cache.

    The disabled path recomputes the quantised array on every forward —
    the pre-caching behaviour — and is what the equivalence tests use as
    their reference numerics.
    """
    global _WEIGHT_CACHE_ENABLED
    previous = _WEIGHT_CACHE_ENABLED
    _WEIGHT_CACHE_ENABLED = bool(enabled)
    try:
        yield
    finally:
        _WEIGHT_CACHE_ENABLED = previous


def normalize_bits(bits: BitSpec) -> Tuple[int, int]:
    """Return ``(weight_bits, activation_bits)`` from an int or pair."""
    if isinstance(bits, tuple):
        if len(bits) != 2:
            raise ValueError(f"bit pair must have 2 entries, got {bits}")
        return int(bits[0]), int(bits[1])
    return int(bits), int(bits)


class _SwitchableMixin:
    """Shared candidate-set bookkeeping for quantised layers."""

    def _init_bits(self, bit_widths: Sequence[BitSpec], quantizer: Quantizer):
        if not bit_widths:
            raise ValueError("bit_widths must be non-empty")
        self.bit_widths = tuple(bit_widths)
        self.quantizer = quantizer
        self._active_bits: BitSpec = self.bit_widths[-1]
        # Quantised-weight cache: key (weight_bits, weight.version), one
        # entry per bit-width so CDT's N-width sweep hits N cached arrays.
        self._wq_cache: dict = {}

    @property
    def active_bits(self) -> BitSpec:
        return self._active_bits

    def set_bitwidth(self, bits: BitSpec) -> None:
        """Activate one of the candidate bit-widths."""
        if bits not in self.bit_widths:
            raise ValueError(
                f"bit-width {bits} not in candidate set {self.bit_widths}"
            )
        self._active_bits = bits

    def _weight_transform(self, values: np.ndarray) -> np.ndarray:
        """Layout transform applied to the cached quantised array."""
        return values

    def drop_stale_weights(self) -> None:
        """Free the cached arrays if a weight update has made them stale."""
        if self._wq_cache and next(iter(self._wq_cache))[1] != self.weight.version:
            self._wq_cache.clear()

    def _cached_weight_values(self, w_bits: int) -> Optional[np.ndarray]:
        """Quantised weight array for ``w_bits`` (``None`` = identity).

        Served from the per-layer cache keyed ``(w_bits, version)``; the
        first lookup after a version bump (optimiser step,
        ``load_state_dict``) drops every stale entry, so a stale array is
        never served.
        """
        if not _WEIGHT_CACHE_ENABLED:
            values = self.quantizer.weight_values(self.weight.data, w_bits)
            return None if values is None else self._weight_transform(values)
        key = (w_bits, self.weight.version)
        if key not in self._wq_cache:
            self.drop_stale_weights()
            values = self.quantizer.weight_values(self.weight.data, w_bits)
            self._wq_cache[key] = (
                None if values is None else self._weight_transform(values)
            )
        return self._wq_cache[key]


class QuantConv2d(Conv2d, _SwitchableMixin):
    """Convolution with switchable weight/activation quantisation."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        bit_widths: Sequence[BitSpec],
        quantizer: Quantizer,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = False,
    ):
        super().__init__(
            in_channels, out_channels, kernel_size, stride, padding, groups, bias
        )
        self._init_bits(bit_widths, quantizer)

    def forward(self, x: Tensor) -> Tensor:
        profiler = profile_mod.active_profiler()
        if profiler is not None:
            profiler.record_conv(self, x)
        w_bits, a_bits = normalize_bits(self._active_bits)
        x_q = self.quantizer.quantize_activation(x, a_bits)
        wq_values = self._cached_weight_values(w_bits)
        if wq_values is None:
            w_q = self.weight
        else:
            w_q = straight_through(self.weight, wq_values)
        return conv2d(
            x_q,
            w_q,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            groups=self.groups,
        )


class QuantLinear(Linear, _SwitchableMixin):
    """Fully connected layer with switchable weight/activation quantisation."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bit_widths: Sequence[BitSpec],
        quantizer: Quantizer,
        bias: bool = True,
    ):
        super().__init__(in_features, out_features, bias)
        self._init_bits(bit_widths, quantizer)

    def _weight_transform(self, values: np.ndarray) -> np.ndarray:
        # Cache the (in, out) layout matmul consumes, so the transpose is
        # paid once per optimiser step instead of once per forward.
        return np.ascontiguousarray(values.T)

    def forward(self, x: Tensor) -> Tensor:
        profiler = profile_mod.active_profiler()
        if profiler is not None:
            profiler.record_linear(self, x)
        w_bits, a_bits = normalize_bits(self._active_bits)
        x_q = self.quantizer.quantize_activation(x, a_bits)
        wq_t = self._cached_weight_values(w_bits)
        if wq_t is None:
            out = x_q @ self.weight.transpose()
        else:
            out = x_q @ straight_through_t(self.weight, wq_t)
        if self.bias is not None:
            out = out + self.bias
        return out
