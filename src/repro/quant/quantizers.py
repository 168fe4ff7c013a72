"""Weight / activation quantisers used by the paper's experiments.

Two published schemes are implemented:

* :class:`DoReFaQuantizer` [Zhou et al. 2016] — the quantiser the paper
  pairs with the AdaBits and SP baselines.  Weights are squashed with
  ``tanh`` into [-1, 1] and uniformly quantised; activations are clipped
  to a fixed range and uniformly quantised.
* :class:`SBMQuantizer` [Banner et al. 2018, "Scalable methods for 8-bit
  training"] — the quantiser used for CDT and the independently-trained
  per-bit baseline.  Weights use per-output-channel symmetric max-abs
  scaling; activations use dynamic per-tensor scaling (unsigned when the
  tensor is non-negative, symmetric otherwise).

All quantisers are straight-through: the forward pass emits quantised
values, the backward pass treats the quantiser as identity
(:func:`repro.tensor.straight_through`).  Bit-widths of 32 or more mean
full precision and return the input unchanged — matching the paper's
convention that 32 denotes the float network.
"""

from __future__ import annotations

import numpy as np

from ..api.registry import lookup
from ..tensor import Tensor, straight_through

__all__ = [
    "Quantizer",
    "DoReFaQuantizer",
    "SBMQuantizer",
    "make_quantizer",
    "FULL_PRECISION_BITS",
]

# Bit-widths at or above this threshold are treated as full precision.
FULL_PRECISION_BITS = 32


class Quantizer:
    """Interface: map float tensors to quantised tensors at a bit-width."""

    name = "base"

    def weight_values(self, weight: np.ndarray, bits: int):
        """Quantised weight *array*, or ``None`` when quantisation is the
        identity (full precision, or a degenerate all-zero tensor).

        This is the pure forward computation with no autograd wiring —
        the piece the switchable layers cache per ``(bits, version)`` so
        that CDT's N-bit-width forwards re-quantise shared weights once
        per optimiser step instead of once per forward.
        """
        raise NotImplementedError

    def quantize_weight(self, weight: Tensor, bits: int) -> Tensor:
        values = self.weight_values(weight.data, bits)
        if values is None:
            return weight
        return straight_through(weight, values)

    def quantize_activation(self, x: Tensor, bits: int) -> Tensor:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _uniform_levels(x: np.ndarray, levels: int) -> np.ndarray:
    """Quantise values in [0, 1] to ``levels`` uniform steps."""
    return np.round(x * levels) / levels


class DoReFaQuantizer(Quantizer):
    """DoReFa-Net quantisation.

    Weights: ``w_q = 2 * quant_k( tanh(w) / (2 max|tanh(w)|) + 1/2 ) - 1``.
    Activations: ``a_q = quant_k( clip(a / range, 0, 1) ) * range`` with a
    fixed clipping ``activation_range`` (default 6.0, matching ReLU6).

    Gradients pass straight through the whole transform; activation
    gradients are masked outside the clipping range (saturating STE).
    """

    name = "dorefa"

    def __init__(self, activation_range: float = 6.0):
        if activation_range <= 0:
            raise ValueError("activation_range must be positive")
        self.activation_range = float(activation_range)

    def weight_values(self, weight: np.ndarray, bits: int):
        if bits >= FULL_PRECISION_BITS:
            return None
        if bits < 1:
            raise ValueError(f"weight bits must be >= 1, got {bits}")
        levels = (1 << bits) - 1
        t = np.tanh(weight)
        max_t = np.abs(t).max()
        if max_t == 0.0:
            return None
        normalized = t / (2.0 * max_t) + 0.5
        quantized = 2.0 * _uniform_levels(normalized, levels) - 1.0
        # Match the float magnitude so switching bit-widths keeps scale:
        # DoReFa maps into [-1, 1]; rescale by the original max magnitude.
        return quantized * np.abs(weight).max()

    def quantize_activation(self, x: Tensor, bits: int) -> Tensor:
        if bits >= FULL_PRECISION_BITS:
            return x
        if bits < 1:
            raise ValueError(f"activation bits must be >= 1, got {bits}")
        levels = (1 << bits) - 1
        scaled = np.clip(x.data / self.activation_range, 0.0, 1.0)
        quantized = _uniform_levels(scaled, levels) * self.activation_range
        return straight_through(x, quantized, clip_low=0.0,
                                clip_high=self.activation_range)


class SBMQuantizer(Quantizer):
    """Banner et al. scalable 8-bit-training style quantisation.

    Weights: per-output-channel symmetric max-abs scaling to
    ``[-(2^(b-1)-1), 2^(b-1)-1]`` integer levels.
    Activations: dynamic per-tensor scaling — unsigned ``[0, 2^b - 1]``
    when the tensor is non-negative (post-ReLU), symmetric signed
    otherwise (e.g. residual-sum inputs).
    """

    name = "sbm"

    def weight_values(self, weight: np.ndarray, bits: int):
        if bits >= FULL_PRECISION_BITS:
            return None
        if bits < 2:
            raise ValueError(f"SBM weight bits must be >= 2, got {bits}")
        qmax = (1 << (bits - 1)) - 1
        # Per-output-channel scale: axis 0 is C_out for both conv (4-D)
        # and linear (2-D) weights.
        reduce_axes = tuple(range(1, weight.ndim))
        max_abs = np.abs(weight).max(axis=reduce_axes, keepdims=True)
        scale = np.where(max_abs > 0, max_abs / qmax, 1.0)
        quantized = weight / scale
        np.round(quantized, out=quantized)
        np.clip(quantized, -qmax, qmax, out=quantized)
        quantized *= scale
        return quantized

    def quantize_activation(self, x: Tensor, bits: int) -> Tensor:
        if bits >= FULL_PRECISION_BITS:
            return x
        if bits < 2:
            raise ValueError(f"SBM activation bits must be >= 2, got {bits}")
        data = x.data
        lo = float(data.min()) if data.size else 0.0
        if lo >= 0.0:
            qmax = (1 << bits) - 1
            hi = float(data.max()) if data.size else 0.0
            scale = hi / qmax if hi > 0 else 1.0
        else:
            qmax = (1 << (bits - 1)) - 1
            max_abs = float(np.abs(data).max())
            scale = max_abs / qmax if max_abs > 0 else 1.0
        # The dynamic scale maps the observed extrema exactly onto the
        # grid ends, so rounding already lands in [-qmax, qmax] (or
        # [0, qmax]) and no clip pass is needed; in-place round/rescale
        # avoids two temporaries on this every-forward path.  ``np.rint``
        # is the ufunc ``np.round`` dispatches to at ``decimals=0``,
        # called without the dispatch.
        quantized = data / scale
        np.rint(quantized, out=quantized)
        quantized *= scale
        return straight_through(x, quantized)


def make_quantizer(name: str, **kwargs) -> Quantizer:
    """Instantiate a quantiser by name (``dorefa|sbm``), case-insensitively."""
    return lookup("quantizers", name.lower())(**kwargs)
