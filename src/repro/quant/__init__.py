"""Quantisation substrate: quantisers, switchable layers and SP-Nets."""

from .quantizers import (
    FULL_PRECISION_BITS,
    DoReFaQuantizer,
    Quantizer,
    SBMQuantizer,
    make_quantizer,
)
from .layers import (
    BitSpec,
    QuantConv2d,
    QuantLinear,
    normalize_bits,
    weight_cache,
    weight_cache_enabled,
)
from .factory import SwitchableFactory
from .network import (
    SwitchablePrecisionNetwork,
    collect_switchable_layers,
    sort_bitwidths,
)

__all__ = [
    "FULL_PRECISION_BITS",
    "DoReFaQuantizer",
    "Quantizer",
    "SBMQuantizer",
    "make_quantizer",
    "BitSpec",
    "QuantConv2d",
    "QuantLinear",
    "normalize_bits",
    "weight_cache",
    "weight_cache_enabled",
    "SwitchableFactory",
    "SwitchablePrecisionNetwork",
    "collect_switchable_layers",
    "sort_bitwidths",
]
