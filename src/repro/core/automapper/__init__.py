"""Evolutionary dataflow search: the AutoMapper of Sec. III-D, Alg. 1."""

from .engine import (
    AutoMapper, AutoMapperConfig, MappingResult, bit_workloads, map_bit_widths,
    random_search_layer,
)

__all__ = [
    "AutoMapper", "AutoMapperConfig", "MappingResult", "bit_workloads",
    "map_bit_widths", "random_search_layer",
]
