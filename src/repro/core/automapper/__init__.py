"""Evolutionary dataflow search: the AutoMapper of Sec. III-D, Alg. 1."""

from .engine import AutoMapper, AutoMapperConfig, MappingResult, random_search_layer

__all__ = ["AutoMapper", "AutoMapperConfig", "MappingResult", "random_search_layer"]
