"""Switchable-precision NAS (Section III-C) and its Fig. 4 baselines."""

from .space import (
    BlockSpec,
    SearchSpace,
    StageSpec,
    candidate_flops,
    cifar_search_space,
    tiny_search_space,
)
from .supernet import MixedOp, Supernet
from .search import SPNASConfig, SPNASSearcher, SearchResult
from .derive import DerivedNetwork, build_derived
from .baselines import search_fp_nas, search_lp_nas, search_spnas

__all__ = [
    "BlockSpec",
    "SearchSpace",
    "StageSpec",
    "candidate_flops",
    "cifar_search_space",
    "tiny_search_space",
    "MixedOp",
    "Supernet",
    "SPNASConfig",
    "SPNASSearcher",
    "SearchResult",
    "DerivedNetwork",
    "build_derived",
    "search_fp_nas",
    "search_lp_nas",
    "search_spnas",
]
