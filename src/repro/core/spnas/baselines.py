"""NAS baselines of Fig. 4: FP-NAS and LP-NAS.

Both reuse the SP-NAS machinery with the heterogeneous update scheme
switched off:

* **FP-NAS** searches at full precision only — weights and architecture
  parameters are both updated with the highest bit-width's loss.  The
  resulting architecture is oblivious to quantisation noise.
* **LP-NAS** searches entirely at the lowest bit-width — robust to that
  one precision, but its weights never see the other widths during
  search, and the architecture over-fits the extreme operating point.

The derived architectures of all three methods are then retrained
identically with CDT (the paper's evaluation protocol), so Fig. 4
isolates the effect of the *search signal* alone.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ...data.dataset import Dataset
from ...quant.layers import BitSpec
from .search import SPNASConfig, SPNASSearcher, SearchResult
from .space import SearchSpace

__all__ = ["search_spnas", "search_fp_nas", "search_lp_nas"]


def _run(space, bit_widths, num_classes, train_set, config) -> SearchResult:
    searcher = SPNASSearcher(space, bit_widths, num_classes, config)
    return searcher.search(train_set)


def search_spnas(
    space: SearchSpace,
    bit_widths: Sequence[BitSpec],
    num_classes: int,
    train_set: Dataset,
    config: Optional[SPNASConfig] = None,
) -> SearchResult:
    """The proposed search: CDT weights + lowest-bit architecture signal."""
    config = replace(config or SPNASConfig(), weight_mode="cdt",
                     arch_bits="lowest")
    return _run(space, bit_widths, num_classes, train_set, config)


def search_fp_nas(
    space: SearchSpace,
    bit_widths: Sequence[BitSpec],
    num_classes: int,
    train_set: Dataset,
    config: Optional[SPNASConfig] = None,
) -> SearchResult:
    """Full-precision NAS: search as if quantisation did not exist."""
    config = replace(config or SPNASConfig(), weight_mode="highest",
                     arch_bits="highest")
    return _run(space, bit_widths, num_classes, train_set, config)


def search_lp_nas(
    space: SearchSpace,
    bit_widths: Sequence[BitSpec],
    num_classes: int,
    train_set: Dataset,
    config: Optional[SPNASConfig] = None,
) -> SearchResult:
    """Low-precision NAS: search locked to the lowest bit-width."""
    config = replace(config or SPNASConfig(), weight_mode="lowest",
                     arch_bits="lowest")
    return _run(space, bit_widths, num_classes, train_set, config)
