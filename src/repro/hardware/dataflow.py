"""The paper's generic dataflow design space (Section III-D).

A dataflow describes how a layer's 7-dim loop nest is scheduled across
the memory hierarchy.  Following the paper, a point in the space fixes,
*per memory level*:

* **loop-order** — the processing order of the seven dimensions at that
  level (any permutation; no template restriction, unlike MAGNet);
* **loop-size** — the tiling factor of each dimension at that level
  (how many child-level tiles that level iterates over);

plus a **spatial unrolling** over the PE array and, at network level, the
**pipeline / multi-cycle** execution choice.  The space is astronomically
large (:func:`design_space_size` reports ~1e27 for AlexNet on a 4-level
hierarchy, matching the paper's estimate), hence the evolutionary search
in :mod:`repro.core.automapper`.

Sampling honours platform flexibility: FPGA devices fix the loop orders
of the two innermost levels (an HLS design bakes its pipeline structure
into the bitstream), which is why automated search has more room to win
on ASIC — the effect Fig. 5 reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import ge, mul
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import rng as rng_mod
from .hierarchy import Device
from .workload import DIM_INDEX, DIMS, ConvWorkload

__all__ = [
    "LevelTiling",
    "Dataflow",
    "factorizations",
    "random_dataflow",
    "perturb_dataflow",
    "repair_dataflow",
    "design_space_size",
    "CANONICAL_ORDER",
]

# The order HLS-style FPGA templates keep for their inner loops.
CANONICAL_ORDER: Tuple[str, ...] = ("N", "K", "C", "Y", "X", "R", "S")

_DIMS_SET = frozenset(DIMS)
_ONES = (1,) * len(DIMS)
# The dimensions an FPGA may unroll across its DSP array.
_FPGA_SPATIAL_DIMS: Tuple[str, ...] = ("K", "C", "Y", "X")


@dataclass(frozen=True)
class LevelTiling:
    """Loop order and per-dimension tiling factors at one memory level.

    ``factors`` holds the same tiling as a tuple in :data:`DIMS` order
    (an absent ``tiles`` key is a factor of 1).  It is built once, here:
    levels are frozen and shared copy-on-write along a search lineage,
    so every descendant reads the tuple instead of probing the dict.
    """

    order: Tuple[str, ...]
    tiles: Dict[str, int] = field(default_factory=dict)
    factors: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Hot constructor (mutation/repair build thousands of levels per
        # search): set comparison beats sorting, and the range check
        # reads the factor tuple it has to build anyway.
        if len(self.order) != len(DIMS) or set(self.order) != _DIMS_SET:
            raise ValueError(f"order must permute {DIMS}, got {self.order}")
        factors = tuple(map(self.tiles.get, DIMS, _ONES))
        if min(factors) < 1:
            bad = next(d for d, f in zip(DIMS, factors) if f < 1)
            raise ValueError(f"tile factor for {bad} must be >= 1")
        object.__setattr__(self, "factors", factors)

    def factor(self, dim: str) -> int:
        return self.factors[DIM_INDEX[dim]]

    def iterations(self) -> int:
        """Total loop iterations executed at this level."""
        return math.prod(self.factors)


@dataclass(frozen=True)
class Dataflow:
    """A complete per-layer mapping.

    ``levels[0]`` is the outermost (DRAM) level; ``levels[-1]`` the
    innermost (register file).  ``spatial`` unrolls dimensions across the
    PE array (its product should not exceed the device's PE count);
    ``spatial_factors`` is the same unrolling as a :data:`DIMS`-order
    tuple, like :attr:`LevelTiling.factors`.
    """

    levels: Tuple[LevelTiling, ...]
    spatial: Dict[str, int] = field(default_factory=dict)
    spatial_factors: Tuple[int, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        spatial = self.spatial
        for d, f in spatial.items():
            if d not in _DIMS_SET:
                raise ValueError(f"unknown spatial dim {d}")
            if f < 1:
                raise ValueError(f"spatial factor for {d} must be >= 1")
        object.__setattr__(
            self, "spatial_factors", tuple(map(spatial.get, DIMS, _ONES))
        )

    def spatial_factor(self, dim: str) -> int:
        return self.spatial_factors[DIM_INDEX[dim]]

    @property
    def spatial_size(self) -> int:
        return math.prod(self.spatial_factors)

    def coverage(self, dim: str) -> int:
        """Product of all factors (temporal x spatial) for a dimension."""
        i = DIM_INDEX[dim]
        total = self.spatial_factors[i]
        for level in self.levels:
            total *= level.factors[i]
        return total

    def covers(self, workload: ConvWorkload) -> bool:
        """True when every loop bound is fully covered."""
        total = self.spatial_factors
        for level in self.levels:
            total = map(mul, total, level.factors)
        return all(map(ge, total, workload.bounds))

    def cache_key(self) -> tuple:
        """Hashable canonical identity of this mapping.

        Two dataflows with the same key execute identically (tile factors
        of 1 and absent dict entries are equivalent), so cost-model
        results may be memoized on it — see the AutoMapper's
        evaluate/make_valid caches.  Computed once per instance (the
        dataclass is frozen, so the key cannot go stale).
        """
        try:
            return self._cache_key_memo
        except AttributeError:
            pass
        # The factor tuples are already canonical (fixed width, DIMS
        # order, absent entries as 1), so the key only pairs them up.
        key = (
            tuple([(level.order, level.factors) for level in self.levels]),
            self.spatial_factors,
        )
        object.__setattr__(self, "_cache_key_memo", key)
        return key

    def describe(self) -> str:
        """Human-readable multi-line summary (used by example scripts)."""
        lines = []
        for i, level in enumerate(self.levels):
            tiles = {d: f for d, f in zip(DIMS, level.factors) if f > 1}
            lines.append(f"  L{i} order={''.join(level.order)} tiles={tiles}")
        lines.append(f"  spatial={self.spatial}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Loop-size derivation ("a simple analytical algorithm to derive all
# possible choices" — Section III-D)
# ----------------------------------------------------------------------
def factorizations(bound: int, num_levels: int) -> List[Tuple[int, ...]]:
    """All ordered factor tuples whose product covers ``bound``.

    Factors are drawn from the ceiling-divisor set of ``bound`` so that
    every tuple covers the bound without gross over-provisioning.  This
    enumerates the paper's loop-size axis exactly for small bounds; the
    evolutionary search samples from the same set.
    """
    if bound < 1 or num_levels < 1:
        raise ValueError("bound and num_levels must be >= 1")
    results: List[Tuple[int, ...]] = []

    def recurse(remaining: int, levels_left: int, prefix: Tuple[int, ...]):
        if levels_left == 1:
            results.append(prefix + (remaining,))
            return
        for f in _ceil_divisors(remaining):
            recurse(_ceil_div(remaining, f), levels_left - 1, prefix + (f,))

    recurse(bound, num_levels, ())
    return results


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _ceil_divisors(n: int) -> List[int]:
    """Candidate tile factors for a loop bound of ``n`` (1..n)."""
    if n == 1:
        return [1]
    cands = {1, n}
    for f in range(2, n + 1):
        if n % f == 0 or f < n:
            cands.add(f)
    return sorted(cands)


# ----------------------------------------------------------------------
# Random sampling / perturbation
# ----------------------------------------------------------------------
def _random_factor_split(
    bound: int, num_levels: int, rng: np.random.Generator
) -> List[int]:
    """Split a loop bound into per-level factors, random but covering.

    Draws are geometrically biased toward small factors at inner levels —
    register files hold a handful of words, so uniform draws would make
    nearly every sample blow the capacity constraints and strand the
    evolutionary search in an all-invalid region.
    """
    factors = [1] * num_levels
    remaining = bound
    # Inner levels get progressively tighter caps (RF smallest): 4 at
    # the innermost level, doubling outward.
    cap = 4
    for slot in range(num_levels - 1, 0, -1):
        if remaining == 1:
            break
        f = min(remaining, cap, 1 + int(rng.geometric(0.45)))
        factors[slot] = f
        remaining = _ceil_div(remaining, f)
        cap *= 2
    factors[0] = remaining
    return factors


def random_dataflow(
    workload: ConvWorkload,
    device: Device,
    rng: Optional[np.random.Generator] = None,
) -> "Dataflow":
    """Sample a random valid-shaped dataflow (capacity not yet enforced —
    run :func:`repair_dataflow` afterwards, as the samplers in AutoMapper
    do)."""
    rng = rng or rng_mod.get_rng()
    num_levels = len(device.hierarchy)
    fpga = device.platform == "fpga"
    dims = workload.dims

    # Spatial unrolling: parallelise 2 dimensions across the PE array.
    # Every draw below is in index form (``choice(n)``, ``permutation(n)``):
    # it consumes the same bits as drawing from the list of names, for
    # less numpy overhead.
    spatial: Dict[str, int] = {}
    budget = device.num_pes
    spatial_dims = _FPGA_SPATIAL_DIMS if fpga else DIMS
    chosen = rng.choice(len(spatial_dims), size=2, replace=False)
    for i in chosen.tolist():
        d = spatial_dims[i]
        f = int(rng.integers(1, min(dims[d], budget) + 1))
        spatial[d] = f
        budget = max(1, budget // f)

    # Per-dimension splits, transposed into per-level factor columns.
    columns = zip(*[
        _random_factor_split(_ceil_div(dims[d], spatial.get(d, 1)), num_levels, rng)
        for d in DIMS
    ])
    levels = []
    for li, factors in enumerate(columns):
        if fpga and li >= num_levels - 2:
            order = CANONICAL_ORDER
        else:
            order = tuple([DIMS[i] for i in rng.permutation(len(DIMS)).tolist()])
        levels.append(LevelTiling(order, dict(zip(DIMS, factors))))
    return Dataflow(levels=tuple(levels), spatial=spatial)


def perturb_dataflow(
    dataflow: Dataflow,
    workload: ConvWorkload,
    device: Device,
    k: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> Dataflow:
    """Randomly perturb ``k`` features (Alg. 1's mutation operator).

    A feature is one of: swap two dims in one level's loop order, move
    tile quantity of one dim between two levels, or resize one spatial
    factor.  FPGA platforms never mutate their fixed inner orders.
    """
    rng = rng or rng_mod.get_rng()
    # Copy-on-write: LevelTiling is frozen, so unmutated levels are
    # shared with the parent and only mutated slots are rebuilt.
    levels = list(dataflow.levels)
    spatial = dict(dataflow.spatial)
    num_levels = len(levels)
    fpga = device.platform == "fpga"
    mutable_order_levels = num_levels - 2 if fpga else num_levels
    spatial_dims = _FPGA_SPATIAL_DIMS if fpga else DIMS

    # Scalar picks use ``integers(0, n)``: numpy documents it as the
    # equivalent of ``choice(n)``, and it draws the same bits for a
    # fraction of the call overhead.
    for _ in range(max(1, k)):
        move = rng.integers(0, 3)
        if move == 0 and mutable_order_levels > 0:
            # Swap two positions in one level's order.
            li = int(rng.integers(0, mutable_order_levels))
            order = list(levels[li].order)
            i, j = rng.choice(len(order), size=2, replace=False).tolist()
            order[i], order[j] = order[j], order[i]
            levels[li] = LevelTiling(tuple(order), levels[li].tiles)
        elif move == 1:
            # Move tiling quantity of one dim between two levels.
            di = int(rng.integers(0, len(DIMS)))
            src, dst = rng.choice(num_levels, size=2, replace=False).tolist()
            src_f = levels[src].factors[di]
            if src_f > 1:
                take = int(rng.integers(2, src_f + 1))
                d = DIMS[di]
                new_src = dict(levels[src].tiles)
                new_dst = dict(levels[dst].tiles)
                new_src[d] = _ceil_div(src_f, take)
                new_dst[d] = levels[dst].factors[di] * take
                levels[src] = LevelTiling(levels[src].order, new_src)
                levels[dst] = LevelTiling(levels[dst].order, new_dst)
        else:
            # Resize a spatial factor.
            d = spatial_dims[int(rng.integers(0, len(spatial_dims)))]
            cap = min(workload.dims[d], device.num_pes)
            spatial[d] = int(rng.integers(1, cap + 1))
            spatial = {k_: v for k_, v in spatial.items() if v > 1}

    return Dataflow(levels=tuple(levels), spatial=spatial)


def _shrink_spatial(spatial: Dict[str, int], budget: int) -> Dict[str, int]:
    """Halve the largest spatial factor until the product fits ``budget``.

    Edits ``spatial`` in place and returns it; a factor that halves to 1
    is dropped.  Ties go to the first key in dict order.
    """
    while spatial and math.prod(spatial.values()) > budget:
        d = max(spatial, key=spatial.__getitem__)
        half = spatial[d] // 2
        if half > 1:
            spatial[d] = half
        else:
            del spatial[d]
    return spatial


def repair_dataflow(
    dataflow: Dataflow, workload: ConvWorkload, device: Device
) -> Dataflow:
    """Make a dataflow cover the workload and respect PE limits.

    Coverage holes are patched at the outermost (DRAM) level, which is
    always legal since DRAM is unbounded; an oversized spatial product is
    scaled down greedily.  Buffer-capacity violations are handled by the
    cost model as hard invalidity (infinite cost) rather than silent
    repair, so the search can learn the boundary.  A flow that needs no
    edit comes back as the same instance, so its memoized cache key and
    resident-words table carry over.
    """
    levels = dataflow.levels
    spatial = dataflow.spatial
    if dataflow.spatial_size > device.num_pes:
        spatial = _shrink_spatial(dict(spatial), device.num_pes)

    # Re-derive the outermost (DRAM) factor of every dimension as the
    # *minimal* cover: repeated perturb/repair cycles would otherwise
    # compound over-coverage, and phantom iterations inflate the traffic
    # model (crossings count loop factors, not capped extents).
    inner = [spatial.get(d, 1) for d in DIMS]
    for level in levels[1:]:
        inner = map(mul, inner, level.factors)
    outer = tuple([-(-bound // i) for bound, i in zip(workload.bounds, inner)])
    if spatial is dataflow.spatial and outer == levels[0].factors:
        return dataflow
    # Only the DRAM level is rewritten; inner levels are frozen and are
    # shared with the input dataflow.
    new_outer = LevelTiling(levels[0].order, dict(zip(DIMS, outer)))
    return Dataflow(levels=(new_outer,) + tuple(levels[1:]), spatial=spatial)


def design_space_size(workload: ConvWorkload, num_levels: int = 4) -> float:
    """Order-of-magnitude size of the mapping space for one layer.

    Counts loop-order permutations per level times loop-size choices per
    dimension (compositions of each bound's divisor chain across levels),
    times the pipeline/multi-cycle bit.  Reported in the README to ground
    the paper's "over 10^27 choices for AlexNet" claim.
    """
    order_choices = math.factorial(len(DIMS)) ** num_levels
    size_choices = 1.0
    for bound in workload.dims.values():
        # Number of ways to write `bound` as an ordered product across
        # levels, approximated by C(bound_exponents): use divisor count ^ levels.
        divisors = len(_ceil_divisors(bound))
        size_choices *= float(divisors) ** (num_levels - 1)
    return 2.0 * order_choices * size_choices
