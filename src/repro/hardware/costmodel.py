"""Analytical energy / latency / EDP model for dataflows.

This stands in for the paper's HLS + on-board measurements and Synopsys
flows, which a reproduction without the boards and the ASIC toolchain
cannot run.  It is the same class of loop-nest analytical model that
the Eyeriss/TETRIS simulator (the paper's own ASIC baseline evaluator)
and DNN-Chip Predictor implement, so every mapper in the comparison is
priced by one model.

For each memory-level boundary the model computes, per operand tensor,
how many words cross it.  The count is **loop-order sensitive**: an
"irrelevant" loop (one that does not index the tensor) placed *outside*
a relevant loop forces the tensor's tiles to be refetched every
iteration, while the same loop placed innermost allows full reuse.  This
is exactly the mechanism that gives different dataflows
orders-of-magnitude energy differences [Chen et al. 2016], and the signal
AutoMapper's evolution climbs.

Cost accounting:

* ``energy = sum_t sum_levels traffic_t(level) * e_level * bits/16
  + MACs * e_mac(bits) + MACs * 3 * e_rf`` (the final term is the
  per-MAC operand movement inside a PE),
* partial sums: output traffic counts read+write for every crossing
  beyond the first (``2B - A`` rule, see ``_tensor_traffic``),
* ``latency = max(compute_cycles, per-boundary DMA cycles)`` under
  perfect double buffering,
* capacity: a tiling whose working set exceeds a level's capacity
  (double-buffered) is *invalid* and priced at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .dataflow import Dataflow, LevelTiling, _shrink_spatial, repair_dataflow
from .hierarchy import BASE_WORD_BITS, Device
from .workload import DIM_INDEX, DIMS, TENSOR_DIMS, ConvWorkload

__all__ = [
    "LayerCost",
    "NetworkCost",
    "evaluate_layer",
    "evaluate_network",
    "capacity_violation",
    "make_valid",
]

# DIMS positions of the loops that index each operand tensor, in the
# (I, W, O) order of every per-tensor tuple in this module.
_TENSOR_INDEX = tuple(
    frozenset(DIM_INDEX[d] for d in TENSOR_DIMS[tensor]) for tensor in ("I", "W", "O")
)


@dataclass(frozen=True)
class LayerCost:
    """Cost of executing one layer under one dataflow."""

    valid: bool
    energy_pj: float
    cycles: float
    latency_s: float
    traffic_words: Dict[str, Dict[str, float]]  # level name -> tensor -> words
    utilization: float
    macs: int
    reason: str = ""

    @property
    def edp(self) -> float:
        """Energy-delay product (J * s)."""
        return (self.energy_pj * 1e-12) * self.latency_s

    @classmethod
    def invalid(cls, reason: str) -> "LayerCost":
        return cls(
            valid=False, energy_pj=float("inf"), cycles=float("inf"),
            latency_s=float("inf"), traffic_words={}, utilization=0.0,
            macs=0, reason=reason,
        )


@dataclass(frozen=True)
class NetworkCost:
    """Aggregate cost of a whole network mapping."""

    valid: bool
    energy_pj: float
    latency_s: float
    pipeline: bool
    layer_costs: Tuple[LayerCost, ...] = ()

    @property
    def edp(self) -> float:
        return (self.energy_pj * 1e-12) * self.latency_s

    @property
    def fps(self) -> float:
        """Throughput in frames per second (1 / per-frame latency)."""
        if not self.valid or self.latency_s <= 0:
            return 0.0
        return 1.0 / self.latency_s


def _all_resident_words(
    workload: ConvWorkload, dataflow: Dataflow
) -> List[Optional[Tuple[float, float, float]]]:
    """``(I, W, O)`` words resident at every on-chip level, in one pass.

    A level's resident tile is swept by that level's own loops over
    next-inner tiles, so it covers the product of the loop factors at
    this level and every inner one, plus the spatial unrolling (whose
    union lives at every level above the per-PE register files).

    The cost model needs the resident set of *each* on-chip level
    (capacity checks walk levels 1..L, traffic needs every boundary);
    computing the cumulative loop coverage as suffix products of the
    levels' factor tuples makes that one sweep instead of a quadratic
    re-walk.  Entry 0, the unbounded DRAM level that no boundary lies
    above, is ``None``.

    The table is memoized on the (frozen) dataflow in a single
    ``(workload, table)`` slot, checked by identity: the pair it serves,
    ``make_valid``'s final capacity check and the ``evaluate_layer``
    that follows, passes the same workload object back to back.  Any
    other workload recomputes the table and takes the slot over.
    """
    memo = getattr(dataflow, "_resident_memo", None)
    if memo is not None and memo[0] is workload:
        return memo[1]
    levels = dataflow.levels
    inner = len(levels) - 1
    spatial = dataflow.spatial_factors
    bounds = workload.bounds
    # Tile words per level.  Input halo: the union of taps touched by
    # the tile's own loop coverage — (Y_cov - 1) * stride + R_cov — NOT
    # the layer's full kernel extent; a tile iterating one tap at a
    # time only needs that tap resident.
    stride = workload.stride
    real_ih, real_iw = workload.input_tile_hw(workload.y, workload.x)
    table: List[Optional[Tuple[float, float, float]]] = [None] * (inner + 1)
    suffix = (1,) * len(DIMS)
    for li in range(inner, 0, -1):
        suffix = tuple(map(mul, suffix, levels[li].factors))
        cover = suffix if li == inner else map(mul, suffix, spatial)
        # Cumulative coverage of every dimension, capped at its bound.
        nn, kk, cc, yy, xx, rr, ss = map(min, cover, bounds)
        ih = (yy - 1) * stride + rr
        iw = (xx - 1) * stride + ss
        if ih > real_ih:
            ih = real_ih
        if iw > real_iw:
            iw = real_iw
        table[li] = (
            float(nn * cc * ih * iw),
            float(kk * cc * rr * ss),
            float(nn * kk * yy * xx),
        )
    object.__setattr__(dataflow, "_resident_memo", (workload, table))
    return table


def _level_iterations(level: LevelTiling) -> Tuple[Tuple[float, float], ...]:
    """``(relevant_product, refetch_product)`` of one level for I, W, O.

    ``relevant_product`` multiplies factors of loops that index the
    tensor.  ``refetch_product`` additionally multiplies irrelevant loops
    placed *outside* the innermost relevant loop — those force the same
    tiles to be streamed again each iteration.  A level with no relevant
    loops reuses the tile completely (both products 1).

    Loops with a factor of 1 change neither product, so the level's
    other loops are listed once, outermost first, and every tensor
    reads that list against its :data:`_TENSOR_INDEX` set.  The result
    depends on the level alone, so it is memoized on the frozen level,
    which a search lineage shares copy-on-write.
    """
    memo = getattr(level, "_iterations_memo", None)
    if memo is not None:
        return memo
    factors = level.factors
    loops = [
        (i, factors[i]) for i in map(DIM_INDEX.__getitem__, level.order)
        if factors[i] > 1
    ]
    result = []
    for tensor_dims in _TENSOR_INDEX:
        relevant = refetch = pending = 1
        for i, f in loops:
            if i in tensor_dims:
                relevant *= f
                # Irrelevant loops outside this relevant one refetch.
                refetch *= pending * f
                pending = 1
            else:
                pending *= f
        result.append((float(relevant), float(refetch)))
    memo = tuple(result)
    object.__setattr__(level, "_iterations_memo", memo)
    return memo


def _traffic_all_boundaries(
    workload: ConvWorkload,
    dataflow: Dataflow,
    resident_all: Sequence[Optional[Tuple[float, float, float]]],
) -> List[Tuple[float, float, float]]:
    """``(I, W, O)`` words crossing each level boundary, in one sweep.

    Read-only tensors (I, W) cross ``tile * B`` words, where ``B``
    multiplies each outer level's refetch iterations.  The accumulating
    output crosses ``tile * (2B - A)``: each distinct tile is written
    once (``A`` = relevant-only product) and every additional crossing
    is a read-modify-write pair.  Spatial distribution needs no extra
    term: per-PE-distinct data is already inside the resident tile, and
    loops irrelevant to a tensor broadcast it across PEs for free (NoC
    multicast).

    The per-boundary iteration products are prefixes over the outer
    levels, so walking boundaries outermost-in accumulates them once
    instead of re-multiplying levels ``0..B`` at every boundary ``B``.
    """
    groups = workload.groups
    refetch_i = refetch_w = relevant_o = refetch_o = 1.0
    per_boundary = []
    levels = dataflow.levels
    for boundary in range(len(levels) - 1):
        (_, ref_i), (_, ref_w), (rel_o, ref_o) = _level_iterations(levels[boundary])
        refetch_i *= ref_i
        refetch_w *= ref_w
        relevant_o *= rel_o
        refetch_o *= ref_o
        words_i, words_w, words_o = resident_all[boundary + 1]
        per_boundary.append((
            words_i * refetch_i * groups,
            words_w * refetch_w * groups,
            words_o * (2.0 * refetch_o - relevant_o) * groups,
        ))
    return per_boundary


def _working_set_bits(
    workload: ConvWorkload, dataflow: Dataflow, li: int, num_levels: int
) -> float:
    """Double-buffered bits level ``li`` must hold for this mapping.

    The register file (the innermost level) is counted in aggregate
    over the active PEs.
    """
    words = sum(_all_resident_words(workload, dataflow)[li])
    if li == num_levels - 1:
        words *= dataflow.spatial_size
    return words * workload.bits * 2.0


def evaluate_layer(
    workload: ConvWorkload,
    dataflow: Dataflow,
    device: Device,
    pe_fraction: float = 1.0,
    buffer_fraction: float = 1.0,
) -> LayerCost:
    """Cost one layer under one dataflow on one device.

    ``pe_fraction`` / ``buffer_fraction`` scale the resources available
    to this layer — the mechanism used to model pipelined execution,
    where layers share the device (DNNBuilder-style stages).
    """
    if not dataflow.covers(workload):
        return LayerCost.invalid("dataflow does not cover the loop bounds")
    active_pes = dataflow.spatial_size
    if active_pes > max(1, int(device.num_pes * pe_fraction)):
        return LayerCost.invalid("spatial unrolling exceeds PE budget")

    bits = workload.bits
    word_scale = bits / BASE_WORD_BITS
    levels = device.hierarchy.levels
    num_levels = len(levels)
    if len(dataflow.levels) != num_levels:
        return LayerCost.invalid(
            f"dataflow has {len(dataflow.levels)} levels, device {num_levels}"
        )

    # ---- capacity validity (double-buffered working sets) -------------
    violation = capacity_violation(workload, dataflow, device, buffer_fraction)
    if violation is not None:
        need_bits = _working_set_bits(workload, dataflow, violation, num_levels)
        return LayerCost.invalid(
            f"working set {need_bits/8:.0f}B exceeds {levels[violation].name}"
        )

    # ---- traffic and energy -------------------------------------------
    traffic_by_level: Dict[str, Dict[str, float]] = {}
    energy = 0.0
    dma_cycles = []
    bw_scale = max(word_scale, 1e-9)
    traffic_all = _traffic_all_boundaries(
        workload, dataflow, _all_resident_words(workload, dataflow)
    )
    for level, (t_i, t_w, t_o) in zip(levels, traffic_all):
        traffic_by_level[level.name] = {"I": t_i, "W": t_w, "O": t_o}
        words = t_i + t_w + t_o
        energy += words * level.energy_per_word * word_scale
        bw = level.bandwidth_words / bw_scale
        dma_cycles.append(words / max(bw, 1e-9))

    macs = workload.macs
    # Datapath: operand reads + accumulator update per MAC at RF cost.
    rf_energy = levels[-1].energy_per_word * word_scale
    energy += macs * 3.0 * rf_energy
    energy += macs * device.mac_energy_at(bits)

    # ---- latency --------------------------------------------------------
    packing = device.macs_per_cycle(bits) / device.num_pes
    effective = max(1.0, min(active_pes, device.num_pes * pe_fraction) * packing)
    compute_cycles = macs / effective
    cycles = max([compute_cycles] + dma_cycles)
    latency_s = cycles / (device.clock_ghz * 1e9)
    utilization = min(1.0, active_pes / max(device.num_pes * pe_fraction, 1.0))

    return LayerCost(
        valid=True,
        energy_pj=energy,
        cycles=cycles,
        latency_s=latency_s,
        traffic_words=traffic_by_level,
        utilization=utilization,
        macs=macs,
    )


def capacity_violation(
    workload: ConvWorkload,
    dataflow: Dataflow,
    device: Device,
    buffer_fraction: float = 1.0,
) -> Optional[int]:
    """Index of the first on-chip level whose capacity is exceeded.

    Returns ``None`` when every double-buffered working set fits.  This
    is the one capacity rule: :func:`evaluate_layer` prices a violating
    mapping as invalid, :func:`make_valid` shrinks it.
    """
    levels = device.hierarchy.levels
    num_levels = len(levels)
    for li in range(1, num_levels):
        cap = levels[li].capacity_bits
        if cap is not None and (
            _working_set_bits(workload, dataflow, li, num_levels)
            > cap * buffer_fraction
        ):
            return li
    return None


def make_valid(
    workload: ConvWorkload,
    dataflow: Dataflow,
    device: Device,
    buffer_fraction: float = 1.0,
    pe_fraction: float = 1.0,
    max_iterations: int = 256,
) -> Dataflow:
    """Repair a dataflow into the valid region.

    First patches coverage and PE budget (:func:`repair_dataflow`), then
    resolves capacity violations by halving the largest inner tiling
    factor of the offending level and pushing the displaced iterations
    out to DRAM — monotonically shrinking working sets while preserving
    coverage.  Used by AutoMapper and every baseline mapper so that the
    search compares *schedules*, never feasibility luck.

    Shrink candidates are read from the levels' factor tuples.  A flow
    that is already valid comes back as the same instance, with its
    resident-words table; the capacity check that accepts a flow leaves
    that table in place for the ``evaluate_layer`` call that follows.
    """
    flow = repair_dataflow(dataflow, workload, device)
    pe_budget = max(1, int(device.num_pes * pe_fraction))
    if flow.spatial_size > pe_budget:
        spatial = _shrink_spatial(dict(flow.spatial), pe_budget)
        flow = repair_dataflow(
            Dataflow(levels=flow.levels, spatial=spatial), workload, device
        )
    # ``dirty`` tracks edits made since the last repair; repair is
    # idempotent, so a clean flow can be returned without another pass
    # (the common case: the very first capacity check succeeds).
    dirty = False
    for _ in range(max_iterations):
        violation = capacity_violation(workload, flow, device, buffer_fraction)
        if violation is None:
            return repair_dataflow(flow, workload, device) if dirty else flow
        # The largest factor at or inside the violating level (ties go
        # to the inner level, then to the later dimension name).
        candidate = max(
            (
                (f, li, d)
                for li in range(violation, len(flow.levels))
                for d, f in zip(DIMS, flow.levels[li].factors)
                if f > 1
            ),
            default=None,
        )
        if candidate is None:
            # Nothing temporal to shrink: halve the largest spatial
            # factor (its union inflates every level above the register
            # files), which at least halves the product.
            if not flow.spatial:
                return repair_dataflow(flow, workload, device) if dirty else flow
            spatial = _shrink_spatial(dict(flow.spatial), flow.spatial_size // 2)
            flow = repair_dataflow(
                Dataflow(levels=flow.levels, spatial=spatial), workload, device
            )
            dirty = False
            continue
        # Copy-on-write: only the shrunk level and the DRAM level are
        # rebuilt; the rest stay shared (LevelTiling is frozen).
        f, li, d = candidate
        levels = list(flow.levels)
        inner = dict(levels[li].tiles)
        outer = dict(levels[0].tiles)
        inner[d] = -(-f // 2)  # ceil: never lose loop-bound coverage
        outer[d] = levels[0].factor(d) * 2
        levels[li] = LevelTiling(levels[li].order, inner)
        levels[0] = LevelTiling(levels[0].order, outer)
        flow = Dataflow(levels=tuple(levels), spatial=flow.spatial)
        dirty = True
    return repair_dataflow(flow, workload, device)


def evaluate_network(
    workloads: Sequence[ConvWorkload],
    dataflows: Sequence[Dataflow],
    device: Device,
    pipeline: bool = False,
) -> NetworkCost:
    """Cost a whole network (the pipeline / multi-cycle choice applies).

    Multi-cycle: each layer owns the full device in turn; per-frame
    latency is the sum of layer latencies.
    Pipeline: layers run as concurrent stages with PE and buffer shares
    proportional to their MAC counts (DNNBuilder's allocation heuristic);
    steady-state per-frame latency is the initiation interval — the
    slowest stage — which is also what throughput-oriented FPGA designs
    report.
    """
    if len(workloads) != len(dataflows):
        raise ValueError(
            f"{len(workloads)} workloads vs {len(dataflows)} dataflows"
        )
    layer_costs: List[LayerCost] = []
    if pipeline:
        total_macs = float(sum(w.macs for w in workloads)) or 1.0
        for w, df in zip(workloads, dataflows):
            share = max(w.macs / total_macs, 1.0 / (4 * len(workloads)))
            layer_costs.append(
                evaluate_layer(w, df, device, pe_fraction=share,
                               buffer_fraction=share)
            )
    else:
        layer_costs = [
            evaluate_layer(w, df, device) for w, df in zip(workloads, dataflows)
        ]
    if not all(c.valid for c in layer_costs):
        return NetworkCost(False, float("inf"), float("inf"), pipeline,
                           tuple(layer_costs))
    energy = sum(c.energy_pj for c in layer_costs)
    if pipeline:
        latency = max(c.latency_s for c in layer_costs)
    else:
        latency = sum(c.latency_s for c in layer_costs)
    return NetworkCost(True, energy, latency, pipeline, tuple(layer_costs))
