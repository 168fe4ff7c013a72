"""Evolutionary AutoMapper — Algorithm 1 of the paper.

Given a DNN (list of layer workloads), a target device and an efficiency
metric, the engine evolves per-layer dataflows:

1. build a pool of ``n`` random samples;
2. while the efficiency goal is unmet (bounded by an iteration budget):
   if the pool is at or below ``n``, breed ``m`` children by randomly
   perturbing ``k`` features of randomly picked parents; otherwise rank
   the pool and drop the ``m`` worst;
3. return the best mapping found.

Every candidate passes through :func:`~repro.hardware.costmodel.make_valid`
so evolution explores schedules, not feasibility accidents.  Identical
layer shapes at the same bit-width share one search (VGG16's repeated 3x3
stages), which keeps Fig. 5/6 sweeps fast — the paper quotes <10 minutes
of search per network and this implementation is well inside that.  The
same shape at another bit-width is a new search, which ``warm_start``
seeds with the best flow found at the other width.  :func:`map_bit_widths`
maps a model at each of its bit-widths: the InstantNet deploy step.

Within a search every candidate is repaired and costed afresh.  A memo
on ``(workload, dataflow)`` served under 9% of lookups and made the
search slower, so there is none; the cost model keeps only its cheap
per-object slots (a flow's resident-words table, a level's iteration
products).

A :func:`random_search_layer` twin with the same evaluation budget backs the
evolution-vs-random ablation the paper motivates via [Real et al. 2018].
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ... import rng as rng_mod
from ...hardware.costmodel import (
    LayerCost,
    NetworkCost,
    evaluate_layer,
    evaluate_network,
    make_valid,
)
from ...hardware.dataflow import Dataflow, perturb_dataflow, random_dataflow
from ...hardware.hierarchy import Device
from ...hardware.networks import extract_workloads
from ...hardware.workload import ConvWorkload
from ...quant.layers import BitSpec, normalize_bits

__all__ = [
    "AutoMapperConfig",
    "MappingResult",
    "AutoMapper",
    "bit_workloads",
    "map_bit_widths",
    "random_search_layer",
]


@dataclass(frozen=True)
class AutoMapperConfig:
    """Search hyper-parameters (names follow Alg. 1).

    ``pool_size`` is *n*, ``breed_batch`` is *m*, ``perturb_features`` is
    *k*.  ``generations`` bounds the loop; ``goal`` optionally stops the
    search early once the metric drops below it (the algorithm's
    "efficiency goal").
    """

    pool_size: int = 24
    breed_batch: int = 12
    perturb_features: int = 2
    generations: int = 30
    metric: str = "edp"
    goal: Optional[float] = None
    seed_key: str = "automapper"
    # Opt-in: seed the pool with the best mapping found for the same
    # layer shape at another bit-width (SP-Net sweeps price each layer
    # at N precisions; good schedules transfer).  Off by default because
    # it makes results depend on previously-searched layers — the
    # default search stays bit-identical to the non-warm evolution.
    warm_start: bool = False

    def __post_init__(self):
        if self.metric not in ("edp", "energy", "latency"):
            raise ValueError(f"metric must be edp|energy|latency, got {self.metric}")
        if self.pool_size < 2 or self.breed_batch < 1:
            raise ValueError("pool_size must be >= 2 and breed_batch >= 1")


@dataclass
class MappingResult:
    """Outcome of a network-level search over ``workloads``."""

    dataflows: List[Dataflow]
    network_cost: NetworkCost
    layer_costs: List[LayerCost]
    pipeline: bool
    evaluations: int
    workloads: Sequence[ConvWorkload] = ()

    @property
    def edp(self) -> float:
        return self.network_cost.edp

    @property
    def energy_pj(self) -> float:
        return self.network_cost.energy_pj

    @property
    def latency_s(self) -> float:
        return self.network_cost.latency_s

    @property
    def fps(self) -> float:
        return self.network_cost.fps


def _metric_of(cost: LayerCost, metric: str) -> float:
    if not cost.valid:
        return float("inf")
    if metric == "energy":
        return cost.energy_pj
    if metric == "latency":
        return cost.latency_s
    return cost.edp


class AutoMapper:
    """Evolutionary dataflow search over the generic design space."""

    def __init__(self, device: Device, config: Optional[AutoMapperConfig] = None):
        self.device = device
        self.config = config or AutoMapperConfig()
        self._rng = rng_mod.spawn_rng(self.config.seed_key)
        self._layer_cache: Dict[tuple, Tuple[Dataflow, LayerCost, int]] = {}
        # Best flow per layer *shape* (bits excluded) for warm starts.
        self._shape_best: Dict[tuple, Dataflow] = {}
        self.evaluations = 0
        # Always 0 (there is no cost-model memo); perfbench/ still reads it.
        self.cost_cache_hits = 0

    # ------------------------------------------------------------------
    # Layer-level search (Alg. 1)
    # ------------------------------------------------------------------
    def search_layer(
        self,
        workload: ConvWorkload,
        pe_fraction: float = 1.0,
        buffer_fraction: float = 1.0,
    ) -> Tuple[Dataflow, LayerCost]:
        """Evolve a dataflow for one layer; results are cached by shape."""
        key = self._cache_key(workload, pe_fraction, buffer_fraction)
        if key in self._layer_cache:
            flow, cost, _ = self._layer_cache[key]
            return flow, cost

        cfg = self.config
        rng = self._rng
        device = self.device
        evaluations = 0

        def price(flow: Dataflow) -> Tuple[Dataflow, float, LayerCost]:
            """Repair and cost one candidate: a pool entry."""
            nonlocal evaluations
            flow = make_valid(
                workload, flow, device,
                pe_fraction=pe_fraction, buffer_fraction=buffer_fraction,
            )
            cost = evaluate_layer(
                workload, flow, device,
                pe_fraction=pe_fraction, buffer_fraction=buffer_fraction,
            )
            evaluations += 1
            return flow, _metric_of(cost, cfg.metric), cost

        # Build a pool with n random samples from the design space.
        pool: List[Tuple[Dataflow, float, LayerCost]] = [
            price(random_dataflow(workload, device, rng))
            for _ in range(cfg.pool_size)
        ]

        # Warm start: the same layer shape searched at another bit-width
        # already found a good schedule — price it at *this* precision
        # and let it displace the worst random sample.  This is how
        # SP-Net sweeps (one workload per candidate bit-width) amortise
        # their searches instead of restarting from random each time.
        shape_key = self._shape_key(workload, pe_fraction, buffer_fraction)
        warm = self._shape_best.get(shape_key) if cfg.warm_start else None
        if warm is not None:
            entry = price(warm)
            worst = max(range(len(pool)), key=lambda i: pool[i][1])
            if entry[1] < pool[worst][1]:
                pool[worst] = entry

        for _ in range(cfg.generations):
            best = min(pool, key=lambda entry: entry[1])
            if cfg.goal is not None and best[1] <= cfg.goal:
                break
            if len(pool) <= cfg.pool_size:
                # Breed m children by perturbing k features of parents
                # drawn from the best performers (Alg. 1: "select a few
                # of the best performing sampled mapping methods").
                pool.sort(key=lambda entry: entry[1])
                elite = max(2, cfg.pool_size // 4)
                for _ in range(cfg.breed_batch):
                    parent = pool[int(rng.integers(0, min(elite, len(pool))))][0]
                    child = perturb_dataflow(
                        parent, workload, device,
                        k=cfg.perturb_features, rng=rng,
                    )
                    pool.append(price(child))
            else:
                # Rank and remove the worst m samples.
                pool.sort(key=lambda entry: entry[1])
                del pool[len(pool) - cfg.breed_batch:]

        flow, _, cost = min(pool, key=lambda entry: entry[1])
        self.evaluations += evaluations
        self._layer_cache[key] = (flow, cost, evaluations)
        self._shape_best[shape_key] = flow
        return flow, cost

    # ------------------------------------------------------------------
    # Network-level search
    # ------------------------------------------------------------------
    def search_network(
        self,
        workloads: Sequence[ConvWorkload],
        pipeline: Optional[bool] = None,
    ) -> MappingResult:
        """Map a whole network.

        ``pipeline=None`` explores both execution styles (the space's
        pipeline/multi-cycle axis) and returns the better under the
        configured metric.  ``evaluations`` on the result counts only the
        cost-model evaluations made by this call (both styles for
        ``pipeline=None``); :attr:`evaluations` keeps the running total.
        """
        start = self.evaluations
        if pipeline is None:
            multi = self.search_network(workloads, pipeline=False)
            pipe = self.search_network(workloads, pipeline=True)
            key = self.config.metric
            m_val = getattr(multi.network_cost, "edp" if key == "edp" else
                            "energy_pj" if key == "energy" else "latency_s")
            p_val = getattr(pipe.network_cost, "edp" if key == "edp" else
                            "energy_pj" if key == "energy" else "latency_s")
            best = multi if m_val <= p_val else pipe
            return replace(best, evaluations=self.evaluations - start)

        flows: List[Dataflow] = []
        costs: List[LayerCost] = []
        if pipeline:
            total_macs = float(sum(w.macs for w in workloads)) or 1.0
            for w in workloads:
                share = max(w.macs / total_macs, 1.0 / (4 * len(workloads)))
                flow, cost = self.search_layer(
                    w, pe_fraction=share, buffer_fraction=share
                )
                flows.append(flow)
                costs.append(cost)
        else:
            for w in workloads:
                flow, cost = self.search_layer(w)
                flows.append(flow)
                costs.append(cost)
        network_cost = evaluate_network(workloads, flows, self.device, pipeline)
        return MappingResult(
            dataflows=flows,
            network_cost=network_cost,
            layer_costs=costs,
            pipeline=pipeline,
            evaluations=self.evaluations - start,
            workloads=tuple(workloads),
        )

    def _cache_key(self, workload: ConvWorkload, pe_fraction, buffer_fraction):
        return (
            workload.n, workload.k, workload.c, workload.y, workload.x,
            workload.r, workload.s, workload.stride, workload.groups,
            workload.bits, round(pe_fraction, 6), round(buffer_fraction, 6),
        )

    def _shape_key(self, workload: ConvWorkload, pe_fraction, buffer_fraction):
        """Like :meth:`_cache_key` but precision-blind, for warm starts."""
        return (
            workload.n, workload.k, workload.c, workload.y, workload.x,
            workload.r, workload.s, workload.stride, workload.groups,
            round(pe_fraction, 6), round(buffer_fraction, 6),
        )


def bit_workloads(
    model: Any, image_size: int, bit_widths: Sequence[BitSpec], batch: int = 1,
) -> Dict[BitSpec, List[ConvWorkload]]:
    """``model``'s layers priced at each of ``bit_widths``.

    The model is profiled once.  A ``(weight_bits, activation_bits)``
    pair executes at ``max(w, a)`` bits: the datapath is as wide as its
    wider operand.  This is the one pricing rule for a bit-width; every
    system a figure compares sees the same layers through it.
    """
    layers = extract_workloads(model, image_size, batch=batch)
    return {
        bits: [w.with_bits(max(normalize_bits(bits))) for w in layers]
        for bits in bit_widths
    }


def map_bit_widths(
    mapper: AutoMapper, model: Any, image_size: int,
    bit_widths: Sequence[BitSpec], *, pipeline: Optional[bool] = False,
    batch: int = 1,
) -> Dict[BitSpec, MappingResult]:
    """``mapper.search_network`` on each bit-width's :func:`bit_workloads`."""
    priced = bit_workloads(model, image_size, bit_widths, batch)
    return {bits: mapper.search_network(layers, pipeline=pipeline)
            for bits, layers in priced.items()}


def random_search_layer(
    workload: ConvWorkload,
    device: Device,
    budget: int,
    metric: str = "edp",
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Dataflow, LayerCost]:
    """Pure random search with the same evaluation budget as evolution.

    The ablation partner for Alg. 1: evolutionary search exploits the
    ranking signal, random search does not (Section III-D's motivation).
    """
    rng = rng or rng_mod.spawn_rng("random-search")
    best_flow, best_cost, best_val = None, None, float("inf")
    for _ in range(budget):
        flow = make_valid(workload, random_dataflow(workload, device, rng), device)
        cost = evaluate_layer(workload, flow, device)
        val = _metric_of(cost, metric)
        if val < best_val:
            best_flow, best_cost, best_val = flow, cost, val
    return best_flow, best_cost
