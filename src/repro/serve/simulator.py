"""Deterministic traffic simulator + load generator for the serving layer.

Arrival processes are generated from the repo's seeded RNG streams and
service times come from the AutoMapper-priced
:class:`~repro.serve.engine.BitLatencyModel`, so a simulation is a pure
function of ``(seed, scenario, policy, scale)`` — bit-identical across
runs and machines.  Forward passes are still executed for real on the
synthetic dataset, which is what makes the accuracy proxy and the
per-bit predictions honest rather than modelled.

Scenarios (rates are expressed relative to the engine's capacity at its
HIGHEST precision, so every scenario stresses any model the same way):

* ``constant`` — Poisson arrivals at ~0.55x capacity: the steady state a
  static deployment is sized for;
* ``bursty``   — quiet Poisson background punctuated by bursts arriving
  well above highest-precision capacity: the case InstantNet's
  instantaneous switching exists for;
* ``diurnal``  — sinusoidal rate sweeping from ~0.1x to ~1.1x capacity:
  a day/night load curve compressed into one simulation.

The ``scenarios`` table of :mod:`repro.api.registry` names them.

This module owns traffic, setup and the single-engine report; it has no
event loop of its own.  A single engine is a one-replica fleet:
:func:`simulate` drives it through
:func:`~repro.serve.cluster.simulate_fleet`, and :func:`build_report`
aggregates through the same
:func:`~repro.serve.stats.merge_engine_stats` as the fleet report.

``python -m repro serve-sim`` runs one scenario under one or all
policies and prints p50/p95/p99 latency, throughput, the per-bit-width
occupancy histogram, the accuracy proxy, and — when the latency model
carries cost-model energy estimates — energy per request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import rng as rng_mod
from ..api.registry import choices, lookup
from ..obs.tracer import NULL_TRACER, bits_label
from ..data.synthetic import SyntheticSpec, make_synthetic
from ..quant.layers import BitSpec
from . import cluster
from .checkpoint import SPNetConfig, build_sp_net
from .engine import BitLatencyModel, InferenceEngine, InferenceRequest
from .stats import merge_engine_stats

__all__ = [
    "ServeScale",
    "SERVE_SCALES",
    "ServeReport",
    "SimFixture",
    "constant_gaps",
    "bursty_gaps",
    "diurnal_gaps",
    "generate_requests",
    "prepare_simulation",
    "make_engine",
    "simulate",
    "run_serve_sim",
    "format_reports",
]

@dataclass(frozen=True)
class ServeScale:
    """The served model and the traffic volume for one simulation scale."""

    name: str
    num_requests: int
    model: SPNetConfig
    max_batch: int
    mapper_generations: int
    slo_batches: float = 2.5   # SLO as a multiple of one full-batch service
    difficulty: float = 2.0


SERVE_SCALES: Dict[str, ServeScale] = {
    "smoke": ServeScale(
        name="smoke", num_requests=240, max_batch=8, mapper_generations=3,
        model=SPNetConfig(bit_widths=(4, 8, 16), num_classes=5,
                          width_mult=0.25, image_size=12),
    ),
    "default": ServeScale(
        name="default", num_requests=1536, max_batch=16, mapper_generations=6,
        model=SPNetConfig(bit_widths=(4, 8, 12, 16), num_classes=10,
                          width_mult=0.5, image_size=16),
    ),
}


def get_serve_scale(scale) -> ServeScale:
    if isinstance(scale, ServeScale):
        return scale
    return lookup("serve_scales", scale)


# ----------------------------------------------------------------------
# Traffic generation
# ----------------------------------------------------------------------
# A scenario is a ``fn(n, capacity_rps, rng) -> gaps`` named in the
# ``scenarios`` table of repro.api.registry, where the CLI and the
# pipeline pick it up by name.


def constant_gaps(
    n: int, capacity_rps: float, rng: np.random.Generator
) -> np.ndarray:
    """Poisson arrivals at ~0.55x capacity: the sized-for steady state."""
    rate = 0.55 * capacity_rps
    return rng.exponential(1.0 / rate, size=n)


def bursty_gaps(
    n: int, capacity_rps: float, rng: np.random.Generator
) -> np.ndarray:
    """Quiet trickle punctuated by hammering bursts.

    Cycles of 24 requests at 0.35x capacity, then 24 arriving at 4x
    capacity — the case InstantNet's instantaneous switching exists for.
    """
    quiet, burst = 24, 24
    rates = np.empty(n)
    for i in range(n):
        in_cycle = i % (quiet + burst)
        rates[i] = (
            0.35 * capacity_rps if in_cycle < quiet else 4.0 * capacity_rps
        )
    return rng.exponential(1.0, size=n) / rates


def diurnal_gaps(
    n: int, capacity_rps: float, rng: np.random.Generator
) -> np.ndarray:
    """Two "days" across the request stream; rate sweeps 0.1x-1.1x."""
    cycles = 2.0
    phase = 2.0 * math.pi * cycles * np.arange(n) / max(n, 1)
    rates = capacity_rps * (0.6 + 0.5 * np.sin(phase))
    rates = np.maximum(rates, 0.1 * capacity_rps)
    return rng.exponential(1.0, size=n) / rates


def generate_requests(
    scenario: str,
    scale: ServeScale,
    latency_model: BitLatencyModel,
    highest_bits: BitSpec,
    seed_key: str = "serve-traffic",
) -> List[InferenceRequest]:
    """Deterministic labelled request stream for one scenario.

    Rates are anchored to the engine's full-batch throughput at its
    highest precision, so "4x capacity" means the same pressure whatever
    the model or device.
    """
    batch_s = latency_model.batch_latency_s(highest_bits, scale.max_batch)
    capacity_rps = scale.max_batch / batch_s
    rng = rng_mod.spawn_rng(f"{seed_key}-{scenario}")
    gaps = lookup("scenarios", scenario)(scale.num_requests, capacity_rps, rng)
    arrivals = np.cumsum(gaps)
    spec = SyntheticSpec(
        name="serve",
        num_classes=scale.model.num_classes,
        image_size=scale.model.image_size,
        difficulty=scale.difficulty,
    )
    dataset = make_synthetic(spec, scale.num_requests, f"traffic-{scenario}")
    return [
        InferenceRequest(
            request_id=i,
            arrival_s=float(arrivals[i]),
            image=dataset.images[i],
            label=int(dataset.labels[i]),
        )
        for i in range(scale.num_requests)
    ]


# ----------------------------------------------------------------------
# Simulation loop
# ----------------------------------------------------------------------
def simulate(
    engine: InferenceEngine, requests: Sequence[InferenceRequest]
) -> float:
    """Drive the engine through the request stream on a virtual clock.

    A single engine is a one-replica fleet: the engine is wrapped in a
    :class:`~repro.serve.cluster.ReplicaFleet` (sharing its tracer) and
    driven by :func:`~repro.serve.cluster.simulate_fleet`, the one
    discrete-event loop.  Returns the virtual completion time of the
    last batch.
    """
    # Attributes of the cluster module, looked up per call: a wrapper
    # installed on cluster.simulate_fleet (perfbench's span timer) also
    # sees the single-engine runs.
    fleet = cluster.ReplicaFleet(lambda index: engine, tracer=engine.tracer)
    return cluster.simulate_fleet(fleet, requests)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
@dataclass
class ServeReport:
    """Everything ``serve-sim`` prints for one (scenario, policy) run."""

    scenario: str
    policy: str
    scale: str
    num_requests: int
    duration_s: float
    throughput_rps: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_mean_s: float
    latency_max_s: float
    slo_s: float
    slo_violations: int
    occupancy: Dict[str, int] = field(default_factory=dict)
    batches: int = 0
    mean_batch_size: float = 0.0
    switches: int = 0
    accuracy: Optional[float] = None
    accuracy_per_bit: Dict[str, Optional[float]] = field(default_factory=dict)
    energy_pj: float = 0.0
    energy_per_request_pj: Optional[float] = None

    def to_json_dict(self) -> Dict:
        from dataclasses import asdict

        return asdict(self)


def build_report(
    scenario: str,
    policy: str,
    scale: ServeScale,
    engine: InferenceEngine,
    end_s: float,
    slo_s: float,
) -> ServeReport:
    stats = engine.stats
    return ServeReport(
        scenario=scenario,
        policy=policy,
        scale=scale.name,
        **merge_engine_stats([stats], end_s, slo_s),
        accuracy_per_bit={
            bits_label(b): (
                stats.correct_per_bit[b] / stats.labelled_per_bit[b]
                if stats.labelled_per_bit[b]
                else None
            )
            for b in stats.bit_widths
        },
    )


def format_reports(reports: Sequence[ServeReport]) -> str:
    """Aligned comparison table plus per-policy occupancy histograms."""
    if not reports:
        return "(no reports)"
    first = reports[0]
    lines = cluster.policy_table(
        f"serve-sim scenario={first.scenario} scale={first.scale} "
        f"slo={first.slo_s * 1e3:.3f}ms",
        reports,
    )
    lines.append("")
    lines.append("per-bit occupancy (requests served at each bit-width):")
    for r in reports:
        occ = "  ".join(f"{k}:{v}" for k, v in r.occupancy.items())
        lines.append(f"  {r.policy:<8} {occ}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# End-to-end entry point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimFixture:
    """Everything a simulation run shares across policies."""

    sp_net: object
    scale: ServeScale          # its ``model`` is the served model's config
    latency_model: BitLatencyModel
    slo_s: float
    requests: tuple


def prepare_simulation(
    scenario: str,
    scale="smoke",
    sp_net=None,
    config: Optional[SPNetConfig] = None,
    latency_model: Optional[BitLatencyModel] = None,
) -> SimFixture:
    """Build (or adopt) the model, price it, and generate the traffic.

    The single setup path shared by :func:`run_serve_sim` and the
    pipeline ``serve`` stage.  The scale's ``model`` is built unless a
    ``config`` replaces it; an existing ``sp_net`` requires its
    ``config`` alongside.  Either way the fixture's scale holds the
    served model's config, so the traffic and the latency oracle match
    it.  Pass ``latency_model`` to price the engine from an existing
    source (e.g. a pipeline deploy artifact) instead of running the
    cost-model search here.
    """
    cfg = get_serve_scale(scale)
    lookup("scenarios", scenario)  # fail before the model is built
    if config is not None:
        cfg = replace(cfg, model=config)
    elif sp_net is not None:
        raise ValueError(
            "pass the model's SPNetConfig along with sp_net so the "
            "traffic matches its input shape and class count"
        )
    if sp_net is None:
        sp_net = build_sp_net(cfg.model)
    if latency_model is None:
        latency_model = BitLatencyModel.from_cost_model(
            sp_net, cfg.model.image_size, generations=cfg.mapper_generations
        )
    slo_s = cfg.slo_batches * latency_model.batch_latency_s(
        sp_net.highest, cfg.max_batch
    )
    requests = tuple(
        generate_requests(scenario, cfg, latency_model, sp_net.highest)
    )
    return SimFixture(
        sp_net=sp_net, scale=cfg,
        latency_model=latency_model, slo_s=slo_s, requests=requests,
    )


def make_engine(
    fixture: SimFixture, policy: str, tracer=NULL_TRACER
) -> InferenceEngine:
    """Fresh engine + controller for one policy over a prepared fixture."""
    from .checkpoint import build_engine

    return build_engine(
        fixture.sp_net,
        policy,
        fixture.latency_model,
        max_batch=fixture.scale.max_batch,
        slo_s=fixture.slo_s,
        tracer=tracer,
    )


def run_serve_sim(
    scenario: str = "bursty",
    policy: str = "all",
    scale="smoke",
    seed: int = 0,
    sp_net=None,
    config: Optional[SPNetConfig] = None,
    fixture: Optional[SimFixture] = None,
    tracer=NULL_TRACER,
) -> List[ServeReport]:
    """Build model + latency table once, then simulate each policy.

    Every policy sees the identical request stream (same arrivals, same
    images), so the reports are directly comparable.  Pass ``sp_net`` +
    ``config`` to serve an existing (e.g. checkpoint-loaded) model
    instead of a freshly initialised one, or a prepared ``fixture`` to
    skip setup entirely (the caller is then responsible for having
    built it under ``seed``).
    """
    rng_mod.set_seed(seed)
    if fixture is None:
        fixture = prepare_simulation(
            scenario, scale, sp_net=sp_net, config=config
        )
    policies = choices("policies") if policy == "all" else (policy,)
    reports = []
    for name in policies:
        # Stamp policy identity so a shared trace stream stays
        # separable per policy; binding onto NULL_TRACER is a no-op.
        engine = make_engine(
            fixture, name, tracer=tracer.bind(scenario=scenario, policy=name)
        )
        end_s = simulate(engine, fixture.requests)
        reports.append(
            build_report(
                scenario, name, fixture.scale, engine, end_s, fixture.slo_s
            )
        )
    return reports
