"""Replica-fleet serving: N engine replicas behind a router.

One :class:`~repro.serve.engine.InferenceEngine` is a single accelerator
worth of serving capacity.  This module scales that to a *fleet*: N
engine replicas — each owning a private
:class:`~repro.quant.SwitchablePrecisionNetwork` materialized from one
checkpoint — behind a pluggable :class:`~repro.serve.routing.Router`.
Every replica is built up front and serves for the whole run.

Request path::

    arrivals ──▶ Router (round_robin | least_queue | latency_aware)
                   │ picks a replica
                   ▼
              replica queue ──▶ micro-batch dispatch ──▶ switched forward
              (per-replica        (per-replica             at the replica's
               FIFO)               PrecisionController)    chosen bits

Routing and dispatch order are a deterministic function of the request
stream and the fleet configuration, so a fleet simulation is
bit-identical across runs and machines.  :func:`simulate_fleet` is the
serving layer's one discrete-event loop: the single-engine
:func:`~repro.serve.simulator.simulate` runs it over a one-replica
fleet.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace as dc_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import rng as rng_mod
from ..api.registry import choices
from ..obs.tracer import NULL_TRACER
from .engine import BatchRecord, BitLatencyModel, InferenceEngine, InferenceRequest
from .routing import ReplicaSnapshot, Router, RouterInputs, make_router
from .stats import merge_engine_stats, replica_rows

__all__ = [
    "ReplicaFleet",
    "FleetReport",
    "simulate_fleet",
    "make_fleet",
    "build_fleet_report",
    "run_fleet_sim",
    "format_fleet_reports",
]


class _Replica:
    """Fleet-internal bookkeeping for one engine replica."""

    __slots__ = ("engine", "free_at_s")

    def __init__(self, engine: InferenceEngine):
        self.engine = engine
        self.free_at_s = 0.0


class ReplicaFleet:
    """N inference-engine replicas behind a router.

    ``replica_factory(index)`` builds replica ``index``'s engine — each
    call must return an engine with a *private* network instance (see
    :func:`make_fleet` and
    :meth:`~repro.serve.registry.ModelRegistry.materialize`).  All
    ``replicas`` are materialized up front.
    """

    def __init__(
        self,
        replica_factory: Callable[[int], InferenceEngine],
        replicas: int = 1,
        router: Union[Router, str] = "least_queue",
        tracer=NULL_TRACER,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self._replicas: List[_Replica] = []
        for index in range(replicas):
            engine = replica_factory(index)
            # The fleet owns telemetry for its replicas: it stamps the
            # tracer and replica index onto every engine it builds.
            engine.replica_index = index
            engine.tracer = tracer
            self._replicas.append(_Replica(engine))
        self.router = make_router(router) if isinstance(router, str) else router
        self.router.attach(self)

    @property
    def size(self) -> int:
        """Number of replicas."""
        return len(self._replicas)

    def engines(self) -> Tuple[InferenceEngine, ...]:
        return tuple(r.engine for r in self._replicas)

    @property
    def latency_model(self) -> BitLatencyModel:
        return self._replicas[0].engine.latency_model

    def pending(self) -> int:
        """Requests queued on any replica."""
        return sum(r.engine.queue_depth for r in self._replicas)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest) -> int:
        """Route ``request`` to a replica; returns its index."""
        inputs = RouterInputs(
            now=request.arrival_s,
            replicas=tuple(
                ReplicaSnapshot(
                    index=idx,
                    queue_depth=r.engine.queue_depth,
                    max_batch=r.engine.max_batch,
                    busy_until_s=r.free_at_s,
                    current_bits=r.engine.current_bits,
                )
                for idx, r in enumerate(self._replicas)
            ),
            latency_model=self.latency_model,
        )
        idx = self.router.route(inputs)
        if not 0 <= idx < len(self._replicas):
            raise ValueError(
                f"router {self.router.name!r} chose position {idx} "
                f"outside the fleet of {len(self._replicas)}"
            )
        self._replicas[idx].engine.submit(request)
        return idx

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def step(self, now: float, flush: bool = False) -> List[BatchRecord]:
        """Dispatch every replica that can release a batch at ``now``."""
        records: List[BatchRecord] = []
        for replica in self._replicas:
            if replica.free_at_s > now:
                continue
            record = replica.engine.dispatch(now, flush=flush)
            if record is not None:
                replica.free_at_s = record.finish_s
                records.append(record)
        return records

    # ------------------------------------------------------------------
    # Event-time queries (for the discrete-event loop)
    # ------------------------------------------------------------------
    def next_event_s(self, flush: bool = False) -> Optional[float]:
        """Earliest time any replica could release a batch (None: idle)."""
        times: List[float] = []
        for replica in self._replicas:
            engine = replica.engine
            if engine.queue_depth == 0:
                continue
            if flush or engine.queue_depth >= engine.max_batch:
                # Releases as soon as the replica is free.
                times.append(replica.free_at_s)
            else:
                times.append(
                    max(replica.free_at_s, engine.next_release_s())
                )
        return min(times) if times else None

    def finish_time_s(self) -> float:
        """Virtual completion time of the last dispatched batch."""
        return max((r.free_at_s for r in self._replicas), default=0.0)


# ----------------------------------------------------------------------
# Simulation loop
# ----------------------------------------------------------------------
def simulate_fleet(
    fleet: ReplicaFleet,
    requests: Sequence[InferenceRequest],
) -> float:
    """Drive the fleet through the request stream on a virtual clock.

    The serving layer's one discrete-event loop (a single engine runs
    it as a one-replica fleet): each replica serves one micro-batch at a
    time; arrivals are routed the instant they land; the clock
    advances to whichever comes first — the next arrival or the earliest
    batch a replica could release.  Returns the virtual completion time
    of the last batch.
    """
    ordered = sorted(requests, key=lambda r: r.arrival_s)
    n = len(ordered)
    i = 0
    now = 0.0

    def admit(upto: float) -> None:
        nonlocal i
        while i < n and ordered[i].arrival_s <= upto:
            fleet.submit(ordered[i])
            i += 1

    while i < n or fleet.pending():
        if not fleet.pending():
            now = max(now, ordered[i].arrival_s)
        admit(now)
        if fleet.step(now, flush=(i >= n)):
            continue
        # Nothing released at `now`: advance to the next event.
        times = []
        t = fleet.next_event_s(flush=(i >= n))
        if t is not None:
            times.append(t)
        if i < n:
            times.append(ordered[i].arrival_s)
        if not times:
            break
        now = max(now, min(times))
    return fleet.finish_time_s()


# ----------------------------------------------------------------------
# Fleet construction over a prepared simulation fixture
# ----------------------------------------------------------------------
def make_fleet(
    fixture,
    policy: str,
    replicas: int = 1,
    router: Union[Router, str] = "least_queue",
    registry=None,
    model_name: Optional[str] = None,
    tracer=NULL_TRACER,
) -> ReplicaFleet:
    """Fleet over a :class:`~repro.serve.simulator.SimFixture`.

    Every replica owns a private network with identical weights: from
    ``registry.materialize(model_name)`` when a
    :class:`~repro.serve.registry.ModelRegistry` is given (the
    checkpoint-backed path the pipeline serve stage uses), otherwise a
    fresh build of the fixture's config loaded with the fixture model's
    state dict.  Each replica also gets its own controller instance —
    sharing one works post-statefulness-fix, but private controllers
    keep per-replica SLO feedback independent.
    """
    from .checkpoint import build_sp_net, materialize_engine
    from .simulator import make_engine  # shares the controller wiring

    if registry is not None and model_name is None:
        raise ValueError("model_name is required when a registry is given")

    def replica_factory(index: int) -> InferenceEngine:
        if registry is not None:
            return materialize_engine(
                registry.checkpoint_path(model_name),
                policy,
                fixture.latency_model,
                max_batch=fixture.scale.max_batch,
                slo_s=fixture.slo_s,
            )
        sp_net = build_sp_net(fixture.scale.model)
        sp_net.load_state_dict(fixture.sp_net.state_dict())
        return make_engine(dc_replace(fixture, sp_net=sp_net), policy)

    return ReplicaFleet(
        replica_factory, replicas=replicas, router=router, tracer=tracer,
    )


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
@dataclass
class FleetReport:
    """Everything a fleet serve-sim reports for one (scenario, policy)."""

    scenario: str
    policy: str
    router: str
    scale: str
    replicas: int
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
    energy_pj: float = 0.0
    energy_per_request_pj: Optional[float] = None
    per_replica: List[Dict] = field(default_factory=list)

    def to_json_dict(self) -> Dict:
        return asdict(self)


def build_fleet_report(
    scenario: str,
    policy: str,
    scale,
    fleet: ReplicaFleet,
    end_s: float,
    slo_s: float,
) -> FleetReport:
    """Merge per-replica engine stats into one fleet-level report."""
    stats = [e.stats for e in fleet.engines()]
    return FleetReport(
        scenario=scenario,
        policy=policy,
        router=fleet.router.name,
        scale=scale.name,
        replicas=fleet.size,
        **merge_engine_stats(stats, end_s, slo_s),
        per_replica=replica_rows(stats, end_s),
    )


def policy_table(title: str, reports: Sequence) -> List[str]:
    """Title, header and one row per policy: the block both serve-sim
    tables (single-engine and fleet) open with."""
    header = (
        f"{'policy':<8} {'reqs':>5} {'thru(r/s)':>10} {'p50(ms)':>8} "
        f"{'p95(ms)':>8} {'p99(ms)':>8} {'slo-viol':>8} {'batches':>7} "
        f"{'avg-b':>5} {'switch':>6} {'acc':>6} {'uJ/req':>8}"
    )
    lines = [title, header, "-" * len(header)]
    for r in reports:
        acc = f"{r.accuracy:.3f}" if r.accuracy is not None else "n/a"
        energy = (
            f"{r.energy_per_request_pj / 1e6:.3f}"
            if r.energy_per_request_pj is not None else "n/a"
        )
        lines.append(
            f"{r.policy:<8} {r.num_requests:>5} {r.throughput_rps:>10.1f} "
            f"{r.latency_p50_s * 1e3:>8.3f} {r.latency_p95_s * 1e3:>8.3f} "
            f"{r.latency_p99_s * 1e3:>8.3f} {r.slo_violations:>8} "
            f"{r.batches:>7} {r.mean_batch_size:>5.1f} {r.switches:>6} "
            f"{acc:>6} {energy:>8}"
        )
    return lines


def format_fleet_reports(reports: Sequence[FleetReport]) -> str:
    """Comparison table + per-replica occupancy."""
    if not reports:
        return "(no reports)"
    first = reports[0]
    lines = policy_table(
        f"serve-sim fleet scenario={first.scenario} scale={first.scale} "
        f"router={first.router} replicas={first.replicas} "
        f"slo={first.slo_s * 1e3:.3f}ms",
        reports,
    )
    lines.append("")
    lines.append("per-replica occupancy (requests served at each bit-width):")
    for r in reports:
        for rep in r.per_replica:
            occ = "  ".join(f"{k}:{v}" for k, v in rep["occupancy"].items())
            lines.append(
                f"  {r.policy:<8} replica {rep['replica']} "
                f"[util {rep['utilization']:.2f}]  {occ}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# End-to-end entry point
# ----------------------------------------------------------------------
def run_fleet_sim(
    scenario: str = "bursty",
    policy: str = "slo",
    scale="smoke",
    seed: int = 0,
    replicas: int = 1,
    router: str = "least_queue",
    sp_net=None,
    config=None,
    latency_model=None,
    registry=None,
    model_name: Optional[str] = None,
    fixture=None,
    tracer=NULL_TRACER,
) -> List[FleetReport]:
    """Build the model + traffic once, then fleet-simulate each policy.

    The fleet entry point beside
    :func:`~repro.serve.simulator.run_serve_sim`: both drive
    :func:`simulate_fleet` over the same fixture setup (same arrivals,
    same images, same latency oracle), so fleet and single-engine
    reports are directly comparable — a one-replica fleet serves
    exactly the single-engine schedule.  ``policy="all"`` runs every
    name in the ``policies`` table.  A prepared ``fixture`` skips setup
    (same contract as ``run_serve_sim``).
    """
    from .simulator import prepare_simulation

    rng_mod.set_seed(seed)
    if fixture is None:
        fixture = prepare_simulation(
            scenario, scale, sp_net=sp_net, config=config,
            latency_model=latency_model,
        )
    policies = choices("policies") if policy == "all" else (policy,)
    reports = []
    for name in policies:
        # Each policy's events carry its identity so a shared trace
        # stream stays separable; binding onto NULL_TRACER is a no-op.
        cell_tracer = tracer.bind(
            scenario=scenario, policy=name, router=router, replicas=replicas,
        )
        fleet = make_fleet(
            fixture, name, replicas=replicas, router=router,
            registry=registry, model_name=model_name,
            tracer=cell_tracer,
        )
        end_s = simulate_fleet(fleet, fixture.requests)
        reports.append(
            build_fleet_report(
                scenario, name, fixture.scale, fleet, end_s, fixture.slo_s
            )
        )
    return reports
