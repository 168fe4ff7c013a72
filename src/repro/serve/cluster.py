"""Replica-fleet serving: sharded engines behind a router + autoscaler.

One :class:`~repro.serve.engine.InferenceEngine` is a single accelerator
worth of serving capacity.  This module scales that to a *fleet*: N
engine replicas — each owning a private
:class:`~repro.quant.SwitchablePrecisionNetwork` materialized from one
checkpoint — behind a pluggable :class:`~repro.serve.routing.Router`,
with a deterministic :class:`Autoscaler` that adds and drains replicas
from queue-depth / observed-p95 signals on the virtual clock.

Request path::

    arrivals ──▶ Router (round_robin | least_queue | latency_aware)
                   │ picks an ACTIVE replica
                   ▼
              replica queue ──▶ micro-batch dispatch ──▶ switched forward
              (per-replica        (per-replica             at the replica's
               FIFO)               PrecisionController)    chosen bits
                   ▲
              Autoscaler: queue pressure / p95 vs SLO ──▶ scale events
              (activate warm replica, materialize new one, or drain)

Replica lifecycle: ``active`` (routable) -> ``draining`` (no new
requests; flushes its queue) -> ``stopped`` (empty and idle; can be
re-activated by a later scale-up without re-materializing).

Everything — routing, scaling, dispatch order — is a deterministic
function of the request stream and the fleet configuration, so a fleet
simulation is bit-identical across runs and machines.
:func:`simulate_fleet` is the serving layer's one discrete-event loop:
the single-engine :func:`~repro.serve.simulator.simulate` runs it over
a one-replica fleet.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field, replace as dc_replace
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .. import rng as rng_mod
from ..api.config import AutoscaleConfig
from ..api.registry import POLICIES
from ..obs.tracer import NULL_TRACER
from .engine import BatchRecord, BitLatencyModel, InferenceEngine, InferenceRequest
from .routing import ReplicaSnapshot, Router, RouterInputs, make_router
from .stats import merge_engine_stats, optional_percentile_s

__all__ = [
    "ScaleEvent",
    "Autoscaler",
    "ReplicaFleet",
    "FleetReport",
    "simulate_fleet",
    "make_fleet",
    "build_fleet_report",
    "run_fleet_sim",
    "format_fleet_reports",
]

# Replica lifecycle states.  FAILED is reachable only through fault
# injection (repro.workload.faults): the replica is unroutable and
# undispatchable until an explicit recovery, and — unlike DRAINING /
# STOPPED — is never re-activated by an autoscaler scale-up.
ACTIVE = "active"
DRAINING = "draining"
STOPPED = "stopped"
FAILED = "failed"


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler decision that changed the active replica count."""

    time_s: float
    action: str                # "scale_up" | "scale_down"
    from_replicas: int
    to_replicas: int
    reason: str

    def to_json_dict(self) -> Dict:
        return asdict(self)


class Autoscaler:
    """Deterministic replica-count controller on the virtual clock.

    Signals, evaluated at every fleet step:

    * **queue pressure** — total backlog across ACTIVE replicas,
      measured in full micro-batches per replica
      (``queued / (active * max_batch)``).  Pressure at or above
      ``up_pressure`` scales up; at or below ``down_pressure`` scales
      down.
    * **observed p95** — the fleet's sliding-window completed-request
      p95 versus the SLO: a violated tail also scales up, and blocks
      scale-down until it recovers.

    One scale event at a time, separated by a cooldown of
    ``cooldown_batches`` full-batch service times (resolved from the
    fleet's latency model per event — nothing fleet-derived is baked
    into the instance, mirroring the precision-policy contract), so the
    controller cannot flap faster than the system can respond.
    """

    def __init__(
        self, config: AutoscaleConfig, slo_s: Optional[float] = None
    ):
        self.config = config
        self.slo_s = slo_s
        self._cooldown_until_s = 0.0

    def attach(self, fleet) -> None:
        """Reset run state for ``fleet``; keeps a back-reference."""
        self.fleet = fleet
        self._cooldown_until_s = 0.0

    def evaluate(
        self, now: float, fleet: "ReplicaFleet"
    ) -> Optional[Tuple[str, str]]:
        """Propose ``(action, reason)`` or None; the fleet applies it."""
        if now < self._cooldown_until_s:
            return None
        cfg = self.config
        active = fleet.num_active
        pressure = fleet.queue_pressure()
        p95 = fleet.recent_p95_s()
        over_slo = (
            self.slo_s is not None and p95 is not None and p95 > self.slo_s
        )
        if active < cfg.max_replicas:
            if pressure >= cfg.up_pressure:
                return "scale_up", f"queue_pressure={pressure:.2f}"
            if over_slo:
                return "scale_up", f"p95={p95:.6f}s>slo={self.slo_s:.6f}s"
        if (
            active > cfg.min_replicas
            and pressure <= cfg.down_pressure
            and not over_slo
        ):
            return "scale_down", f"queue_pressure={pressure:.2f}"
        return None

    def arm_cooldown(self, now: float, fleet: "ReplicaFleet") -> None:
        """Start the post-event quiet period."""
        self._cooldown_until_s = (
            now + self.config.cooldown_batches * fleet.full_batch_service_s()
        )


class _Replica:
    """Fleet-internal bookkeeping for one engine replica."""

    __slots__ = ("engine", "state", "free_at_s")

    def __init__(self, engine: InferenceEngine):
        self.engine = engine
        self.state = ACTIVE
        self.free_at_s = 0.0


class ReplicaFleet:
    """N inference-engine replicas behind a router (+ optional autoscaler).

    ``replica_factory(index)`` builds replica ``index``'s engine — each
    call must return an engine with a *private* network instance (see
    :func:`make_fleet` and
    :meth:`~repro.serve.registry.ModelRegistry.materialize`).  Replicas
    are materialized for the initial count up front and lazily on
    scale-up beyond it; a drained replica is kept warm and re-activated
    before a new one is built.
    """

    def __init__(
        self,
        replica_factory: Callable[[int], InferenceEngine],
        replicas: int = 1,
        router: Union[Router, str] = "least_queue",
        autoscaler: Optional[Autoscaler] = None,
        stats_window: int = 128,
        tracer=NULL_TRACER,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replica_factory = replica_factory
        # The fleet owns telemetry for its replicas: _materialize stamps
        # the tracer and replica index onto every engine it builds.
        self.tracer = tracer
        self.autoscaler = autoscaler
        if autoscaler is not None:
            cfg = autoscaler.config
            if not cfg.min_replicas <= replicas <= cfg.max_replicas:
                raise ValueError(
                    f"initial replicas {replicas} outside autoscale range "
                    f"[{cfg.min_replicas}, {cfg.max_replicas}]"
                )
            self.max_replicas = cfg.max_replicas
        else:
            self.max_replicas = replicas
        self.initial_replicas = replicas
        self._replicas: List[_Replica] = []
        for _ in range(replicas):
            self._materialize()
        self.router = make_router(router) if isinstance(router, str) else router
        self.router.attach(self)
        if autoscaler is not None:
            autoscaler.attach(self)
        self.scale_events: List[ScaleEvent] = []
        self.fault_log: List[Dict] = []
        self._recent: Deque[float] = deque(maxlen=stats_window)

    # ------------------------------------------------------------------
    # Replica pool
    # ------------------------------------------------------------------
    def _materialize(self) -> _Replica:
        engine = self.replica_factory(len(self._replicas))
        engine.replica_index = len(self._replicas)
        engine.tracer = self.tracer
        replica = _Replica(engine)
        self._replicas.append(replica)
        return replica

    @property
    def size(self) -> int:
        """Materialized replicas (any state)."""
        return len(self._replicas)

    @property
    def num_active(self) -> int:
        return sum(1 for r in self._replicas if r.state == ACTIVE)

    def replica_states(self) -> Tuple[str, ...]:
        return tuple(r.state for r in self._replicas)

    def engines(self) -> Tuple[InferenceEngine, ...]:
        return tuple(r.engine for r in self._replicas)

    @property
    def latency_model(self) -> BitLatencyModel:
        return self._replicas[0].engine.latency_model

    @property
    def max_batch(self) -> int:
        return self._replicas[0].engine.max_batch

    def full_batch_service_s(self) -> float:
        """Service time of one full batch at the highest precision."""
        engine = self._replicas[0].engine
        return engine.latency_model.batch_latency_s(
            engine.sp_net.highest, engine.max_batch
        )

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Requests queued anywhere (including draining replicas)."""
        return sum(
            r.engine.queue_depth
            for r in self._replicas
            if r.state not in (STOPPED, FAILED)
        )

    def routable_queue_depth(self) -> int:
        """Requests queued on ACTIVE replicas (the routing backlog)."""
        return sum(
            r.engine.queue_depth
            for r in self._replicas
            if r.state == ACTIVE
        )

    def queue_pressure(self) -> float:
        """Routable backlog in full micro-batches per active replica."""
        active = self.num_active
        if not active:
            return 0.0
        return self.routable_queue_depth() / (active * self.max_batch)

    def recent_p95_s(self) -> Optional[float]:
        """Sliding-window p95 over fleet-wide completed latencies."""
        return optional_percentile_s(self._recent, 95)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest) -> int:
        """Route ``request`` to an active replica; returns its index."""
        routable = [
            (idx, r) for idx, r in enumerate(self._replicas)
            if r.state == ACTIVE
        ]
        if not routable:
            raise RuntimeError("fleet has no active replicas to route to")
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
                for idx, r in routable
            ),
            latency_model=self.latency_model,
        )
        position = self.router.route(inputs)
        if not 0 <= position < len(routable):
            raise ValueError(
                f"router {self.router.name!r} chose position {position} "
                f"outside the routable set of {len(routable)}"
            )
        idx, replica = routable[position]
        if self.tracer.enabled:
            self.tracer.emit(
                "route",
                request.arrival_s,
                request_id=request.request_id,
                replica=idx,
                active=len(routable),
            )
        replica.engine.submit(request)
        return idx

    # ------------------------------------------------------------------
    # Fault injection (driven by repro.workload.faults)
    # ------------------------------------------------------------------
    def fail_replica(self, index: int, now: float) -> bool:
        """Take replica ``index`` down; returns False if skipped.

        The replica's queued (not yet dispatched) requests are
        re-routed through the router onto the surviving active
        replicas, so an outage sheds load instead of stranding it.
        Results already produced by in-flight batches are kept — a
        batch that finished before the failure happened happened.  The
        last active replica can never be failed (the cluster analogue
        of a pod-disruption budget); such an event is skipped and the
        skip is recorded in :attr:`fault_log`.
        """
        replica = self._replicas[index]
        if replica.state == FAILED:
            return False
        if replica.state == ACTIVE and self.num_active <= 1:
            self.fault_log.append({
                "time_s": now, "kind": "replica_outage", "replica": index,
                "applied": False, "reason": "last active replica",
            })
            if self.tracer.enabled:
                self.tracer.emit(
                    "fault", now, fault_kind="replica_outage",
                    replica=index, applied=False,
                    reason="last active replica",
                )
            return False
        stranded = replica.engine.take_queue()
        replica.state = FAILED
        for request in stranded:
            self.submit(request)
        self.fault_log.append({
            "time_s": now, "kind": "replica_outage", "replica": index,
            "applied": True, "rerouted": len(stranded),
        })
        if self.tracer.enabled:
            self.tracer.emit(
                "fault", now, fault_kind="replica_outage",
                replica=index, applied=True, rerouted=len(stranded),
            )
        return True

    def recover_replica(self, index: int, now: float) -> bool:
        """Bring a FAILED replica back into the active set.

        ``service_scale`` is deliberately left untouched: the spike
        layer owns it, and spike/spike-end events are applied to every
        materialized replica (failed ones included), so a replica that
        recovers inside a spike window comes back correctly degraded.
        """
        replica = self._replicas[index]
        if replica.state != FAILED:
            return False
        replica.state = ACTIVE
        self.fault_log.append({
            "time_s": now, "kind": "replica_recovery", "replica": index,
            "applied": True,
        })
        if self.tracer.enabled:
            self.tracer.emit(
                "fault", now, fault_kind="replica_recovery",
                replica=index, applied=True,
            )
        return True

    def set_service_scale(
        self, factor: float, now: float, index: Optional[int] = None
    ) -> None:
        """Apply a transient service-time multiplier (latency spike).

        ``index=None`` hits every materialized replica; ``factor=1.0``
        ends the spike.
        """
        targets = (
            self._replicas if index is None else [self._replicas[index]]
        )
        for replica in targets:
            replica.engine.service_scale = factor
        self.fault_log.append({
            "time_s": now, "kind": "latency_spike", "factor": factor,
            "replica": index, "applied": True,
        })
        if self.tracer.enabled:
            self.tracer.emit(
                "fault", now, fault_kind="latency_spike",
                factor=factor, replica=index, applied=True,
            )

    # ------------------------------------------------------------------
    # Dispatch + scaling
    # ------------------------------------------------------------------
    def step(self, now: float, flush: bool = False) -> List[BatchRecord]:
        """Dispatch every replica that can release a batch at ``now``.

        Draining replicas always flush (no reason to wait for a fuller
        batch on a replica being retired) and stop once empty.  After
        dispatching, the autoscaler (if any) is evaluated once.
        """
        records: List[BatchRecord] = []
        for replica in self._replicas:
            if replica.state in (STOPPED, FAILED):
                continue
            if replica.free_at_s > now:
                continue
            record = replica.engine.dispatch(
                now, flush=flush or replica.state == DRAINING
            )
            if record is not None:
                replica.free_at_s = record.finish_s
                records.append(record)
                for result in record.results:
                    self._recent.append(result.latency_s)
            if replica.state == DRAINING and replica.engine.queue_depth == 0:
                replica.state = STOPPED
        if self.autoscaler is not None:
            self._autoscale(now)
        return records

    def _autoscale(self, now: float) -> None:
        decision = self.autoscaler.evaluate(now, self)
        if decision is None:
            return
        action, reason = decision
        before = self.num_active
        if action == "scale_up":
            self._scale_up()
        else:
            self._scale_down()
        after = self.num_active
        if after != before:
            self.scale_events.append(
                ScaleEvent(
                    time_s=now, action=action,
                    from_replicas=before, to_replicas=after, reason=reason,
                )
            )
            if self.tracer.enabled:
                self.tracer.emit(
                    "autoscale", now, action=action,
                    from_replicas=before, to_replicas=after, reason=reason,
                )
            self.autoscaler.arm_cooldown(now, self)

    def _scale_up(self) -> None:
        # Prefer re-activating a warm replica (draining first — it still
        # has work in flight — then stopped) over materializing a new one.
        for state in (DRAINING, STOPPED):
            for replica in self._replicas:
                if replica.state == state:
                    replica.state = ACTIVE
                    return
        if len(self._replicas) < self.max_replicas:
            self._materialize()

    def _scale_down(self) -> None:
        # Drain the highest-index active replica (deterministic choice).
        for replica in reversed(self._replicas):
            if replica.state == ACTIVE:
                replica.state = (
                    STOPPED if replica.engine.queue_depth == 0 else DRAINING
                )
                return

    # ------------------------------------------------------------------
    # Event-time queries (for the discrete-event loop)
    # ------------------------------------------------------------------
    def next_event_s(self, flush: bool = False) -> Optional[float]:
        """Earliest time any replica could release a batch (None: idle)."""
        times: List[float] = []
        for replica in self._replicas:
            if replica.state in (STOPPED, FAILED):
                continue
            engine = replica.engine
            if engine.queue_depth == 0:
                continue
            if (
                flush
                or replica.state == DRAINING
                or engine.queue_depth >= engine.max_batch
            ):
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
    faults=None,
) -> float:
    """Drive the fleet through the request stream on a virtual clock.

    The serving layer's one discrete-event loop (a single engine runs
    it as a one-replica fleet): each replica serves one micro-batch at a
    time; arrivals are routed the instant they land; the clock
    advances to whichever comes first — the next arrival or the earliest
    batch a replica could release.  Returns the virtual completion time
    of the last batch.

    ``faults`` is an optional
    :class:`~repro.workload.faults.FaultSchedule`: its due events
    (replica outages/recoveries, latency-spike windows) are applied as
    the clock reaches them, and upcoming fault times participate in the
    event-time advance so an injection lands at exactly its scheduled
    virtual instant.
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
        if faults is not None:
            faults.apply_due(now, fleet)
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
        if faults is not None:
            t = faults.next_time_s()
            if t is not None:
                times.append(t)
        if not times:
            break
        now = max(now, min(times))
    if faults is not None:
        # Apply any events scheduled inside the final drain window so
        # the log (and engine service scales) end in a clean state.
        faults.apply_due(fleet.finish_time_s(), fleet)
    return fleet.finish_time_s()


# ----------------------------------------------------------------------
# Fleet construction over a prepared simulation fixture
# ----------------------------------------------------------------------
def make_fleet(
    fixture,
    policy: str,
    replicas: int = 1,
    router: Union[Router, str] = "least_queue",
    autoscale: Optional[AutoscaleConfig] = None,
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
        sp_net = build_sp_net(fixture.config)
        sp_net.load_state_dict(fixture.sp_net.state_dict())
        return make_engine(dc_replace(fixture, sp_net=sp_net), policy)

    autoscaler = (
        Autoscaler(autoscale, slo_s=fixture.slo_s)
        if autoscale is not None else None
    )
    return ReplicaFleet(
        replica_factory,
        replicas=replicas,
        router=router,
        autoscaler=autoscaler,
        tracer=tracer,
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
    replicas: int                      # initial active replicas
    max_replicas: int
    autoscaled: bool
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
    scale_events: List[Dict] = field(default_factory=list)
    fault_events: List[Dict] = field(default_factory=list)

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
    merged = merge_engine_stats(
        [e.stats for e in fleet.engines()], end_s, slo_s,
        states=fleet.replica_states(),
    )
    return FleetReport(
        scenario=scenario,
        policy=policy,
        router=fleet.router.name,
        scale=scale.name,
        replicas=fleet.initial_replicas,
        max_replicas=fleet.max_replicas,
        autoscaled=fleet.autoscaler is not None,
        **merged,
        scale_events=[e.to_json_dict() for e in fleet.scale_events],
        fault_events=list(fleet.fault_log),
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
    """Comparison table + per-replica occupancy + scale-event log."""
    if not reports:
        return "(no reports)"
    first = reports[0]
    lines = policy_table(
        f"serve-sim fleet scenario={first.scenario} scale={first.scale} "
        f"router={first.router} replicas={first.replicas}"
        + (f"(max {first.max_replicas})" if first.autoscaled else "")
        + f" slo={first.slo_s * 1e3:.3f}ms",
        reports,
    )
    lines.append("")
    lines.append("per-replica occupancy (requests served at each bit-width):")
    for r in reports:
        for rep in r.per_replica:
            occ = "  ".join(f"{k}:{v}" for k, v in rep["occupancy"].items())
            lines.append(
                f"  {r.policy:<8} replica {rep['replica']} "
                f"[{rep['state']:<8} util {rep['utilization']:.2f}]  {occ}"
            )
    events = [(r.policy, e) for r in reports for e in r.scale_events]
    if events:
        lines.append("")
        lines.append("autoscaler events:")
        for policy, event in events:
            lines.append(
                f"  {policy:<8} t={event['time_s'] * 1e3:9.3f}ms "
                f"{event['action']:<10} {event['from_replicas']}->"
                f"{event['to_replicas']}  ({event['reason']})"
            )
    fault_events = [(r.policy, e) for r in reports for e in r.fault_events]
    if fault_events:
        lines.append("")
        lines.append("injected faults:")
        for policy, event in fault_events:
            detail = ", ".join(
                f"{k}={v}" for k, v in event.items()
                if k not in ("time_s", "kind")
            )
            lines.append(
                f"  {policy:<8} t={event['time_s'] * 1e3:9.3f}ms "
                f"{event['kind']:<16} {detail}"
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
    autoscale: Optional[AutoscaleConfig] = None,
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
    exactly the single-engine schedule.  ``policy="all"`` expands from
    the live policy registry.  A prepared ``fixture`` skips setup (same
    contract as ``run_serve_sim``).
    """
    from .simulator import prepare_simulation

    rng_mod.set_seed(seed)
    if fixture is None:
        fixture = prepare_simulation(
            scenario, scale, sp_net=sp_net, config=config,
            latency_model=latency_model,
        )
    policies = list(POLICIES.names()) if policy == "all" else [policy]
    reports = []
    for name in policies:
        # Each policy's events carry its identity so a shared trace
        # stream stays separable; binding onto NULL_TRACER is a no-op.
        cell_tracer = tracer.bind(
            scenario=scenario, policy=name, router=router, replicas=replicas,
        )
        fleet = make_fleet(
            fixture, name, replicas=replicas, router=router,
            autoscale=autoscale, registry=registry, model_name=model_name,
            tracer=cell_tracer,
        )
        end_s = simulate_fleet(fleet, fixture.requests)
        reports.append(
            build_fleet_report(
                scenario, name, fixture.scale, fleet, end_s, fixture.slo_s
            )
        )
    return reports
