"""Serving runtime for switchable-precision networks (deployment layer).

What InstantNet trains, this package serves: checkpoint I/O and a named
model registry for persistence, a micro-batched
:class:`~repro.serve.engine.InferenceEngine` whose per-batch bit-width
is picked by a pluggable
:class:`~repro.serve.policies.PrecisionController`, a
:class:`~repro.serve.cluster.ReplicaFleet` that shards traffic across
engine replicas behind a pluggable
:class:`~repro.serve.routing.Router`, and a deterministic traffic
simulator (:mod:`repro.serve.simulator`, ``python -m repro serve-sim``)
that replays constant / bursty / diurnal arrival scenarios against an
engine or a whole fleet using the hardware cost model's latency
estimates as the service-time oracle.
"""

from .checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointVersionError,
    SPNetConfig,
    build_engine,
    build_sp_net,
    load_checkpoint,
    load_state_arrays,
    make_controller,
    materialize_engine,
    save_checkpoint,
)
from .engine import (
    BatchRecord,
    BitLatencyModel,
    EngineStats,
    InferenceEngine,
    InferenceRequest,
    InferenceResult,
    PolicyInputs,
)
from .policies import (
    LatencySLOPolicy,
    PrecisionController,
    QueueDepthPolicy,
    StaticPolicy,
    make_policy,
)
from .cluster import (
    FleetReport,
    ReplicaFleet,
    build_fleet_report,
    format_fleet_reports,
    make_fleet,
    run_fleet_sim,
    simulate_fleet,
)
from .registry import ModelRegistry
from .stats import LatencySummary, optional_percentile_s, percentile_s
from .routing import (
    LatencyAwareRouter,
    LeastQueueRouter,
    ReplicaSnapshot,
    RoundRobinRouter,
    Router,
    RouterInputs,
    make_router,
)
from .simulator import (
    SERVE_SCALES,
    ServeReport,
    ServeScale,
    SimFixture,
    format_reports,
    generate_requests,
    make_engine,
    prepare_simulation,
    run_serve_sim,
    simulate,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointVersionError",
    "SPNetConfig",
    "build_engine",
    "build_sp_net",
    "load_checkpoint",
    "load_state_arrays",
    "make_controller",
    "materialize_engine",
    "save_checkpoint",
    "BatchRecord",
    "BitLatencyModel",
    "EngineStats",
    "InferenceEngine",
    "InferenceRequest",
    "InferenceResult",
    "PolicyInputs",
    "LatencySLOPolicy",
    "PrecisionController",
    "QueueDepthPolicy",
    "StaticPolicy",
    "make_policy",
    "ModelRegistry",
    "LatencySummary",
    "optional_percentile_s",
    "percentile_s",
    "FleetReport",
    "ReplicaFleet",
    "build_fleet_report",
    "format_fleet_reports",
    "make_fleet",
    "run_fleet_sim",
    "simulate_fleet",
    "LatencyAwareRouter",
    "LeastQueueRouter",
    "ReplicaSnapshot",
    "RoundRobinRouter",
    "Router",
    "RouterInputs",
    "make_router",
    "SERVE_SCALES",
    "ServeReport",
    "ServeScale",
    "SimFixture",
    "format_reports",
    "generate_requests",
    "make_engine",
    "prepare_simulation",
    "run_serve_sim",
    "simulate",
]
