"""Pluggable request routers for the replica fleet.

A :class:`Router` decides, per arriving request, which replica's
queue the request joins.  Routers are named in the ``routers`` table
of :mod:`repro.api.registry` (exactly like precision policies under
``policies``), which is where the CLI, ``ServeConfig`` and the pipeline
pick them up by name.

Three built-in routers:

* :class:`RoundRobinRouter` — cycle through the replicas; the
  classic load balancer baseline, oblivious to queue state;
* :class:`LeastQueueRouter` — join the shortest queue (ties broken by
  replica index), the standard join-shortest-queue heuristic;
* :class:`LatencyAwareRouter` — predict each replica's completion time
  for the new request using the AutoMapper-priced
  :class:`~repro.serve.engine.BitLatencyModel` (remaining busy time +
  backlog drain at the replica's current bit-width) and join the
  replica that finishes first.

Every router is a deterministic function of the
:class:`ReplicaSnapshot` tuple it is handed, which keeps fleet
simulations bit-exactly reproducible.  Like the precision policies,
routers never bake fleet-derived configuration into the instance at
:meth:`~Router.attach` time; the only instance state is run state (the
round-robin cursor), which ``attach`` resets so a re-attached router
starts clean instead of continuing a stale rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..api.registry import lookup
from ..quant.layers import BitSpec
from .engine import BitLatencyModel

__all__ = [
    "ReplicaSnapshot",
    "RouterInputs",
    "Router",
    "RoundRobinRouter",
    "LeastQueueRouter",
    "LatencyAwareRouter",
    "make_router",
]


@dataclass(frozen=True)
class ReplicaSnapshot:
    """One replica's queue state at routing time.

    ``busy_until_s`` is the virtual time the replica finishes its
    in-flight batch (<= now when idle); ``current_bits`` is the
    precision its last batch ran at (its controller may switch on the
    next dispatch, so this is a hint, not a contract).
    """

    index: int                 # fleet-wide replica index (stable)
    queue_depth: int
    max_batch: int
    busy_until_s: float
    current_bits: BitSpec


@dataclass(frozen=True)
class RouterInputs:
    """Everything a router decides from: every replica, in index order."""

    now: float
    replicas: Tuple[ReplicaSnapshot, ...]
    latency_model: BitLatencyModel


class Router:
    """Interface: pick the replica an arriving request joins.

    ``route`` returns a position into ``inputs.replicas``, which is
    also the chosen replica's fleet index.  ``attach`` is called by
    the fleet that adopts the router; it must reset any run state so a
    re-attached instance starts clean, and must not bake fleet-derived
    configuration into the instance.
    """

    name = "base"

    def attach(self, fleet) -> None:
        """Reset run state for ``fleet``; default keeps a back-reference."""
        self.fleet = fleet

    def route(self, inputs: RouterInputs) -> int:
        raise NotImplementedError


class RoundRobinRouter(Router):
    """Cycle through the replicas in index order."""

    name = "round_robin"

    def __init__(self):
        self._cursor = 0

    def attach(self, fleet) -> None:
        super().attach(fleet)
        self._cursor = 0

    def route(self, inputs: RouterInputs) -> int:
        position = self._cursor % len(inputs.replicas)
        self._cursor = (self._cursor + 1) % len(inputs.replicas)
        return position


class LeastQueueRouter(Router):
    """Join the shortest queue; ties break toward the lowest index."""

    name = "least_queue"

    def route(self, inputs: RouterInputs) -> int:
        return min(
            range(len(inputs.replicas)),
            key=lambda p: (
                inputs.replicas[p].queue_depth,
                inputs.replicas[p].index,
            ),
        )


class LatencyAwareRouter(Router):
    """Join the replica predicted to finish the new request first.

    The prediction reuses the cost-model latency table: a replica must
    first finish its in-flight batch (``busy_until_s``), then drain
    ``ceil((queue_depth + 1) / max_batch)`` full batches at its current
    bit-width before the new request completes.  Pricing at the
    replica's *current* bits (rather than a fixed precision) makes the
    router prefer replicas that have already shed precision under load
    — they drain faster — which is exactly the signal a
    switchable-precision fleet has that a fixed-precision one lacks.
    """

    name = "latency_aware"

    def _predicted_finish_s(
        self, inputs: RouterInputs, snapshot: ReplicaSnapshot
    ) -> float:
        model = inputs.latency_model
        backlog = snapshot.queue_depth + 1
        batches = math.ceil(backlog / snapshot.max_batch)
        busy_s = max(snapshot.busy_until_s - inputs.now, 0.0)
        return busy_s + batches * model.batch_latency_s(
            snapshot.current_bits, snapshot.max_batch
        )

    def route(self, inputs: RouterInputs) -> int:
        return min(
            range(len(inputs.replicas)),
            key=lambda p: (
                self._predicted_finish_s(inputs, inputs.replicas[p]),
                inputs.replicas[p].index,
            ),
        )


def make_router(name: str, **kwargs) -> Router:
    """Instantiate a router by name (``round_robin|least_queue|...``)."""
    return lookup("routers", name)(**kwargs)
