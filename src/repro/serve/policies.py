"""Pluggable runtime precision policies.

A :class:`PrecisionController` decides, per dispatched micro-batch,
which candidate bit-width the switchable-precision network runs at.
This is InstantNet's deployment story made concrete: switching is free
(shared weights, per-bit BN already resident), so the controller can
re-decide on every batch.

Three built-in policies:

* :class:`StaticPolicy` — always the configured bit-width (the
  fixed-precision deployment every non-switchable baseline is stuck
  with);
* :class:`LatencySLOPolicy` — model-predictive: pick the HIGHEST
  precision whose predicted completion latency (current wait + service
  of this batch + drain of the backlog behind it) stays inside the SLO,
  using the AutoMapper-priced :class:`~repro.serve.engine.BitLatencyModel`,
  with an observed-p95 feedback clamp;
* :class:`QueueDepthPolicy` — load-proportional: map the backlog depth
  onto the candidate ladder (empty queue -> highest precision, deep
  queue -> lowest).

All three are deterministic pure functions of the
:class:`~repro.serve.engine.PolicyInputs` snapshot, which keeps the
traffic simulator bit-exactly reproducible.

Policies are stateless with respect to the engine they serve: defaults
(e.g. "the highest candidate bit-width", "four full micro-batches of
backlog") resolve per decision from the :class:`PolicyInputs` snapshot,
never baked into the instance at :meth:`~PrecisionController.attach`
time.  One policy instance can therefore be shared across every replica
of a fleet, or re-attached to a different engine, without carrying
stale configuration over.
"""

from __future__ import annotations

import math
from typing import Optional

from ..api.registry import lookup
from ..quant.layers import BitSpec
from .engine import PolicyInputs

__all__ = [
    "PrecisionController",
    "StaticPolicy",
    "LatencySLOPolicy",
    "QueueDepthPolicy",
    "make_policy",
]


class PrecisionController:
    """Interface: pick a bit-width for each dispatched micro-batch.

    ``attach`` is called by every engine that adopts the policy; it may
    validate the policy's configuration against the engine but MUST NOT
    bake engine-derived state into the instance — an instance can be
    attached to many engines (fleet replicas) and each decision sees the
    dispatching engine's own :class:`PolicyInputs`.  Re-attaching simply
    re-validates against the new engine.
    """

    name = "base"

    def attach(self, engine) -> None:
        """Validate against ``engine``; default keeps a back-reference.

        ``self.engine`` always points at the most recently attached
        engine (a debugging convenience only — decisions never read it).
        """
        self.engine = engine

    def choose_bits(self, inputs: PolicyInputs) -> BitSpec:
        raise NotImplementedError


class StaticPolicy(PrecisionController):
    """Always serve at one fixed bit-width (default: the highest).

    ``bits=None`` means "the highest candidate of whichever engine
    dispatches" — resolved per decision from the inputs snapshot, so a
    default-constructed instance shared across replicas (or re-attached
    to an engine with a different candidate set) never serves a stale
    bit-width.
    """

    name = "static"

    def __init__(self, bits: Optional[BitSpec] = None):
        self.bits = bits

    def attach(self, engine) -> None:
        super().attach(engine)
        if (
            self.bits is not None
            and self.bits not in engine.sp_net.bit_widths
        ):
            raise ValueError(
                f"static bits {self.bits} not in candidate set "
                f"{engine.sp_net.bit_widths}"
            )

    def choose_bits(self, inputs: PolicyInputs) -> BitSpec:
        if self.bits is None:
            # bit_widths arrives sorted ascending (the engine passes
            # SwitchablePrecisionNetwork.bit_widths), so the last entry
            # is the highest precision of the dispatching engine.
            return inputs.bit_widths[-1]
        if self.bits not in inputs.bit_widths:
            raise ValueError(
                f"static bits {self.bits} not in candidate set "
                f"{inputs.bit_widths}"
            )
        return self.bits


class LatencySLOPolicy(PrecisionController):
    """Keep predicted tail latency inside an SLO, as precisely as possible.

    For every candidate (highest precision first) the policy predicts the
    completion latency of the LAST request affected by this decision: the
    oldest queued request has already waited ``oldest_wait_s``, this
    batch costs ``batch_latency(bits, batch)``, and the backlog behind it
    needs ``ceil(queue_depth / max_batch)`` more batches at the same
    precision.  The first candidate whose prediction fits
    ``slo_s * safety`` wins; if none fits, the fastest bit-width is used.

    The prediction reuses the hardware cost model's latency estimates
    (:class:`~repro.serve.engine.BitLatencyModel`), so the policy and the
    AutoMapper experiments price precision identically.  An observed-p95
    clamp adds feedback: while the measured window p95 exceeds the SLO,
    the policy refuses to serve above the precision it last found
    sustainable.
    """

    name = "slo"

    def __init__(self, slo_s: float, safety: float = 0.9):
        if slo_s <= 0:
            raise ValueError("slo_s must be positive")
        if not 0 < safety <= 1:
            raise ValueError("safety must be in (0, 1]")
        self.slo_s = float(slo_s)
        self.safety = float(safety)

    def _predicted_latency_s(self, inputs: PolicyInputs, bits: BitSpec) -> float:
        model = inputs.latency_model
        batch_s = model.batch_latency_s(bits, inputs.batch_size)
        backlog_batches = math.ceil(inputs.queue_depth / inputs.max_batch)
        backlog_s = backlog_batches * model.batch_latency_s(
            bits, inputs.max_batch
        )
        return inputs.oldest_wait_s + batch_s + backlog_s

    def choose_bits(self, inputs: PolicyInputs) -> BitSpec:
        budget = self.slo_s * self.safety
        ladder = sorted(
            inputs.bit_widths,
            key=lambda b: inputs.latency_model.per_image_s[b],
        )  # fastest (lowest precision) first
        allowed = list(reversed(ladder))  # try highest precision first
        over_slo = (
            inputs.recent_p95_s is not None
            and inputs.recent_p95_s > self.slo_s
        )
        if over_slo:
            # Feedback clamp: the measured window p95 already violates the
            # SLO, so the analytic model is being optimistic — only
            # precisions strictly faster than the current one are eligible
            # (at the bottom rung: stay there) until the window recovers.
            if inputs.current_bits in ladder:
                cur = ladder.index(inputs.current_bits)
                allowed = list(reversed(ladder[:max(cur, 1)]))
            else:
                # current_bits is not in this engine's candidate ladder
                # (policy reused across checkpoints with different bit
                # sets): there is no "step below current", so fall back
                # to the fastest rung instead of silently ignoring the
                # clamp and serving above the SLO.
                allowed = [ladder[0]]
        for bits in allowed:
            if self._predicted_latency_s(inputs, bits) <= budget:
                return bits
        return ladder[0]


class QueueDepthPolicy(PrecisionController):
    """Map backlog depth linearly onto the candidate precision ladder.

    ``depth <= low`` serves at the highest precision, ``depth >= high``
    at the lowest, with evenly spaced rungs in between.  ``high``
    defaults to four full micro-batches of backlog, resolved per
    decision from the dispatching engine's ``max_batch`` (never baked
    in at attach time, so the instance can serve engines with different
    batch limits).
    """

    name = "queue"

    def __init__(self, low: int = 0, high: Optional[int] = None):
        if low < 0:
            raise ValueError("low must be >= 0")
        if high is not None and high <= low:
            raise ValueError("high must be > low")
        self.low = int(low)
        self.high = high

    def saturation_depth(self, max_batch: int) -> int:
        """The backlog depth mapped to the lowest precision."""
        if self.high is not None:
            return self.high
        return self.low + 4 * max_batch

    def choose_bits(self, inputs: PolicyInputs) -> BitSpec:
        ladder = sorted(
            inputs.bit_widths,
            key=lambda b: inputs.latency_model.per_image_s[b],
        )  # fastest (lowest precision) first
        depth = inputs.queue_depth
        high = self.saturation_depth(inputs.max_batch)
        if depth <= self.low:
            return ladder[-1]
        if depth >= high:
            return ladder[0]
        span = high - self.low
        # Fraction of the way to saturation -> rung from the top.
        frac = (depth - self.low) / span
        rung = int(frac * (len(ladder) - 1) + 0.5)
        return ladder[len(ladder) - 1 - rung]


def make_policy(name: str, **kwargs) -> PrecisionController:
    """Instantiate a policy by name (``static|slo|queue``)."""
    return lookup("policies", name)(**kwargs)
