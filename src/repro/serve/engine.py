"""Micro-batched inference engine with runtime precision switching.

The engine is the request path of the serving layer:

* requests enter a FIFO queue via :meth:`InferenceEngine.submit`;
* :meth:`InferenceEngine.dispatch` coalesces pending requests into one
  micro-batch — up to ``max_batch`` requests, released early only when
  the batch is full, the oldest request has waited ``batch_timeout_s``,
  or the caller flushes — and runs ONE switched forward pass for the
  whole batch at the bit-width its :class:`PrecisionController` picks;
* per-batch service time comes from a :class:`BitLatencyModel` priced by
  the AutoMapper + analytical hardware cost model, so the engine's
  notion of "how long did this batch take on the accelerator" is the
  same latency estimate every other hardware experiment in the repo
  uses, and is deterministic (simulations are exactly reproducible).

The engine owns no clock: the traffic simulator passes its virtual
``now`` to every :meth:`~InferenceEngine.dispatch` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from collections import deque

import numpy as np

from ..obs.tracer import NULL_TRACER
from ..quant import SwitchablePrecisionNetwork
from ..quant.layers import BitSpec
from ..tensor import Tensor, no_grad
from .stats import optional_percentile_s

__all__ = [
    "InferenceRequest",
    "InferenceResult",
    "BatchRecord",
    "BitLatencyModel",
    "PolicyInputs",
    "EngineStats",
    "InferenceEngine",
]


@dataclass(frozen=True)
class InferenceRequest:
    """One classification request entering the serving queue."""

    request_id: int
    arrival_s: float
    image: np.ndarray                 # (C, H, W) float32
    label: Optional[int] = None       # ground truth, for the accuracy proxy


@dataclass(frozen=True)
class InferenceResult:
    """Completed request: prediction plus its latency decomposition."""

    request_id: int
    arrival_s: float
    start_s: float
    finish_s: float
    bits: BitSpec
    prediction: int
    label: Optional[int] = None

    @property
    def latency_s(self) -> float:
        """Queue wait + service time (what the client experiences)."""
        return self.finish_s - self.arrival_s

    @property
    def correct(self) -> Optional[bool]:
        if self.label is None:
            return None
        return self.prediction == self.label


@dataclass(frozen=True)
class BatchRecord:
    """One dispatched micro-batch.

    ``energy_pj`` is the accelerator energy the cost model charges for
    the batch at its served bit-width (``None`` when the engine's
    latency model carries no energy estimates — e.g. hand-built models
    in tests).
    """

    bits: BitSpec
    start_s: float
    finish_s: float
    results: Tuple[InferenceResult, ...]
    energy_pj: Optional[float] = None

    @property
    def size(self) -> int:
        return len(self.results)

    @property
    def service_s(self) -> float:
        return self.finish_s - self.start_s


class BitLatencyModel:
    """Per-bit-width accelerator latency estimates for one model.

    ``per_image_s[bits]`` is the cost-model latency of a single-image
    forward at that precision; a micro-batch of ``n`` costs
    ``batch_overhead_s + n * per_image_s[bits]`` (the overhead is the
    per-dispatch fixed cost batching amortises: weight/bit-mode switch,
    DMA setup, host round-trip).

    ``per_image_energy_pj[bits]`` — optional — is the accelerator
    energy of the same mapping, so serving reports can price
    energy-per-request at whatever bit-width each batch actually ran
    at.  :meth:`from_cost_model` fills it from the AutoMapper result
    alongside the latency; hand-built models may omit it, in which case
    :meth:`batch_energy_pj` returns ``None`` and reports show no energy
    column.
    """

    def __init__(
        self,
        per_image_s: Dict[BitSpec, float],
        batch_overhead_s: Optional[float] = None,
        per_image_energy_pj: Optional[Dict[BitSpec, float]] = None,
    ):
        if not per_image_s:
            raise ValueError("per_image_s must be non-empty")
        self.per_image_s = dict(per_image_s)
        if batch_overhead_s is None:
            # Default: one image's worth of highest-precision compute —
            # enough that single-request dispatches are visibly wasteful.
            batch_overhead_s = max(self.per_image_s.values())
        self.batch_overhead_s = float(batch_overhead_s)
        self.per_image_energy_pj = dict(per_image_energy_pj or {})

    @classmethod
    def from_cost_model(
        cls,
        sp_net: SwitchablePrecisionNetwork,
        image_size: int,
        generations: int,
    ) -> "BitLatencyModel":
        """Price every candidate bit-width with the AutoMapper.

        One latency-metric dataflow search per precision on the
        Eyeriss-like ASIC, warm-started across bit-widths — the same
        deploy step behind Figs. 6-7 and the pipeline.
        """
        from ..core.automapper import AutoMapper, AutoMapperConfig, map_bit_widths
        from ..hardware import eyeriss_like_asic

        mapper = AutoMapper(
            eyeriss_like_asic(),
            AutoMapperConfig(
                generations=generations, metric="latency",
                seed_key="serve-latency", warm_start=True,
            ),
        )
        mapped = map_bit_widths(
            mapper, sp_net.model, image_size, sp_net.bit_widths
        )
        return cls(
            {bits: result.latency_s for bits, result in mapped.items()},
            per_image_energy_pj={
                bits: result.energy_pj for bits, result in mapped.items()
            },
        )

    def batch_latency_s(self, bits: BitSpec, batch_size: int) -> float:
        if bits not in self.per_image_s:
            raise KeyError(f"no latency estimate for bit-width {bits}")
        return self.batch_overhead_s + batch_size * self.per_image_s[bits]

    def batch_energy_pj(
        self, bits: BitSpec, batch_size: int
    ) -> Optional[float]:
        """Cost-model energy of a batch at ``bits``; None if unpriced."""
        per_image = self.per_image_energy_pj.get(bits)
        if per_image is None:
            return None
        return batch_size * per_image

    def fastest_bits(self) -> BitSpec:
        return min(self.per_image_s, key=self.per_image_s.get)


@dataclass(frozen=True)
class PolicyInputs:
    """Snapshot a :class:`PrecisionController` decides from.

    ``queue_depth`` counts requests still waiting AFTER the batch being
    dispatched was taken, i.e. the backlog the chosen bit-width must help
    drain.  ``recent_p95_s`` is the p95 over the engine's sliding window
    of completed-request latencies (None until anything completed).
    """

    now: float
    batch_size: int
    queue_depth: int
    oldest_wait_s: float
    recent_p95_s: Optional[float]
    current_bits: BitSpec
    bit_widths: Tuple[BitSpec, ...]
    max_batch: int
    latency_model: BitLatencyModel


class EngineStats:
    """Running aggregates: occupancy histogram, latencies, accuracy."""

    def __init__(self, bit_widths: Sequence[BitSpec], window: int = 128):
        self.bit_widths = tuple(bit_widths)
        self.requests_per_bit: Dict[BitSpec, int] = {
            b: 0 for b in self.bit_widths
        }
        self.batches_per_bit: Dict[BitSpec, int] = {
            b: 0 for b in self.bit_widths
        }
        self.busy_s_per_bit: Dict[BitSpec, float] = {
            b: 0.0 for b in self.bit_widths
        }
        self.labelled_per_bit: Dict[BitSpec, int] = {
            b: 0 for b in self.bit_widths
        }
        self.correct_per_bit: Dict[BitSpec, int] = {
            b: 0 for b in self.bit_widths
        }
        self.latencies_s: List[float] = []
        self.recent: Deque[float] = deque(maxlen=window)
        self.completed = 0
        self.batches = 0
        self.labelled = 0
        self.correct = 0
        self.switches = 0
        self.energy_pj = 0.0
        self.energy_priced = 0        # requests with a cost-model energy price
        self._last_bits: Optional[BitSpec] = None

    def record_batch(self, batch: BatchRecord) -> None:
        self.batches += 1
        self.batches_per_bit[batch.bits] += 1
        self.busy_s_per_bit[batch.bits] += batch.service_s
        if self._last_bits is not None and batch.bits != self._last_bits:
            self.switches += 1
        self._last_bits = batch.bits
        if batch.energy_pj is not None:
            self.energy_pj += batch.energy_pj
            self.energy_priced += batch.size
        for result in batch.results:
            self.completed += 1
            self.requests_per_bit[batch.bits] += 1
            self.latencies_s.append(result.latency_s)
            self.recent.append(result.latency_s)
            if result.label is not None:
                hit = int(result.prediction == result.label)
                self.labelled += 1
                self.correct += hit
                self.labelled_per_bit[batch.bits] += 1
                self.correct_per_bit[batch.bits] += hit

    def recent_p95_s(self) -> Optional[float]:
        return optional_percentile_s(self.recent, 95)

    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return self.completed / self.batches


class InferenceEngine:
    """Single-model serving engine: FIFO queue + micro-batch dispatch."""

    def __init__(
        self,
        sp_net: SwitchablePrecisionNetwork,
        controller,
        latency_model: BitLatencyModel,
        max_batch: int = 8,
        batch_timeout_s: Optional[float] = None,
        tracer=NULL_TRACER,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        missing = [
            b for b in sp_net.bit_widths if b not in latency_model.per_image_s
        ]
        if missing:
            raise ValueError(
                f"latency model lacks estimates for bit-widths {missing}"
            )
        self.sp_net = sp_net
        self.controller = controller
        self.latency_model = latency_model
        self.max_batch = int(max_batch)
        if batch_timeout_s is None:
            # Default release budget: the time one full batch takes at the
            # highest precision — waiting longer than a batch's own
            # service time to fill it can never pay off.
            batch_timeout_s = latency_model.batch_latency_s(
                sp_net.highest, self.max_batch
            )
        self.batch_timeout_s = float(batch_timeout_s)
        # Telemetry is strictly observational: NULL_TRACER by default,
        # and every emit site is guarded on ``tracer.enabled`` so the
        # disabled path builds no event kwargs.  ``replica_index`` is
        # stamped by ReplicaFleet so fleet traces name their lanes.
        self.tracer = tracer
        self.replica_index = 0
        self.stats = EngineStats(sp_net.bit_widths)
        self._queue: Deque[InferenceRequest] = deque()
        self._current_bits: BitSpec = sp_net.highest
        sp_net.eval()
        controller.attach(self)

    # ------------------------------------------------------------------
    # Queue
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest) -> None:
        self._queue.append(request)
        if self.tracer.enabled:
            self.tracer.emit(
                "enqueue",
                request.arrival_s,
                request_id=request.request_id,
                replica=self.replica_index,
                queue_depth=len(self._queue),
            )

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def current_bits(self) -> BitSpec:
        return self._current_bits

    def next_release_s(self) -> Optional[float]:
        """When the oldest pending request's timeout expires (None: idle)."""
        if not self._queue:
            return None
        return self._queue[0].arrival_s + self.batch_timeout_s

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(
        self, now: float, flush: bool = False
    ) -> Optional[BatchRecord]:
        """Coalesce and run one micro-batch; None if nothing released.

        A batch is released when it is full, when the oldest request has
        waited out ``batch_timeout_s``, or when ``flush`` forces the
        queue to drain (shutdown / end of simulation).
        """
        if not self._queue:
            return None
        full = len(self._queue) >= self.max_batch
        # Same expression as next_release_s so the simulator can advance
        # its clock exactly to the release instant without float drift
        # leaving the comparison one ULP short.
        expired = now >= self._queue[0].arrival_s + self.batch_timeout_s
        if not (full or expired or flush):
            return None

        batch = [
            self._queue.popleft()
            for _ in range(min(self.max_batch, len(self._queue)))
        ]
        inputs = PolicyInputs(
            now=now,
            batch_size=len(batch),
            queue_depth=len(self._queue),
            oldest_wait_s=now - batch[0].arrival_s,
            recent_p95_s=self.stats.recent_p95_s(),
            current_bits=self._current_bits,
            bit_widths=self.sp_net.bit_widths,
            max_batch=self.max_batch,
            latency_model=self.latency_model,
        )
        bits = self.controller.choose_bits(inputs)
        if bits not in self.sp_net.bit_widths:
            raise ValueError(
                f"controller chose {bits} outside candidate set "
                f"{self.sp_net.bit_widths}"
            )
        if self.tracer.enabled and bits != self._current_bits:
            self.tracer.emit(
                "bit_switch",
                now,
                replica=self.replica_index,
                from_bits=self._current_bits,
                to_bits=bits,
            )
        predictions = self._forward(batch, bits)
        service_s = self.latency_model.batch_latency_s(bits, len(batch))
        finish = now + service_s
        results = tuple(
            InferenceResult(
                request_id=req.request_id,
                arrival_s=req.arrival_s,
                start_s=now,
                finish_s=finish,
                bits=bits,
                prediction=int(pred),
                label=req.label,
            )
            for req, pred in zip(batch, predictions)
        )
        record = BatchRecord(
            bits=bits, start_s=now, finish_s=finish, results=results,
            energy_pj=self.latency_model.batch_energy_pj(bits, len(batch)),
        )
        self._current_bits = bits
        self.stats.record_batch(record)
        if self.tracer.enabled:
            self.tracer.emit(
                "batch",
                now,
                replica=self.replica_index,
                bits=bits,
                size=len(batch),
                start_s=now,
                finish_s=finish,
                service_s=service_s,
                queue_depth=len(self._queue),
                energy_pj=record.energy_pj,
            )
            for result in results:
                self.tracer.emit(
                    "complete",
                    finish,
                    request_id=result.request_id,
                    replica=self.replica_index,
                    bits=bits,
                    arrival_s=result.arrival_s,
                    start_s=result.start_s,
                    finish_s=result.finish_s,
                    latency_s=result.latency_s,
                )
        return record

    def _forward(
        self, batch: List[InferenceRequest], bits: BitSpec
    ) -> np.ndarray:
        """One switched forward pass for the whole micro-batch."""
        images = np.stack([req.image for req in batch]).astype(np.float32)
        self.sp_net.set_bitwidth(bits)
        with no_grad():
            logits = self.sp_net(Tensor(images))
        return np.argmax(logits.data, axis=1)
