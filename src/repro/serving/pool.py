"""Multi-process worker pool: routing, accounting, lifecycle, reports.

The parent-side half of the real serving plane.  A :class:`WorkerPool`
spawns N :mod:`repro.serving.worker` processes from one shared
checkpoint, then plays the role the simulator's
:class:`~repro.serve.cluster.ReplicaFleet` plays for virtual replicas:

* **routing** — every submitted request is assigned a worker by a
  registry router (:data:`repro.api.registry.ROUTERS`), fed
  :class:`~repro.serve.routing.ReplicaSnapshot` tuples built from the
  parent's live accounting (outstanding requests per worker, last known
  batch finish time, last served bit-width) on the shared virtual
  clock — the same inputs the simulated fleet hands its router;
* **backpressure** — admission is bounded: a pool holding
  ``max_pending`` outstanding requests refuses new ones with
  :class:`PoolSaturated` (the gateway maps it to HTTP 429), and each
  worker's inbox is itself a bounded ``multiprocessing.Queue``;
* **lifecycle** — ``active -> draining -> stopped`` mirroring the
  fleet's replica states; :meth:`drain` flushes every in-flight request
  before the pool reports stopped, and a worker process that dies is
  marked ``failed``, its outstanding futures erred, and it is excluded
  from routing (the pool keeps serving on the survivors);
* **observability** — workers ship their engines' tracer events
  (``enqueue``/``policy_decision``/``bit_switch``/``forward``/
  ``batch``/``complete``) back with every batch; the pool re-emits them
  into its own tracer next to the parent-side ``route`` events, so a
  real run produces the exact event vocabulary the simulator does and
  ``repro obs`` / the Prometheus exporter render both identically.

Results come back on a collector thread as
:class:`concurrent.futures.Future` objects — thread-safe natively, and
``asyncio.wrap_future`` adapts them for the gateway's event loop.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from concurrent.futures import Future

from ..obs.tracer import NULL_TRACER
from ..serve.cluster import FleetReport
from ..serve.engine import EngineStats, InferenceRequest
from ..serve.routing import ReplicaSnapshot, RouterInputs, make_router
from ..serve.stats import merge_engine_stats
from .worker import VirtualClock, WorkerSpec, worker_main

__all__ = [
    "PoolSaturated",
    "PoolStopped",
    "WorkerCrashed",
    "WorkerPool",
    "build_pool_report",
]

ACTIVE = "active"
DRAINING = "draining"
STOPPED = "stopped"
FAILED = "failed"

# Virtual service window a forward pass must fit into with this much
# slack: time_scale >= margin * slowest_forward / shortest_window.
TIME_SCALE_MARGIN = 2.0


class PoolSaturated(RuntimeError):
    """Admission refused: the pool is at its outstanding-request bound."""


class PoolStopped(RuntimeError):
    """Submit refused: the pool is draining, stopped, or all-failed."""


class WorkerCrashed(RuntimeError):
    """The worker owning this request died before completing it."""


class _Worker:
    """Parent-side accounting for one worker process."""

    __slots__ = (
        "index", "process", "inbox", "state", "pending", "free_at_s",
        "current_bits", "queue_depth", "forward_wall_s", "records",
    )

    def __init__(self, index: int, process, inbox):
        self.index = index
        self.process = process
        self.inbox = inbox
        self.state = ACTIVE
        self.pending: Dict[int, Future] = {}
        self.free_at_s = 0.0
        self.current_bits = None
        self.queue_depth = 0
        self.forward_wall_s = 0.0
        self.records: List = []


class WorkerPool:
    """N resident-engine worker processes behind a registry router."""

    def __init__(
        self,
        checkpoint: str,
        policy: str,
        latency_model,
        bit_widths: Sequence,
        *,
        workers: int = 2,
        router: str = "least_queue",
        max_batch: int = 8,
        slo_s: Optional[float] = None,
        batch_timeout_s: Optional[float] = None,
        time_scale: Optional[float] = None,
        max_pending: int = 256,
        inbox_capacity: int = 512,
        warmup_shape: Tuple[int, int, int] = (3, 12, 12),
        mmap: bool = True,
        tracer=NULL_TRACER,
        start_timeout_s: float = 120.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.checkpoint = checkpoint
        self.policy = policy
        self.latency_model = latency_model
        self.bit_widths = tuple(bit_widths)
        self.num_workers = int(workers)
        self.router_name = router
        self.router = make_router(router)
        self.router.attach(self)
        self.max_batch = int(max_batch)
        self.slo_s = slo_s
        self.batch_timeout_s = batch_timeout_s
        self.requested_time_scale = time_scale
        self.max_pending = int(max_pending)
        self.inbox_capacity = int(inbox_capacity)
        self.warmup_shape = tuple(warmup_shape)
        self.mmap = mmap
        self.tracer = tracer
        self.start_timeout_s = float(start_timeout_s)

        self.clock = VirtualClock()
        self.time_scale: Optional[float] = None
        self.state = "new"
        self._workers: List[_Worker] = []
        self._outbox = None
        self._collector: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._next_request_id = 0
        self._drained = threading.Event()
        self._rejected = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn workers, wait for warmup, broadcast the virtual clock."""
        if self.state != "new":
            raise RuntimeError(f"pool already {self.state}")
        ctx = mp.get_context("spawn")
        self._outbox = ctx.Queue()
        for index in range(self.num_workers):
            spec = WorkerSpec(
                index=index,
                checkpoint=self.checkpoint,
                policy=self.policy,
                latency_model=self.latency_model,
                max_batch=self.max_batch,
                slo_s=self.slo_s,
                batch_timeout_s=self.batch_timeout_s,
                mmap=self.mmap,
                warmup_shape=self.warmup_shape,
            )
            inbox = ctx.Queue(maxsize=self.inbox_capacity)
            process = ctx.Process(
                target=worker_main,
                args=(spec, inbox, self._outbox),
                daemon=True,
                name=f"repro-serve-worker-{index}",
            )
            process.start()
            self._workers.append(_Worker(index, process, inbox))

        deadline = time.monotonic() + self.start_timeout_s
        ready = 0
        while ready < self.num_workers:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                self.stop()
                raise RuntimeError(
                    f"only {ready}/{self.num_workers} workers became "
                    f"ready within {self.start_timeout_s:.0f}s"
                )
            try:
                message = self._outbox.get(timeout=min(timeout, 1.0))
            except queue_mod.Empty:
                continue
            if message[0] == "error":
                self.stop()
                raise RuntimeError(
                    f"worker {message[1]} failed during startup:\n"
                    f"{message[2]}"
                )
            if message[0] == "ready":
                self._workers[message[1]].forward_wall_s = message[2]
                ready += 1

        self.time_scale = (
            self.requested_time_scale
            if self.requested_time_scale is not None
            else self._auto_time_scale()
        )
        epoch = time.monotonic()
        self.clock.configure(epoch, self.time_scale)
        for worker in self._workers:
            worker.inbox.put(("start", epoch, self.time_scale))
        self.state = ACTIVE
        self._collector = threading.Thread(
            target=self._collect, name="repro-serve-collector", daemon=True
        )
        self._collector.start()

    def _auto_time_scale(self) -> float:
        """Smallest scale under which every forward fits its window.

        The tightest virtual service window any batch can have is one
        request at the fastest precision
        (``batch_overhead_s + min(per_image_s)``); the slowest real
        forward is the measured full-batch pass at the heaviest
        precision.  Scaling virtual time by
        ``margin * slowest_wall / tightest_window`` guarantees the
        forward always completes inside its own cost-model span.
        """
        tightest = self.latency_model.batch_overhead_s + min(
            self.latency_model.per_image_s.values()
        )
        slowest = max(w.forward_wall_s for w in self._workers)
        return max(1.0, TIME_SCALE_MARGIN * slowest / tightest)

    def initiate_drain(self) -> None:
        """Ask every live worker to flush and stop (non-blocking)."""
        with self._lock:
            if self.state not in (ACTIVE,):
                return
            self.state = DRAINING
            for worker in self._workers:
                if worker.state == ACTIVE:
                    worker.state = DRAINING
                    worker.inbox.put(("drain",))
            self._check_all_settled_locked()

    def drain(self, timeout_s: float = 60.0) -> bool:
        """Drain and wait until every in-flight request completed."""
        self.initiate_drain()
        settled = self._drained.wait(timeout=timeout_s)
        if settled:
            with self._lock:
                self.state = STOPPED
        return settled

    def stop(self) -> None:
        """Hard stop: terminate workers, fail outstanding futures."""
        with self._lock:
            self.state = STOPPED
        for worker in self._workers:
            try:
                worker.inbox.put_nowait(("stop",))
            except (queue_mod.Full, ValueError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
        with self._lock:
            for worker in self._workers:
                if worker.state not in (STOPPED, FAILED):
                    worker.state = STOPPED
                self._fail_pending_locked(
                    worker, WorkerCrashed("pool stopped with request in flight")
                )
        self._drained.set()
        if self._collector is not None and self._collector.is_alive():
            self._collector.join(timeout=2.0)

    # ------------------------------------------------------------------
    # Submission (routing + admission)
    # ------------------------------------------------------------------
    def submit(
        self,
        image: np.ndarray,
        label: Optional[int] = None,
        request_id: Optional[int] = None,
    ) -> Tuple[int, Future]:
        """Route one request onto a worker; returns (id, result future).

        Raises :class:`PoolSaturated` when the outstanding-request bound
        is hit (backpressure) and :class:`PoolStopped` when the pool is
        not accepting (draining/stopped/all workers failed).
        """
        now = self.clock()
        with self._lock:
            if self.state != ACTIVE:
                raise PoolStopped(f"pool is {self.state}")
            routable = [w for w in self._workers if w.state == ACTIVE]
            if not routable:
                raise PoolStopped("no live workers to route to")
            if self.total_pending_locked() >= self.max_pending:
                self._rejected += 1
                raise PoolSaturated(
                    f"{self.max_pending} requests already outstanding"
                )
            if request_id is None:
                request_id = self._next_request_id
            self._next_request_id = max(
                self._next_request_id + 1, request_id + 1
            )
            inputs = RouterInputs(
                now=now,
                replicas=tuple(
                    ReplicaSnapshot(
                        index=w.index,
                        queue_depth=len(w.pending),
                        max_batch=self.max_batch,
                        busy_until_s=w.free_at_s,
                        current_bits=(
                            w.current_bits if w.current_bits is not None
                            else self.bit_widths[-1]
                        ),
                    )
                    for w in routable
                ),
                latency_model=self.latency_model,
            )
            position = self.router.route(inputs)
            if not 0 <= position < len(routable):
                raise ValueError(
                    f"router {self.router.name!r} chose position "
                    f"{position} outside the routable set of "
                    f"{len(routable)}"
                )
            worker = routable[position]
            future: Future = Future()
            request = InferenceRequest(
                request_id=request_id,
                arrival_s=now,
                image=np.ascontiguousarray(image, dtype=np.float32),
                label=label,
            )
            try:
                worker.inbox.put_nowait(("req", request))
            except queue_mod.Full:
                self._rejected += 1
                raise PoolSaturated(
                    f"worker {worker.index} inbox is full"
                ) from None
            worker.pending[request_id] = future
        if self.tracer.enabled:
            self.tracer.emit(
                "route",
                now,
                request_id=request_id,
                replica=worker.index,
                active=len(routable),
            )
        return request_id, future

    def total_pending_locked(self) -> int:
        return sum(len(w.pending) for w in self._workers)

    @property
    def total_pending(self) -> int:
        with self._lock:
            return self.total_pending_locked()

    @property
    def rejected(self) -> int:
        return self._rejected

    def worker_states(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(w.state for w in self._workers)

    def snapshot(self) -> Dict:
        """Live JSON-friendly pool state (the gateway's /stats body)."""
        with self._lock:
            return {
                "state": self.state,
                "policy": self.policy,
                "router": self.router_name,
                "time_scale": self.time_scale,
                "virtual_now_s": self.clock() if self.time_scale else None,
                "max_pending": self.max_pending,
                "rejected": self._rejected,
                "workers": [
                    {
                        "index": w.index,
                        "state": w.state,
                        "pending": len(w.pending),
                        "queue_depth": w.queue_depth,
                        "batches": len(w.records),
                        "free_at_s": w.free_at_s,
                        "forward_wall_s": w.forward_wall_s,
                    }
                    for w in self._workers
                ],
            }

    # ------------------------------------------------------------------
    # Collector thread
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        while True:
            with self._lock:
                if self.state == STOPPED and self._drained.is_set():
                    return
            try:
                message = self._outbox.get(timeout=0.05)
            except queue_mod.Empty:
                self._reap_dead()
                continue
            except (OSError, ValueError):
                return
            kind = message[0]
            if kind == "batch":
                self._on_batch(*message[1:])
            elif kind == "drained":
                _, index, events = message
                self._replay_events(events)
                with self._lock:
                    self._workers[index].state = STOPPED
                    self._check_all_settled_locked()
            elif kind == "stopped":
                with self._lock:
                    worker = self._workers[message[1]]
                    if worker.state != FAILED:
                        worker.state = STOPPED
                    self._check_all_settled_locked()
            elif kind == "error":
                _, index, tb = message
                self._fail_worker(
                    index, WorkerCrashed(f"worker {index} raised:\n{tb}")
                )

    def _on_batch(self, index, record, events, queue_depth) -> None:
        self._replay_events(events)
        completions = []
        with self._lock:
            worker = self._workers[index]
            worker.records.append(record)
            worker.free_at_s = record.finish_s
            worker.current_bits = record.bits
            worker.queue_depth = queue_depth
            for result in record.results:
                future = worker.pending.pop(result.request_id, None)
                if future is not None:
                    completions.append((future, result))
            self._check_all_settled_locked()
        for future, result in completions:
            if not future.done():
                future.set_result(result)

    def _replay_events(self, events) -> None:
        if not self.tracer.enabled:
            return
        for event in events:
            fields = dict(event)
            kind = fields.pop("kind")
            time_s = fields.pop("time_s")
            self.tracer.emit(kind, time_s, **fields)

    def _reap_dead(self) -> None:
        for worker in self._workers:
            if worker.state in (STOPPED, FAILED):
                continue
            if not worker.process.is_alive():
                self._fail_worker(
                    worker.index,
                    WorkerCrashed(
                        f"worker {worker.index} process exited with code "
                        f"{worker.process.exitcode}"
                    ),
                )

    def _fail_worker(self, index: int, error: Exception) -> None:
        with self._lock:
            worker = self._workers[index]
            worker.state = FAILED
            self._fail_pending_locked(worker, error)
            self._check_all_settled_locked()

    def _fail_pending_locked(self, worker: _Worker, error: Exception) -> None:
        pending, worker.pending = worker.pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    def _check_all_settled_locked(self) -> None:
        if self.state not in (DRAINING, STOPPED):
            return
        if all(w.state in (STOPPED, FAILED) for w in self._workers):
            self._drained.set()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def batch_records(self) -> List[List]:
        with self._lock:
            return [list(w.records) for w in self._workers]


def build_pool_report(
    pool: WorkerPool,
    scenario: str,
    scale_name: str,
    slo_s: float,
) -> FleetReport:
    """A :class:`~repro.serve.cluster.FleetReport` over the real run.

    Per-worker :class:`~repro.serve.engine.EngineStats` are rebuilt by
    replaying the shipped batch records and merged by
    :func:`~repro.serve.stats.merge_engine_stats` — the aggregation the
    simulated fleet runs — so every field of the report means the same
    thing in both planes and ``format_fleet_reports`` renders either.
    Times are normalised so the first arrival is t=0, matching the
    simulator's clock origin.
    """
    per_worker_records = pool.batch_records()
    offset = min(
        (
            result.arrival_s
            for records in per_worker_records
            for record in records
            for result in record.results
        ),
        default=0.0,
    )
    end_s = max(
        (record.finish_s for records in per_worker_records
         for record in records),
        default=offset,
    ) - offset

    stats_per_worker = []
    for records in per_worker_records:
        stats = EngineStats(pool.bit_widths)
        for record in records:
            stats.record_batch(record)
        stats_per_worker.append(stats)

    return FleetReport(
        scenario=scenario,
        policy=pool.policy,
        router=pool.router_name,
        scale=scale_name,
        replicas=pool.num_workers,
        max_replicas=pool.num_workers,
        autoscaled=False,
        **merge_engine_stats(
            stats_per_worker, end_s, slo_s, states=pool.worker_states()
        ),
    )
