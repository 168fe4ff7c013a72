"""Asyncio HTTP/JSON gateway fronting the worker pool.

The ingress half of the real serving plane: an
``asyncio.start_server`` loop speaking the hand-rolled HTTP/1.1 of
:mod:`repro.serving.http`, translating requests into
:meth:`~repro.serving.pool.WorkerPool.submit` calls and pool
backpressure into status codes:

==========================  ===========================================
``POST /infer``             classify one image (base64 float32 payload)
``GET  /metrics``           Prometheus text exposition (live registry)
``GET  /healthz``           liveness + per-worker state summary
``GET  /stats``             full pool snapshot (JSON)
``POST /admin/drain``       begin graceful drain; 202 immediately
==========================  ===========================================

Status mapping: 429 when admission control refuses (bounded queues are
full — the client should back off), 503 while draining/stopped or when
no live worker remains, 400 for malformed payloads.  A SIGTERM handler
(installed by ``repro serve-real``) triggers the same drain the admin
endpoint does: in-flight requests complete, new ones get 503, and the
process exits once every worker reports drained.

``/infer`` request body::

    {"image_b64": <base64 of C*H*W float32 little-endian>,
     "shape": [C, H, W], "label": 3, "request_id": 17}

``label`` and ``request_id`` are optional (labels feed the accuracy
proxy; ids are assigned by the pool when omitted).  The response echoes
the id and reports the served bit-width plus the virtual-clock latency
decomposition, which is what the replay harness aggregates into a
:class:`~repro.serve.cluster.FleetReport`.
"""

from __future__ import annotations

import asyncio
import base64
import math
from typing import Dict, Optional

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.tracer import bits_label
from .http import HTTPConnectionHandler, HTTPRequest, HTTPResponse, json_response
from .pool import PoolSaturated, PoolStopped, WorkerCrashed, WorkerPool

__all__ = ["Gateway", "encode_image", "decode_image"]


def encode_image(image: np.ndarray) -> Dict:
    """The `/infer` payload fields for one (C, H, W) float32 image."""
    array = np.ascontiguousarray(image, dtype=np.float32)
    return {
        "image_b64": base64.b64encode(array.tobytes()).decode("ascii"),
        "shape": list(array.shape),
    }


def decode_image(payload: Dict) -> np.ndarray:
    """Invert :func:`encode_image`; raises ValueError on bad payloads."""
    try:
        raw = base64.b64decode(payload["image_b64"], validate=True)
        shape = tuple(int(d) for d in payload["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad image payload: {exc}") from exc
    expected = int(np.prod(shape)) * 4
    if len(raw) != expected:
        raise ValueError(
            f"image bytes ({len(raw)}) do not match shape {shape} "
            f"({expected} expected)"
        )
    return np.frombuffer(raw, dtype=np.float32).reshape(shape).copy()


class Gateway:
    """HTTP ingress bound to one :class:`WorkerPool`."""

    def __init__(
        self,
        pool: WorkerPool,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        request_timeout_s: float = 60.0,
    ):
        self.pool = pool
        self.host = host
        self.port = port
        self.metrics = metrics
        self.request_timeout_s = float(request_timeout_s)
        self._server: Optional[asyncio.base_events.Server] = None
        self._drain_task: Optional[asyncio.Task] = None
        self.handler = HTTPConnectionHandler()
        self.handler.route("POST", "/infer", self._infer)
        self.handler.route("GET", "/metrics", self._metrics)
        self.handler.route("GET", "/healthz", self._healthz)
        self.handler.route("GET", "/stats", self._stats)
        self.handler.route("POST", "/admin/drain", self._drain)
        self._http_requests = (
            metrics.counter(
                "repro_gateway_http_requests_total",
                "gateway HTTP requests, by path and status code",
            )
            if metrics is not None else None
        )

    # ------------------------------------------------------------------
    # Server lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self.handler, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain (the k8s-style lifecycle)."""
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self.pool.initiate_drain)

    async def wait_drained(
        self, timeout_s: Optional[float] = 120.0
    ) -> bool:
        """Await the pool's every-worker-settled event off-loop.

        ``None`` or a non-finite timeout waits indefinitely (the
        ``--serve`` mode's run-until-SIGTERM loop).
        """
        if timeout_s is not None and not math.isfinite(timeout_s):
            timeout_s = None
        return await asyncio.get_running_loop().run_in_executor(
            None, self.pool._drained.wait, timeout_s
        )

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _count(self, path: str, status: int) -> None:
        if self._http_requests is not None:
            self._http_requests.inc(path=path, code=str(status))

    async def _infer(self, request: HTTPRequest) -> HTTPResponse:
        payload = request.json()
        try:
            image = decode_image(payload)
        except ValueError as exc:
            self._count("/infer", 400)
            return json_response({"error": str(exc)}, status=400)
        label = payload.get("label")
        request_id = payload.get("request_id")
        try:
            assigned_id, future = self.pool.submit(
                image,
                label=None if label is None else int(label),
                request_id=None if request_id is None else int(request_id),
            )
        except PoolSaturated as exc:
            self._count("/infer", 429)
            return json_response(
                {"error": str(exc), "rejected": True},
                status=429,
            )
        except PoolStopped as exc:
            self._count("/infer", 503)
            return json_response({"error": str(exc)}, status=503)
        try:
            result = await asyncio.wait_for(
                asyncio.wrap_future(future),
                timeout=self.request_timeout_s,
            )
        except WorkerCrashed as exc:
            self._count("/infer", 503)
            return json_response({"error": str(exc)}, status=503)
        except asyncio.TimeoutError:
            self._count("/infer", 503)
            return json_response(
                {"error": f"no result within {self.request_timeout_s}s"},
                status=503,
            )
        self._count("/infer", 200)
        return json_response({
            "request_id": result.request_id,
            "prediction": result.prediction,
            "bits": bits_label(result.bits),
            "arrival_s": result.arrival_s,
            "start_s": result.start_s,
            "finish_s": result.finish_s,
            "latency_s": result.latency_s,
            "correct": result.correct,
        })

    async def _metrics(self, request: HTTPRequest) -> HTTPResponse:
        if self.metrics is None:
            self._count("/metrics", 404)
            return json_response(
                {"error": "metrics are not enabled"}, status=404
            )
        self._count("/metrics", 200)
        return HTTPResponse(
            status=200,
            body=self.metrics.to_prometheus().encode("utf-8"),
            content_type="text/plain; version=0.0.4",
        )

    async def _healthz(self, request: HTTPRequest) -> HTTPResponse:
        states = self.pool.worker_states()
        healthy = self.pool.state == "active" and "active" in states
        status = 200 if healthy else 503
        self._count("/healthz", status)
        return json_response(
            {
                "status": self.pool.state,
                "healthy": healthy,
                "workers": list(states),
            },
            status=status,
        )

    async def _stats(self, request: HTTPRequest) -> HTTPResponse:
        self._count("/stats", 200)
        return json_response(self.pool.snapshot())

    async def _drain(self, request: HTTPRequest) -> HTTPResponse:
        self.pool.initiate_drain()
        self._count("/admin/drain", 202)
        return json_response(
            {"status": self.pool.state, "draining": True}, status=202
        )
