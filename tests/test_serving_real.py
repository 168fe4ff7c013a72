"""Real serving plane: HTTP plumbing, pool lifecycle, sim parity.

Two tiers in one file:

* unmarked tests cover the in-process pieces (HTTP parser/framing,
  image codec, virtual clock, comparison verdicts) and run with tier-1;
* ``@pytest.mark.real_plane`` tests spawn actual worker processes and
  sockets — seconds each for process start + engine warmup — and are
  deselected by default (see pytest.ini); ``scripts/ci.sh`` runs them
  with ``pytest -m real_plane``.

The real-plane tests use a hand-built :class:`BitLatencyModel` whose
service times dwarf any real forward pass, so the pool's auto
``time_scale`` resolves to 1.0 and wall-clock timings are predictable.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.serve.checkpoint import SPNetConfig, build_sp_net, save_checkpoint
from repro.serve.engine import BitLatencyModel
from repro.serving import (
    Gateway,
    HTTPConnectionHandler,
    HTTPError,
    PoolSaturated,
    PoolStopped,
    VirtualClock,
    WorkerCrashed,
    WorkerPool,
    build_pool_report,
    compare_reports,
    decode_image,
    encode_image,
    http_request_json,
    json_response,
)

IMAGE_SHAPE = (3, 8, 8)


def make_image(seed=0):
    return np.random.default_rng(seed).standard_normal(
        IMAGE_SHAPE
    ).astype(np.float32)


# ----------------------------------------------------------------------
# HTTP plumbing (in-process: a live asyncio server, no worker pool)
# ----------------------------------------------------------------------
async def _echo_server():
    handler = HTTPConnectionHandler()

    async def echo(request):
        return json_response({
            "path": request.path,
            "query": request.query,
            "body": request.json() if request.body else None,
        })

    async def boom(request):
        raise RuntimeError("kaput")

    handler.route("POST", "/echo", echo)
    handler.route("GET", "/echo", echo)
    handler.route("GET", "/boom", boom)
    server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
    return server, server.sockets[0].getsockname()[1]


class TestHTTPPlumbing:
    def test_round_trip_and_query_parsing(self):
        async def scenario():
            server, port = await _echo_server()
            try:
                status, body = await http_request_json(
                    "127.0.0.1", port, "POST", "/echo?a=1&a=2&b=x",
                    {"k": [1, 2]},
                )
            finally:
                server.close()
                await server.wait_closed()
            return status, body

        status, body = asyncio.run(scenario())
        assert status == 200
        assert body == {
            "path": "/echo",
            "query": {"a": ["1", "2"], "b": ["x"]},
            "body": {"k": [1, 2]},
        }

    def test_unknown_route_404_wrong_method_405(self):
        async def scenario():
            server, port = await _echo_server()
            try:
                missing = await http_request_json(
                    "127.0.0.1", port, "GET", "/nope"
                )
                wrong = await http_request_json(
                    "127.0.0.1", port, "DELETE", "/echo"
                )
            finally:
                server.close()
                await server.wait_closed()
            return missing, wrong

        (missing_status, _), (wrong_status, _) = asyncio.run(scenario())
        assert missing_status == 404
        assert wrong_status == 405

    def test_handler_exception_is_500_not_connection_loss(self):
        async def scenario():
            server, port = await _echo_server()
            try:
                status, body = await http_request_json(
                    "127.0.0.1", port, "GET", "/boom"
                )
                again, _ = await http_request_json(
                    "127.0.0.1", port, "GET", "/echo"
                )
            finally:
                server.close()
                await server.wait_closed()
            return status, body, again

        status, body, again = asyncio.run(scenario())
        assert status == 500
        assert "kaput" in body["error"]
        assert again == 200

    def test_keep_alive_serves_multiple_requests(self):
        async def scenario():
            server, port = await _echo_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                responses = []
                for _ in range(2):
                    writer.write(
                        b"GET /echo HTTP/1.1\r\n"
                        b"Host: t\r\nContent-Length: 0\r\n\r\n"
                    )
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = int(
                        [line for line in head.split(b"\r\n")
                         if line.lower().startswith(b"content-length")][0]
                        .split(b":")[1]
                    )
                    responses.append(await reader.readexactly(length))
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
            return responses

        responses = asyncio.run(scenario())
        assert len(responses) == 2
        assert all(json.loads(r)["path"] == "/echo" for r in responses)

    def test_malformed_json_body_maps_to_400(self):
        from repro.serving.http import HTTPRequest

        request = HTTPRequest(
            method="POST", path="/x", query={}, headers={},
            body=b"{nope",
        )
        with pytest.raises(HTTPError) as excinfo:
            request.json()
        assert excinfo.value.status == 400


class TestImageCodec:
    def test_round_trip(self):
        image = make_image(3)
        decoded = decode_image(encode_image(image))
        np.testing.assert_array_equal(image, decoded)
        assert decoded.dtype == np.float32

    def test_length_mismatch_rejected(self):
        payload = encode_image(make_image(3))
        payload["shape"] = [3, 8, 9]
        with pytest.raises(ValueError, match="do not match shape"):
            decode_image(payload)

    def test_garbage_base64_rejected(self):
        with pytest.raises(ValueError, match="bad image payload"):
            decode_image({"image_b64": "!!!", "shape": [1]})


class TestVirtualClock:
    def test_scaling_maps_wall_to_virtual_and_back(self):
        clock = VirtualClock(epoch=100.0, time_scale=4.0)
        assert clock.wall_deadline(2.0) == 108.0
        # wall 110 -> virtual (110-100)/4 = 2.5
        import time as time_mod

        virtual = (110.0 - clock.epoch) / clock.time_scale
        assert virtual == 2.5
        assert clock() == pytest.approx(
            (time_mod.monotonic() - 100.0) / 4.0, rel=1e-3
        )

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="time_scale"):
            VirtualClock(0.0, 0.0)


# ----------------------------------------------------------------------
# Comparison verdicts (pure logic on synthetic reports)
# ----------------------------------------------------------------------
def synthetic_report(policy, p50, p95, p99, occupancy, requests=100):
    return {
        "policy": policy,
        "num_requests": requests,
        "latency_p50_s": p50,
        "latency_p95_s": p95,
        "latency_p99_s": p99,
        "occupancy": occupancy,
    }


class TestCompareVerdict:
    def test_matching_reports_pass(self):
        sim = [
            synthetic_report("a", 0.010, 0.020, 0.030, {"8": 70, "16": 30}),
            synthetic_report("b", 0.020, 0.040, 0.060, {"8": 0, "16": 100}),
        ]
        real = [
            synthetic_report("a", 0.011, 0.021, 0.032, {"8": 68, "16": 32}),
            synthetic_report("b", 0.019, 0.042, 0.058, {"8": 2, "16": 98}),
        ]
        verdict = compare_reports(sim, real)
        assert verdict["ok"]
        assert verdict["ordering"]["latency_p50_s"]["pairs_checked"] == 1

    def test_inverted_ordering_fails(self):
        sim = [
            synthetic_report("a", 0.010, 0.020, 0.030, {"8": 100}),
            synthetic_report("b", 0.020, 0.040, 0.060, {"8": 100}),
        ]
        real = [
            synthetic_report("a", 0.030, 0.050, 0.070, {"8": 100}),
            synthetic_report("b", 0.020, 0.040, 0.060, {"8": 100}),
        ]
        verdict = compare_reports(sim, real)
        assert not verdict["ok"]
        assert verdict["ordering"]["latency_p50_s"]["violations"]

    def test_sim_ties_are_not_checked(self):
        sim = [
            synthetic_report("a", 0.0100, 0.020, 0.030, {"8": 100}),
            synthetic_report("b", 0.0102, 0.020, 0.030, {"8": 100}),
        ]
        real = [                       # real inverts, but sim called a tie
            synthetic_report("a", 0.013, 0.021, 0.031, {"8": 100}),
            synthetic_report("b", 0.011, 0.019, 0.029, {"8": 100}),
        ]
        verdict = compare_reports(sim, real)
        assert verdict["ok"]
        for field in ("latency_p50_s", "latency_p95_s", "latency_p99_s"):
            assert verdict["ordering"][field]["pairs_checked"] == 0

    def test_occupancy_drift_fails(self):
        sim = [synthetic_report("a", 0.01, 0.02, 0.03, {"8": 100, "16": 0})]
        real = [synthetic_report("a", 0.01, 0.02, 0.03, {"8": 0, "16": 100})]
        verdict = compare_reports(sim, real)
        assert not verdict["ok"]
        assert verdict["occupancy"]["a"]["l1_distance"] == pytest.approx(2.0)

    def test_dropped_requests_fail_completion(self):
        sim = [synthetic_report("a", 0.01, 0.02, 0.03, {"8": 100})]
        real = [synthetic_report(
            "a", 0.01, 0.02, 0.03, {"8": 80}, requests=80,
        )]
        verdict = compare_reports(sim, real)
        assert not verdict["ok"]
        assert not verdict["completion"]["a"]["ok"]

    def test_policy_set_mismatch_is_an_error(self):
        sim = [synthetic_report("a", 0.01, 0.02, 0.03, {"8": 100})]
        verdict = compare_reports(sim, [])
        assert not verdict["ok"]
        assert "policy sets differ" in verdict["error"]


# ----------------------------------------------------------------------
# Real-plane report over recorded batches (in-process stub pool)
# ----------------------------------------------------------------------
class StubPool:
    """The slice of :class:`WorkerPool` that ``build_pool_report`` reads,
    over fixed per-worker batch records and no processes."""

    def __init__(self, records, states, bit_widths, policy, router):
        self._records = records
        self._states = states
        self.bit_widths = bit_widths
        self.policy = policy
        self.router_name = router
        self.num_workers = len(records)

    def batch_records(self):
        return self._records

    def worker_states(self):
        return self._states


class TestPoolReport:
    def test_pool_report_matches_simulated_fleet_on_same_batches(self):
        from repro.serve import (
            InferenceEngine,
            InferenceRequest,
            QueueDepthPolicy,
            ReplicaFleet,
            build_fleet_report,
            simulate_fleet,
        )
        from repro.serve.simulator import ServeScale

        config = SPNetConfig(
            model="resnet8", bit_widths=(4, 8, 16), num_classes=3,
            width_mult=0.25, image_size=8,
        )
        model = BitLatencyModel(
            {4: 0.001, 8: 0.002, 16: 0.004}, batch_overhead_s=0.001
        )
        records = [[], []]

        def factory(index):
            engine = InferenceEngine(
                build_sp_net(config), QueueDepthPolicy(low=2), model,
                max_batch=4, batch_timeout_s=0.010, clock=lambda: 0.0,
            )
            dispatch = engine.dispatch

            def logged(now=None, flush=False):
                record = dispatch(now, flush)
                if record is not None:
                    records[index].append(record)
                return record

            engine.dispatch = logged
            return engine

        fleet = ReplicaFleet(factory, replicas=2, router="round_robin")
        # Bursts of four arrivals 1 ms apart: queues build, so the
        # policy switches and batches fill unevenly.
        requests = [
            InferenceRequest(
                request_id=i, arrival_s=(i // 4) * 0.004 + (i % 4) * 0.001,
                image=make_image(i), label=i % 3,
            )
            for i in range(40)
        ]
        end_s = simulate_fleet(fleet, requests)
        scale = ServeScale(
            name="tiny", num_requests=40, image_size=8, num_classes=3,
            width_mult=0.25, bit_widths=(4, 8, 16), max_batch=4,
            mapper_generations=1,
        )
        sim = build_fleet_report(
            "burst", "queue", scale, fleet, end_s, slo_s=0.012
        ).to_json_dict()
        pool = StubPool(
            records, fleet.replica_states(), (4, 8, 16), "queue",
            "round_robin",
        )
        real = build_pool_report(pool, "burst", "tiny", 0.012).to_json_dict()

        assert sim["num_requests"] == 40 and sim["switches"] > 0
        # Every field comes from the same merge over the same batches.
        assert real == sim


# ----------------------------------------------------------------------
# Real plane: spawned worker processes (deselected from tier-1)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """One tiny on-disk checkpoint shared by every pool in the module."""
    config = SPNetConfig(
        model="resnet8", bit_widths=(4, 8), num_classes=4,
        width_mult=0.25, image_size=8,
    )
    sp_net = build_sp_net(config)
    npz_path, _ = save_checkpoint(
        sp_net, config, str(tmp_path_factory.mktemp("ckpt") / "model")
    )
    return npz_path


def make_pool(checkpoint, *, service_s=0.02, **overrides):
    """A pool whose cost model is slow enough that time_scale=1 works."""
    kwargs = dict(
        policy="queue",
        bit_widths=(4, 8),
        workers=2,
        max_batch=4,
        slo_s=8 * service_s,
        warmup_shape=IMAGE_SHAPE,
        time_scale=1.0,
        max_pending=64,
    )
    kwargs.update(overrides)
    latency_model = BitLatencyModel(
        {4: service_s / 2, 8: service_s},
        batch_overhead_s=service_s,
    )
    return WorkerPool(checkpoint, kwargs.pop("policy"), latency_model,
                      kwargs.pop("bit_widths"), **kwargs)


@pytest.mark.real_plane
class TestWorkerPool:
    def test_submit_completes_end_to_end(self, checkpoint):
        pool = make_pool(checkpoint, workers=1)
        pool.start()
        try:
            futures = [
                pool.submit(make_image(i), label=i % 4)[1]
                for i in range(6)
            ]
            results = [f.result(timeout=30) for f in futures]
        finally:
            pool.stop()
        assert [r.request_id for r in results] == list(range(6))
        for result in results:
            assert result.bits in (4, 8)
            assert result.finish_s > result.arrival_s
            assert isinstance(result.prediction, int)
        report = build_pool_report(pool, "test", "tiny", pool.slo_s)
        assert report.num_requests == 6
        assert sum(report.occupancy.values()) == 6

    def test_overflow_rejected_with_429(self, checkpoint):
        pool = make_pool(
            checkpoint, workers=1, max_pending=2, service_s=0.2,
        )
        pool.start()
        try:
            kept = [pool.submit(make_image(i))[1] for i in range(2)]
            with pytest.raises(PoolSaturated):
                pool.submit(make_image(9))
            assert pool.rejected == 1

            async def over_http():
                gateway = Gateway(pool)
                await gateway.start()
                try:
                    body = encode_image(make_image(9))
                    return await http_request_json(
                        "127.0.0.1", gateway.port, "POST", "/infer", body
                    )
                finally:
                    await gateway.close()

            status, body = asyncio.run(over_http())
            # Admitted requests still complete after the rejections.
            results = [f.result(timeout=30) for f in kept]
        finally:
            pool.stop()
        assert status == 429
        assert body["rejected"] is True
        assert len(results) == 2

    def test_drain_completes_inflight_then_refuses(self, checkpoint):
        pool = make_pool(checkpoint, workers=2, service_s=0.05)
        pool.start()
        try:
            futures = [pool.submit(make_image(i))[1] for i in range(10)]
            assert pool.drain(timeout_s=30)
            results = [f.result(timeout=1) for f in futures]
            assert len(results) == 10
            assert pool.state == "stopped"
            assert set(pool.worker_states()) == {"stopped"}
            with pytest.raises(PoolStopped):
                pool.submit(make_image(0))
        finally:
            pool.stop()
        report = build_pool_report(pool, "test", "tiny", pool.slo_s)
        assert report.num_requests == 10

    def test_worker_crash_fails_pending_and_pool_survives(self, checkpoint):
        pool = make_pool(checkpoint, workers=2, service_s=0.3)
        pool.start()
        try:
            futures = {}
            for i in range(6):
                request_id, future = pool.submit(make_image(i))
                futures[request_id] = future
            victim = next(
                w for w in pool._workers if w.pending
            )
            survivor = next(
                w for w in pool._workers if w.index != victim.index
            )
            victim.process.kill()
            doomed = [
                futures[request_id] for request_id in victim.pending
            ]
            assert doomed
            with pytest.raises(WorkerCrashed):
                doomed[0].result(timeout=30)
            # The pool keeps serving on the survivor: new submissions
            # route around the failed worker and complete.
            deadline_futures = [
                pool.submit(make_image(100 + i))[1] for i in range(2)
            ]
            fresh = [f.result(timeout=30) for f in deadline_futures]
            assert len(fresh) == 2
            states = pool.worker_states()
            assert states[victim.index] == "failed"
            assert states[survivor.index] == "active"
        finally:
            pool.stop()


@pytest.mark.real_plane
class TestGatewayEndpoints:
    def test_lifecycle_over_http(self, checkpoint):
        from repro.obs.metrics import MetricsRecorder, MetricsRegistry
        from repro.obs.tracer import Tracer

        metrics = MetricsRegistry()
        tracer = Tracer(sinks=(MetricsRecorder(metrics),))
        pool = make_pool(checkpoint, workers=1, tracer=tracer)
        pool.start()

        async def scenario():
            gateway = Gateway(pool, metrics=metrics)
            await gateway.start()
            out = {}
            try:
                out["health"] = await http_request_json(
                    "127.0.0.1", gateway.port, "GET", "/healthz"
                )
                body = encode_image(make_image(0))
                body["request_id"] = 7
                body["label"] = 1
                out["infer"] = await http_request_json(
                    "127.0.0.1", gateway.port, "POST", "/infer", body
                )
                out["bad"] = await http_request_json(
                    "127.0.0.1", gateway.port, "POST", "/infer",
                    {"image_b64": "AAAA", "shape": [3]},
                )
                out["stats"] = await http_request_json(
                    "127.0.0.1", gateway.port, "GET", "/stats"
                )
                out["metrics"] = await http_request_json(
                    "127.0.0.1", gateway.port, "GET", "/metrics"
                )
                out["drain"] = await http_request_json(
                    "127.0.0.1", gateway.port, "POST", "/admin/drain"
                )
                assert await gateway.wait_drained(timeout_s=30)
                out["post_drain_infer"] = await http_request_json(
                    "127.0.0.1", gateway.port, "POST", "/infer",
                    encode_image(make_image(1)),
                )
                out["post_drain_health"] = await http_request_json(
                    "127.0.0.1", gateway.port, "GET", "/healthz"
                )
            finally:
                await gateway.close()
            return out

        try:
            out = asyncio.run(scenario())
        finally:
            pool.stop()

        assert out["health"][0] == 200
        status, body = out["infer"]
        assert status == 200
        assert body["request_id"] == 7
        assert body["bits"] in ("4", "8")
        assert body["latency_s"] > 0
        assert out["bad"][0] == 400
        assert out["stats"][1]["workers"][0]["batches"] >= 1
        scrape = out["metrics"][1]["raw"]
        assert "repro_requests_completed_total" in scrape
        assert out["drain"][0] == 202
        assert out["post_drain_infer"][0] == 503
        assert out["post_drain_health"][0] == 503

    def test_healthz_stays_live_on_worker_crash(self, checkpoint):
        # Liveness: one surviving active worker keeps /healthz at 200,
        # and the per-worker states show which worker failed.
        pool = make_pool(checkpoint, workers=2, service_s=0.3)
        pool.start()
        try:
            futures = {}
            for i in range(6):
                request_id, future = pool.submit(make_image(i))
                futures[request_id] = future
            victim = next(w for w in pool._workers if w.pending)
            victim.process.kill()
            doomed = [futures[rid] for rid in victim.pending]
            with pytest.raises(WorkerCrashed):
                doomed[0].result(timeout=30)

            async def probe():
                gateway = Gateway(pool)
                await gateway.start()
                try:
                    return await http_request_json(
                        "127.0.0.1", gateway.port, "GET", "/healthz"
                    )
                finally:
                    await gateway.close()

            status, body = asyncio.run(probe())
        finally:
            pool.stop()
        assert status == 200
        assert body["healthy"] is True
        assert "failed" in body["workers"]
