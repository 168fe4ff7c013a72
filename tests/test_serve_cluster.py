"""Replica fleet: routing, determinism, report shape."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer
from repro.serve import (
    BitLatencyModel,
    InferenceEngine,
    InferenceRequest,
    LatencyAwareRouter,
    LeastQueueRouter,
    ModelRegistry,
    ReplicaFleet,
    ReplicaSnapshot,
    RoundRobinRouter,
    Router,
    RouterInputs,
    SPNetConfig,
    StaticPolicy,
    build_fleet_report,
    build_sp_net,
    format_fleet_reports,
    make_fleet,
    make_router,
    run_fleet_sim,
    simulate_fleet,
)
from repro.serve.simulator import ServeScale, prepare_simulation

BITS = (4, 8, 16)
PER_IMAGE = {4: 0.001, 8: 0.002, 16: 0.004}
OVERHEAD = 0.001

CFG = SPNetConfig(
    model="resnet8", bit_widths=BITS, num_classes=3,
    width_mult=0.25, image_size=8,
)

# Ends mid-burst (96 = 2 full bursty cycles), so a backlog remains when
# arrivals stop and extra replicas demonstrably shorten the drain.
FLEET_TINY = ServeScale(
    name="fleet-tiny", num_requests=96,
    model=SPNetConfig(
        bit_widths=BITS, num_classes=3, width_mult=0.25, image_size=8,
    ),
    max_batch=8, mapper_generations=2,
)


def latency_model():
    return BitLatencyModel(dict(PER_IMAGE), batch_overhead_s=OVERHEAD)


def request(i, arrival, label=0):
    image = np.full((3, 8, 8), float(i % 7), dtype=np.float32)
    return InferenceRequest(
        request_id=i, arrival_s=arrival, image=image, label=label
    )


def engine_factory(max_batch=4, policy_cls=StaticPolicy):
    def factory(index):
        return InferenceEngine(
            build_sp_net(CFG), policy_cls(), latency_model(),
            max_batch=max_batch, batch_timeout_s=0.010,
        )
    return factory


def snapshots(*specs):
    """ReplicaSnapshot tuple from (queue_depth, busy_until, bits) specs."""
    return tuple(
        ReplicaSnapshot(
            index=i, queue_depth=q, max_batch=4,
            busy_until_s=busy, current_bits=bits,
        )
        for i, (q, busy, bits) in enumerate(specs)
    )


class TestRouters:
    def test_round_robin_cycles_and_resets_on_attach(self):
        router = RoundRobinRouter()
        inputs = RouterInputs(
            now=0.0,
            replicas=snapshots((0, 0.0, 16), (0, 0.0, 16), (0, 0.0, 16)),
            latency_model=latency_model(),
        )
        assert [router.route(inputs) for _ in range(5)] == [0, 1, 2, 0, 1]
        router.attach(fleet=None)  # re-attach starts a clean rotation
        assert router.route(inputs) == 0

    def test_least_queue_picks_min_with_index_tiebreak(self):
        router = LeastQueueRouter()
        inputs = RouterInputs(
            now=0.0,
            replicas=snapshots((3, 0.0, 16), (1, 0.0, 16), (1, 0.0, 16)),
            latency_model=latency_model(),
        )
        assert router.route(inputs) == 1

    def test_latency_aware_prefers_fast_draining_replica(self):
        router = LatencyAwareRouter()
        # Replica 0 idle but serving at 16-bit with 4 queued; replica 1
        # busy a moment longer but at 4-bit with the same backlog — the
        # cost model says the low-precision replica finishes first.
        inputs = RouterInputs(
            now=0.0,
            replicas=snapshots((4, 0.0, 16), (4, 0.002, 4)),
            latency_model=latency_model(),
        )
        assert router.route(inputs) == 1
        # With equal precision, the idle replica wins.
        inputs = RouterInputs(
            now=0.0,
            replicas=snapshots((4, 0.0, 16), (4, 0.002, 16)),
            latency_model=latency_model(),
        )
        assert router.route(inputs) == 0

    def test_round_robin_over_one_replica_always_picks_it(self):
        router = RoundRobinRouter()
        inputs = RouterInputs(
            now=0.0, replicas=snapshots((5, 1.0, 4)),
            latency_model=latency_model(),
        )
        assert [router.route(inputs) for _ in range(3)] == [0, 0, 0]

    def test_least_queue_ignores_busy_time_and_bits(self):
        router = LeastQueueRouter()
        inputs = RouterInputs(
            now=0.0,
            replicas=snapshots((2, 0.0, 4), (1, 9.0, 16)),
            latency_model=latency_model(),
        )
        assert router.route(inputs) == 1

    def test_latency_aware_treats_past_busy_time_as_idle(self):
        router = LatencyAwareRouter()
        # Replica 0 frees up exactly now, replica 1 finished long ago:
        # both are idle, so the tie goes to the lower index instead of
        # replica 1's stale busy time counting as negative wait.
        inputs = RouterInputs(
            now=5.0,
            replicas=snapshots((0, 5.0, 16), (0, 1.0, 16)),
            latency_model=latency_model(),
        )
        assert router.route(inputs) == 0

    def test_latency_aware_prices_whole_batches_of_backlog(self):
        router = LatencyAwareRouter()
        # With max_batch 4, a queue of 3 still drains in one batch with
        # the new request, while a queue of 4 needs two: one 16-bit
        # batch (17 ms) beats two 8-bit batches (2 x 9 ms).
        inputs = RouterInputs(
            now=0.0,
            replicas=snapshots((4, 0.0, 8), (3, 0.0, 16)),
            latency_model=latency_model(),
        )
        assert router.route(inputs) == 1

    def test_make_router_registry(self):
        assert make_router("round_robin").name == "round_robin"
        assert make_router("least_queue").name == "least_queue"
        assert make_router("latency_aware").name == "latency_aware"
        with pytest.raises(ValueError, match="unknown router"):
            make_router("dice")


class TestFleetRouting:
    def test_least_queue_balances_across_replicas(self):
        fleet = ReplicaFleet(
            engine_factory(), replicas=3, router="least_queue"
        )
        for i in range(6):
            fleet.submit(request(i, 0.0))
        assert [e.queue_depth for e in fleet.engines()] == [2, 2, 2]

    def test_round_robin_rotation(self):
        fleet = ReplicaFleet(
            engine_factory(), replicas=2, router="round_robin"
        )
        targets = [fleet.submit(request(i, 0.0)) for i in range(4)]
        assert targets == [0, 1, 0, 1]

class TestReplicaFleet:
    """The fleet's own bookkeeping: construction, routing guard, the
    per-replica busy clock and the event-time queries the loop uses."""

    def test_replicas_below_one_rejected(self):
        with pytest.raises(ValueError, match="replicas must be >= 1"):
            ReplicaFleet(engine_factory(), replicas=0)

    def test_factory_called_once_per_index_and_engines_stamped(self):
        calls = []
        build = engine_factory()

        def factory(index):
            calls.append(index)
            return build(index)

        tracer = Tracer()
        fleet = ReplicaFleet(factory, replicas=3, tracer=tracer)
        assert calls == [0, 1, 2]
        assert fleet.size == 3
        assert [e.replica_index for e in fleet.engines()] == [0, 1, 2]
        assert all(e.tracer is tracer for e in fleet.engines())

    def test_router_choice_outside_fleet_rejected(self):
        class Overshoot(Router):
            name = "overshoot"

            def route(self, inputs):
                return len(inputs.replicas)

        fleet = ReplicaFleet(engine_factory(), replicas=2, router=Overshoot())
        with pytest.raises(ValueError, match="outside the fleet of 2"):
            fleet.submit(request(0, 0.0))
        assert fleet.pending() == 0

    def test_router_sees_every_replica_in_index_order(self):
        seen = []

        class Spy(Router):
            name = "spy"

            def route(self, inputs):
                seen.append(tuple(
                    (r.index, r.queue_depth) for r in inputs.replicas
                ))
                return 1

        fleet = ReplicaFleet(engine_factory(), replicas=3, router=Spy())
        fleet.submit(request(0, 0.0))
        fleet.submit(request(1, 0.0))
        assert seen == [((0, 0), (1, 0), (2, 0)), ((0, 0), (1, 1), (2, 0))]

    def test_enqueue_event_names_routed_replica_at_arrival(self):
        tracer = Tracer()
        fleet = ReplicaFleet(
            engine_factory(), replicas=2, router="round_robin",
            tracer=tracer,
        )
        assert fleet.submit(request(0, 0.0)) == 0
        assert fleet.submit(request(1, 0.5)) == 1
        enqueues = [e for e in tracer.events if e["kind"] == "enqueue"]
        assert [(e["request_id"], e["replica"], e["time_s"])
                for e in enqueues] == [(0, 0, 0.0), (1, 1, 0.5)]

    def test_pending_counts_every_replica(self):
        fleet = ReplicaFleet(engine_factory(), replicas=3,
                             router="round_robin")
        for i in range(5):
            fleet.submit(request(i, 0.0))
        assert [e.queue_depth for e in fleet.engines()] == [2, 2, 1]
        assert fleet.pending() == 5

    def test_busy_replica_is_skipped_until_its_batch_finishes(self):
        fleet = ReplicaFleet(engine_factory(max_batch=4), replicas=1)
        for i in range(8):
            fleet.submit(request(i, 0.0))
        (first,) = fleet.step(0.0)
        assert first.size == 4
        # A full batch is queued, but the replica is still serving.
        assert fleet.step(first.finish_s / 2) == []
        (second,) = fleet.step(first.finish_s)
        assert second.start_s == first.finish_s
        assert fleet.finish_time_s() == second.finish_s

    def test_next_event_is_free_time_for_full_queue(self):
        fleet = ReplicaFleet(engine_factory(max_batch=4), replicas=1)
        for i in range(8):
            fleet.submit(request(i, 0.0))
        (record,) = fleet.step(0.0)
        assert fleet.next_event_s() == record.finish_s

    def test_next_event_waits_for_the_batch_timeout_when_partial(self):
        fleet = ReplicaFleet(engine_factory(max_batch=4), replicas=2,
                             router="round_robin")
        fleet.submit(request(0, 0.001))
        fleet.submit(request(1, 0.003))
        # engine_factory's timeout is 10 ms: replica 0 releases first.
        assert fleet.next_event_s() == pytest.approx(0.011)
        # Flushing releases a partial batch as soon as a replica is free.
        assert fleet.next_event_s(flush=True) == 0.0

    def test_idle_fleet_has_no_next_event_and_finishes_at_zero(self):
        fleet = ReplicaFleet(engine_factory(), replicas=2)
        assert fleet.next_event_s() is None
        assert fleet.next_event_s(flush=True) is None
        assert fleet.finish_time_s() == 0.0

    def test_empty_request_stream_simulates_to_zero(self):
        fleet = ReplicaFleet(engine_factory(), replicas=2)
        assert simulate_fleet(fleet, []) == 0.0
        assert all(e.stats.batches == 0 for e in fleet.engines())

    def test_simulate_sorts_arrivals_before_routing(self):
        tracer = Tracer()
        fleet = ReplicaFleet(engine_factory(), replicas=2,
                             router="round_robin", tracer=tracer)
        arrivals = [0.004, 0.0, 0.002, 0.006]
        simulate_fleet(
            fleet, [request(i, t) for i, t in enumerate(arrivals)]
        )
        # Round robin in arrival order (ids 1, 2, 0, 3) alternates.
        served = {0: [], 1: []}
        for e in tracer.events:
            if e["kind"] == "complete":
                served[e["replica"]].append(e["request_id"])
        assert {k: sorted(v) for k, v in served.items()} == {
            0: [0, 1], 1: [2, 3],
        }


class TestFleetLoopEdges:
    def test_end_of_stream_flushes_without_waiting_for_the_timeout(self):
        fleet = ReplicaFleet(engine_factory(max_batch=4), replicas=1)
        end_s = simulate_fleet(
            fleet, [request(i, 0.0) for i in range(3)]
        )
        # No arrival is left to fill the batch, so it leaves at t=0
        # instead of at the 10 ms timeout.
        assert end_s == pytest.approx(OVERHEAD + 3 * PER_IMAGE[16])

    def test_partial_batch_waits_for_the_timeout_mid_stream(self):
        fleet = ReplicaFleet(engine_factory(max_batch=4), replicas=1)
        end_s = simulate_fleet(
            fleet, [request(0, 0.0), request(1, 0.050)]
        )
        (first,) = [e.stats for e in fleet.engines()]
        assert first.batches == 2
        # Request 0 waited out its 10 ms timeout; request 1, the last
        # arrival, was flushed on landing.
        assert end_s == pytest.approx(0.050 + OVERHEAD + PER_IMAGE[16])
        assert max(first.latencies_s) == pytest.approx(
            0.010 + OVERHEAD + PER_IMAGE[16]
        )


class TestFleetLoopInvariants:
    """Properties of simulate_fleet over arbitrary arrival streams."""

    @settings(max_examples=30, deadline=None)
    @given(
        arrivals=st.lists(
            st.floats(0.0, 0.05, allow_nan=False), max_size=24
        ),
        replicas=st.integers(1, 4),
        router=st.sampled_from(("round_robin", "least_queue",
                                "latency_aware")),
        max_batch=st.integers(1, 5),
    )
    def test_every_request_served_once_in_order_without_overlap(
        self, arrivals, replicas, router, max_batch
    ):
        tracer = Tracer()
        fleet = ReplicaFleet(
            engine_factory(max_batch=max_batch), replicas=replicas,
            router=router, tracer=tracer,
        )
        requests = [request(i, t) for i, t in enumerate(arrivals)]
        end_s = simulate_fleet(fleet, requests)

        completes = [e for e in tracer.events if e["kind"] == "complete"]
        assert sorted(e["request_id"] for e in completes) == \
            list(range(len(requests)))
        assert all(e["start_s"] >= e["arrival_s"] for e in completes)
        batches = [e for e in tracer.events if e["kind"] == "batch"]
        assert all(1 <= b["size"] <= max_batch for b in batches)
        for index in range(replicas):
            lane = [b for b in batches if b["replica"] == index]
            for prev, nxt in zip(lane, lane[1:]):
                assert nxt["start_s"] >= prev["finish_s"]
        assert end_s == max((b["finish_s"] for b in batches), default=0.0)
        assert sum(e.stats.completed for e in fleet.engines()) == \
            len(requests)


class TestMaterialize:
    def test_materialize_returns_independent_identical_models(self, tmp_path):
        from repro.tensor import Tensor, no_grad

        registry = ModelRegistry(str(tmp_path))
        sp_net = build_sp_net(CFG)
        registry.register("m", sp_net, CFG, persist=True)
        a, _ = registry.materialize("m")
        b, _ = registry.materialize("m")
        assert a is not b and a is not registry.get("m")
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8)).astype(
            np.float32
        )
        a.eval(), b.eval()
        with no_grad():
            np.testing.assert_array_equal(
                a(Tensor(x), bits=8).data, b(Tensor(x), bits=8).data
            )

    def test_materialize_persists_live_only_model_first(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        registry.register("live", build_sp_net(CFG), CFG)  # not persisted
        sp_net, _ = registry.materialize("live")
        assert sp_net is not registry.get("live")
        assert (tmp_path / "live.npz").exists()

    def test_materialize_without_root_fails_loudly(self):
        registry = ModelRegistry()
        registry.register("live", build_sp_net(CFG), CFG)
        with pytest.raises(ValueError, match="live-only"):
            registry.materialize("live")

    def test_materialize_unknown_name(self, tmp_path):
        with pytest.raises(KeyError, match="unknown model"):
            ModelRegistry(str(tmp_path)).materialize("ghost")


class TestFleetEndToEnd:
    def test_fleet_reports_are_deterministic(self):
        a = run_fleet_sim(
            "bursty", "slo", FLEET_TINY, seed=3, replicas=3,
            router="least_queue",
        )
        b = run_fleet_sim(
            "bursty", "slo", FLEET_TINY, seed=3, replicas=3,
            router="least_queue",
        )
        assert json.dumps([r.to_json_dict() for r in a], sort_keys=True) == \
            json.dumps([r.to_json_dict() for r in b], sort_keys=True)

    def test_more_replicas_strictly_raise_throughput(self):
        (one,) = run_fleet_sim(
            "bursty", "slo", FLEET_TINY, seed=0, replicas=1,
            router="least_queue",
        )
        (four,) = run_fleet_sim(
            "bursty", "slo", FLEET_TINY, seed=0, replicas=4,
            router="least_queue",
        )
        assert four.num_requests == one.num_requests == 96
        assert four.throughput_rps > one.throughput_rps
        assert four.latency_p95_s <= one.latency_p95_s

    def test_every_router_serves_the_whole_stream(self):
        for router in ("round_robin", "least_queue", "latency_aware"):
            (report,) = run_fleet_sim(
                "bursty", "queue", FLEET_TINY, seed=1, replicas=2,
                router=router,
            )
            assert report.router == router
            assert report.num_requests == 96
            assert sum(report.occupancy.values()) == 96
            served = sum(
                sum(rep["occupancy"].values()) for rep in report.per_replica
            )
            assert served == 96

    def test_report_shape_and_per_replica_sections(self):
        (report,) = run_fleet_sim(
            "bursty", "slo", FLEET_TINY, seed=0, replicas=2,
            router="least_queue",
        )
        assert report.replicas == 2
        assert (
            report.latency_p50_s
            <= report.latency_p95_s
            <= report.latency_p99_s
            <= report.latency_max_s
        )
        assert len(report.per_replica) == 2
        for rep in report.per_replica:
            assert 0.0 <= rep["utilization"] <= 1.0
            assert rep["requests"] == sum(rep["occupancy"].values())
        payload = report.to_json_dict()
        assert set(payload["occupancy"]) == {"4", "8", "16"}
        json.dumps(payload)  # JSON-serialisable end to end

    def test_format_lists_every_replica_of_every_policy(self):
        reports = run_fleet_sim(
            "bursty", "all", FLEET_TINY, seed=0, replicas=2,
            router="latency_aware",
        )
        text = format_fleet_reports(reports)
        assert text.splitlines()[0].startswith(
            "serve-sim fleet scenario=bursty scale=fleet-tiny "
            "router=latency_aware replicas=2 slo="
        )
        for report in reports:
            for index in (0, 1):
                assert f"  {report.policy:<8} replica {index} [util " in text
        assert format_fleet_reports([]) == "(no reports)"

    def test_make_fleet_via_registry_materializes_replicas(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        sp_net = build_sp_net(CFG)
        registry.register("ckpt", sp_net, CFG, persist=True)
        fixture = prepare_simulation("constant", FLEET_TINY, config=CFG)
        fleet = make_fleet(
            fixture, "static", replicas=2, router="round_robin",
            registry=registry, model_name="ckpt",
        )
        nets = {id(e.sp_net) for e in fleet.engines()}
        assert len(nets) == 2 and id(sp_net) not in nets
        end_s = simulate_fleet(fleet, fixture.requests)
        report = build_fleet_report(
            "constant", "static", fixture.scale, fleet, end_s,
            fixture.slo_s,
        )
        assert report.num_requests == len(fixture.requests)

    def test_report_json_keys_are_pinned(self):
        (report,) = run_fleet_sim(
            "constant", "static", FLEET_TINY, seed=0, replicas=2,
            router="round_robin",
        )
        payload = report.to_json_dict()
        assert list(payload) == [
            "scenario", "policy", "router", "scale", "replicas",
            "num_requests", "duration_s", "throughput_rps",
            "latency_p50_s", "latency_p95_s", "latency_p99_s",
            "latency_mean_s", "latency_max_s", "slo_s", "slo_violations",
            "occupancy", "batches", "mean_batch_size", "switches",
            "accuracy", "energy_pj", "energy_per_request_pj",
            "per_replica",
        ]
        assert list(payload["per_replica"][0]) == [
            "replica", "requests", "batches", "mean_batch_size",
            "switches", "busy_s", "utilization", "occupancy",
        ]

    def test_make_fleet_gives_each_replica_private_state(self):
        fixture = prepare_simulation("constant", FLEET_TINY, config=CFG)
        fleet = make_fleet(fixture, "slo", replicas=3)
        engines = fleet.engines()
        assert len({id(e.controller) for e in engines}) == 3
        assert len({id(e.sp_net) for e in engines}) == 3
        assert fixture.sp_net not in [e.sp_net for e in engines]
        reference = fixture.sp_net.state_dict()
        for engine in engines:
            state = engine.sp_net.state_dict()
            assert set(state) == set(reference)
            for name, value in reference.items():
                np.testing.assert_array_equal(state[name], value)

    def test_make_fleet_registry_requires_model_name(self):
        fixture = prepare_simulation("constant", FLEET_TINY, config=CFG)
        with pytest.raises(ValueError, match="model_name"):
            make_fleet(fixture, "static", registry=ModelRegistry())
