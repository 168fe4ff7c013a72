"""Replica fleet: routing, scaling, determinism, report shape."""

import json

import numpy as np
import pytest

from repro.api.config import AutoscaleConfig, ConfigError
from repro.serve import (
    Autoscaler,
    BitLatencyModel,
    InferenceEngine,
    InferenceRequest,
    LatencyAwareRouter,
    LeastQueueRouter,
    ModelRegistry,
    ReplicaFleet,
    ReplicaSnapshot,
    RoundRobinRouter,
    RouterInputs,
    SPNetConfig,
    StaticPolicy,
    build_fleet_report,
    build_sp_net,
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
    name="fleet-tiny", num_requests=96, image_size=8, num_classes=3,
    width_mult=0.25, bit_widths=BITS, max_batch=8, mapper_generations=2,
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

    def test_make_router_registry(self):
        assert make_router("round_robin").name == "round_robin"
        assert make_router("least_queue").name == "least_queue"
        assert make_router("latency_aware").name == "latency_aware"
        with pytest.raises(ValueError, match="unknown router"):
            make_router("dice")

    def test_router_names_is_live_view(self):
        from repro.api.registry import ROUTERS, choices
        from repro.serve.routing import Router

        name = "test-sticky"
        assert name not in choices("routers")

        @ROUTERS.register(name)
        class Sticky(Router):
            def route(self, inputs):
                return 0

        try:
            assert name in choices("routers")
            assert isinstance(make_router(name), Sticky)
        finally:
            ROUTERS._entries.pop(name, None)
        assert name not in choices("routers")


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

    def test_draining_replica_not_routable_but_finishes_queue(self):
        fleet = ReplicaFleet(
            engine_factory(), replicas=2, router="round_robin"
        )
        fleet.submit(request(0, 0.0))   # -> replica 0
        fleet._scale_down()             # drains replica 1 (empty -> stopped)
        assert fleet.replica_states() == ("active", "stopped")
        assert all(fleet.submit(request(i, 0.0)) == 0 for i in range(1, 4))
        # Now drain replica 0 while it holds the whole queue.
        fleet._replicas[0].state = "draining"
        fleet._replicas[1].state = "active"
        records = fleet.step(0.0)
        assert sum(r.size for r in records) == 4
        assert fleet.replica_states()[0] == "stopped"

    def test_no_active_replicas_rejected(self):
        fleet = ReplicaFleet(engine_factory(), replicas=1)
        fleet._replicas[0].state = "stopped"
        with pytest.raises(RuntimeError, match="no active replicas"):
            fleet.submit(request(0, 0.0))


class TestAutoscaler:
    def autoscaled_fleet(self, **overrides):
        cfg = dict(
            min_replicas=1, max_replicas=3,
            up_pressure=1.0, down_pressure=0.25, cooldown_batches=1.0,
        )
        cfg.update(overrides)
        return ReplicaFleet(
            engine_factory(), replicas=1, router="least_queue",
            autoscaler=Autoscaler(AutoscaleConfig(**cfg)),
        )

    def test_burst_scales_up_then_quiet_scales_down(self):
        fleet = self.autoscaled_fleet()
        # A synthetic burst, then a slow trickle giving the fleet time
        # to observe low pressure and retire the extra replicas.
        burst = [request(i, 0.0001 * i) for i in range(40)]
        trickle = [request(40 + i, 0.5 + 0.05 * i) for i in range(20)]
        simulate_fleet(fleet, burst + trickle)
        actions = [e.action for e in fleet.scale_events]
        assert "scale_up" in actions and "scale_down" in actions
        assert actions[0] == "scale_up"
        # Every event moves the active count by one, in range.
        for event in fleet.scale_events:
            assert abs(event.to_replicas - event.from_replicas) == 1
            assert 1 <= event.to_replicas <= 3
        times = [e.time_s for e in fleet.scale_events]
        assert times == sorted(times)
        # The quiet tail retires the burst capacity down to the minimum.
        assert fleet.num_active == 1
        assert fleet.pending() == 0

    def test_scale_up_honors_max_replicas(self):
        fleet = self.autoscaled_fleet(max_replicas=2)
        simulate_fleet(fleet, [request(i, 0.0001 * i) for i in range(64)])
        assert max(e.to_replicas for e in fleet.scale_events) <= 2
        assert fleet.size <= 2

    def test_cooldown_spaces_events(self):
        fleet = self.autoscaled_fleet(cooldown_batches=2.0)
        simulate_fleet(fleet, [request(i, 0.0001 * i) for i in range(64)])
        cooldown = 2.0 * fleet.full_batch_service_s()
        times = [e.time_s for e in fleet.scale_events]
        assert all(
            later - earlier >= cooldown - 1e-12
            for earlier, later in zip(times, times[1:])
        )

    def test_initial_replicas_outside_range_rejected(self):
        with pytest.raises(ValueError, match="autoscale range"):
            ReplicaFleet(
                engine_factory(), replicas=5,
                autoscaler=Autoscaler(
                    AutoscaleConfig(min_replicas=1, max_replicas=3)
                ),
            )

    def test_autoscale_config_validation(self):
        with pytest.raises(ConfigError, match="max_replicas"):
            AutoscaleConfig(min_replicas=4, max_replicas=2)
        with pytest.raises(ConfigError, match="flap"):
            AutoscaleConfig(up_pressure=0.5, down_pressure=0.5)
        with pytest.raises(ConfigError, match="positive"):
            AutoscaleConfig(min_replicas=0)


class TestAutoscalerLifecycleEdges:
    """Regressions for the replica lifecycle the autoscaler drives:
    draining replicas are invisible to every router, warm re-activation
    reuses the drained engine instead of re-materializing, and
    scale-down stops at the configured floor."""

    def drained_fleet(self, router):
        """3 replicas, middle one draining with work still queued."""
        fleet = ReplicaFleet(engine_factory(), replicas=3, router=router)
        fleet._replicas[1].engine.submit(request(99, 0.0))
        fleet._replicas[1].state = "draining"
        return fleet

    @pytest.mark.parametrize(
        "router", ["round_robin", "least_queue", "latency_aware"]
    )
    def test_draining_replica_excluded_by_every_router(self, router):
        fleet = self.drained_fleet(router)
        # The draining replica has the SHORTEST queue after one submit
        # lands elsewhere, so a router that forgot to filter by state
        # (least_queue, latency_aware) would pick it immediately.
        targets = [fleet.submit(request(i, 0.0)) for i in range(6)]
        assert 1 not in targets
        assert set(targets) <= {0, 2}

    def test_warm_reactivation_keeps_the_engine_instance(self):
        fleet = ReplicaFleet(
            engine_factory(), replicas=2, router="least_queue",
            autoscaler=Autoscaler(
                AutoscaleConfig(min_replicas=1, max_replicas=3)
            ),
        )
        drained_engine = fleet._replicas[1].engine
        fleet._scale_down()
        assert fleet.replica_states() == ("active", "stopped")
        fleet._scale_up()
        # Re-activation restores the SAME engine (and its model): no
        # new replica was materialized and no weights were rebuilt.
        assert fleet.replica_states() == ("active", "active")
        assert fleet._replicas[1].engine is drained_engine
        assert fleet.size == 2

    def test_scale_up_prefers_draining_over_stopped_over_new(self):
        fleet = ReplicaFleet(engine_factory(), replicas=3)
        fleet.max_replicas = 4
        fleet._replicas[1].state = "stopped"
        fleet._replicas[2].engine.submit(request(0, 0.0))
        fleet._replicas[2].state = "draining"
        fleet._scale_up()
        # The draining replica (work in flight) comes back first.
        assert fleet.replica_states() == ("active", "stopped", "active")
        fleet._scale_up()
        assert fleet.replica_states() == ("active", "active", "active")
        fleet._scale_up()            # only now is a new one materialized
        assert fleet.size == 4

    def test_scale_down_never_drops_below_min_replicas(self):
        fleet = ReplicaFleet(
            engine_factory(), replicas=2, router="least_queue",
            autoscaler=Autoscaler(AutoscaleConfig(
                min_replicas=2, max_replicas=3,
                up_pressure=50.0,        # never scale up
                down_pressure=10.0,      # always "quiet": pressure tiny
            )),
        )
        # A long trickle of idle time: the down signal holds at every
        # evaluation, yet the floor must hold too.
        simulate_fleet(
            fleet, [request(i, 0.05 * i) for i in range(24)]
        )
        assert fleet.num_active == 2
        assert all(e.to_replicas >= 2 for e in fleet.scale_events)

    def test_min_floor_holds_even_after_burst_cycle(self):
        fleet = ReplicaFleet(
            engine_factory(), replicas=2, router="least_queue",
            autoscaler=Autoscaler(AutoscaleConfig(
                min_replicas=2, max_replicas=3,
                up_pressure=1.0, down_pressure=0.5, cooldown_batches=1.0,
            )),
        )
        burst = [request(i, 0.0001 * i) for i in range(48)]
        trickle = [request(48 + i, 0.5 + 0.05 * i) for i in range(20)]
        simulate_fleet(fleet, burst + trickle)
        assert fleet.num_active >= 2
        assert all(e.to_replicas >= 2 for e in fleet.scale_events)


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


@pytest.mark.slow
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

    def test_autoscaled_fleet_is_deterministic(self):
        kwargs = dict(
            scenario="bursty", policy="slo", scale=FLEET_TINY, seed=0,
            replicas=1, router="latency_aware",
            autoscale=AutoscaleConfig(min_replicas=1, max_replicas=4),
        )
        a = run_fleet_sim(**kwargs)
        b = run_fleet_sim(**kwargs)
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
        assert report.replicas == 2 and report.max_replicas == 2
        assert not report.autoscaled and report.scale_events == []
        assert (
            report.latency_p50_s
            <= report.latency_p95_s
            <= report.latency_p99_s
            <= report.latency_max_s
        )
        assert len(report.per_replica) == 2
        for rep in report.per_replica:
            assert rep["state"] == "active"
            assert 0.0 <= rep["utilization"] <= 1.0
            assert rep["requests"] == sum(rep["occupancy"].values())
        payload = report.to_json_dict()
        assert set(payload["occupancy"]) == {"4", "8", "16"}
        json.dumps(payload)  # JSON-serialisable end to end

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

    def test_make_fleet_registry_requires_model_name(self):
        fixture = prepare_simulation("constant", FLEET_TINY, config=CFG)
        with pytest.raises(ValueError, match="model_name"):
            make_fleet(fixture, "static", registry=ModelRegistry())


class TestScaleEvent:
    def test_to_json_dict_round_trips(self):
        from repro.serve import ScaleEvent

        event = ScaleEvent(
            time_s=1.25, action="scale_up", from_replicas=2,
            to_replicas=3, reason="queue_pressure=2.10",
        )
        assert ScaleEvent(**event.to_json_dict()) == event

    def test_json_dict_survives_serialization(self):
        from repro.serve import ScaleEvent

        event = ScaleEvent(
            time_s=0.5, action="scale_down", from_replicas=4,
            to_replicas=3, reason="idle",
        )
        wire = json.loads(json.dumps(event.to_json_dict()))
        assert ScaleEvent(**wire) == event
