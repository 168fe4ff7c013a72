"""Workload lab: traces, scenario library, fault injection, loadtest."""

import dataclasses
import json

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.api.config import ConfigError, FaultConfig, LoadTestConfig
from repro.api.registry import SCENARIOS, TRACE_TRANSFORMS
from repro.serve.cluster import (
    build_fleet_report,
    make_fleet,
    simulate_fleet,
)
from repro.serve.simulator import (
    ServeScale,
    get_serve_scale,
    make_engine,
    prepare_simulation,
    simulate,
)
from repro.workload import (
    FaultEvent,
    FaultSchedule,
    amplitude_modulate,
    apply_transforms,
    record_trace,
    resolve_fault_plan,
    run_loadtest,
    splice,
    tenant_mix,
    time_scale,
)
from repro.workload.loadtest import (
    pareto_frontier,
    render_markdown,
    write_loadtest_artifacts,
)
from repro.workload.trace import (
    Trace,
    TraceEvent,
    TraceSource,
)

TINY = ServeScale(
    name="workload-tiny", num_requests=64, image_size=8, num_classes=3,
    width_mult=0.25, bit_widths=(4, 8, 16), max_batch=8,
    mapper_generations=2,
)


@pytest.fixture(scope="module")
def fixture():
    rng_mod.set_seed(7)
    return prepare_simulation("bursty", TINY)


def fleet_report(fixture, requests, policy="slo", replicas=2,
                 router="least_queue", faults=None, scenario="bursty"):
    fleet = make_fleet(fixture, policy, replicas=replicas, router=router)
    end_s = simulate_fleet(fleet, requests, faults)
    return build_fleet_report(
        scenario, policy, fixture.scale, fleet, end_s, fixture.slo_s
    )


# ----------------------------------------------------------------------
# Scenario library
# ----------------------------------------------------------------------
class TestScenarioLibrary:
    NEW = ("flash_crowd", "ramp", "sawtooth", "on_off", "pareto_heavy_tail")

    def test_registered_and_resolvable(self):
        for name in self.NEW:
            assert name in SCENARIOS
            assert callable(SCENARIOS.get(name))

    @pytest.mark.parametrize("name", NEW)
    def test_gaps_shape_and_positivity(self, name):
        rng = np.random.default_rng(0)
        gaps = SCENARIOS.get(name)(200, 100.0, rng)
        assert gaps.shape == (200,)
        assert np.all(gaps > 0)

    @pytest.mark.parametrize("name", NEW)
    def test_gaps_deterministic_for_seeded_rng(self, name):
        a = SCENARIOS.get(name)(64, 50.0, np.random.default_rng(3))
        b = SCENARIOS.get(name)(64, 50.0, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_flash_crowd_middle_is_denser(self):
        rng = np.random.default_rng(1)
        gaps = SCENARIOS.get("flash_crowd")(500, 100.0, rng)
        crowd = gaps[200:300].mean()
        calm = np.concatenate([gaps[:200], gaps[300:]]).mean()
        assert crowd < calm / 4

    def test_ramp_accelerates(self):
        rng = np.random.default_rng(2)
        gaps = SCENARIOS.get("ramp")(400, 100.0, rng)
        assert gaps[:100].mean() > gaps[-100:].mean()

    def test_simulator_runs_new_scenarios_end_to_end(self):
        rng_mod.set_seed(0)
        fx = prepare_simulation("flash_crowd", TINY)
        engine = make_engine(fx, "slo")
        simulate(engine, fx.requests)
        assert engine.stats.completed == TINY.num_requests


# ----------------------------------------------------------------------
# Trace format
# ----------------------------------------------------------------------
class TestTrace:
    def test_record_shape_and_meta(self, fixture):
        trace = record_trace(fixture, "bursty", 7)
        assert len(trace) == TINY.num_requests
        assert trace.meta["scenario"] == "bursty"
        assert trace.meta["seed"] == 7
        assert trace.sources[0].split == "traffic-bursty"
        assert trace.duration_s == fixture.requests[-1].arrival_s

    def test_jsonl_round_trip_is_lossless(self, fixture):
        trace = record_trace(fixture, "bursty", 7)
        assert Trace.from_jsonl(trace.to_jsonl()) == trace

    def test_save_load_file(self, fixture, tmp_path):
        trace = record_trace(fixture, "bursty", 7)
        path = trace.save(str(tmp_path / "t.jsonl"))
        assert Trace.load(path) == trace

    def test_materialize_is_bit_identical(self, fixture):
        trace = record_trace(fixture, "bursty", 7)
        rng_mod.set_seed(4321)          # unrelated global state
        requests = trace.materialize()
        assert rng_mod.get_seed() == 4321   # restored afterwards
        for orig, replayed in zip(fixture.requests, requests):
            assert orig.arrival_s == replayed.arrival_s
            assert orig.label == replayed.label
            np.testing.assert_array_equal(orig.image, replayed.image)

    def test_materialize_restores_stream_position_not_just_seed(
        self, fixture
    ):
        """Regression: restoring by re-seeding would rewind the global
        stream, making post-replay draws repeat pre-seed values."""
        trace = record_trace(fixture, "bursty", 7)
        rng_mod.set_seed(1234)
        first = rng_mod.get_rng().normal(size=4)     # advance the stream
        trace.materialize()
        after = rng_mod.get_rng().normal(size=4)
        assert not np.array_equal(first, after)
        # The continuation matches an uninterrupted stream exactly.
        rng_mod.set_seed(1234)
        rng_mod.get_rng().normal(size=4)
        np.testing.assert_array_equal(
            after, rng_mod.get_rng().normal(size=4)
        )

    def test_replay_reproduces_fleet_report_exactly(self, fixture):
        trace = record_trace(fixture, "bursty", 7)
        original = fleet_report(fixture, fixture.requests)
        replayed = fleet_report(fixture, trace.materialize())
        assert json.dumps(original.to_json_dict(), sort_keys=True) == \
            json.dumps(replayed.to_json_dict(), sort_keys=True)

    def test_version_and_format_guards(self, fixture):
        trace = record_trace(fixture, "bursty", 7)
        text = trace.to_jsonl()
        with pytest.raises(ValueError, match="not a repro-trace"):
            Trace.from_jsonl(text.replace("repro-trace", "other", 1))
        with pytest.raises(ValueError, match="version"):
            Trace.from_jsonl(text.replace('"version": 1', '"version": 99'))
        truncated = "\n".join(text.splitlines()[:-2])
        with pytest.raises(ValueError, match="truncated"):
            Trace.from_jsonl(truncated)

    def test_event_reference_validation(self):
        source = TraceSource(
            name="serve", num_classes=3, image_size=8, difficulty=2.0,
            split="traffic-x", size=4, seed=0,
        )
        bad = Trace(
            name="bad", sources=(source,),
            events=(TraceEvent(0, 0.0, 1, source=0, data_index=99),),
        )
        with pytest.raises(ValueError, match="outside source size"):
            bad.materialize()

    def test_source_reference_validation(self):
        source = TraceSource(
            name="serve", num_classes=3, image_size=8, difficulty=2.0,
            split="traffic-x", size=4, seed=0,
        )
        bad = Trace(
            name="bad", sources=(source,),
            events=(TraceEvent(0, 0.0, 1, source=1, data_index=0),),
        )
        with pytest.raises(ValueError, match="1 source"):
            bad.materialize()
        with pytest.raises(ValueError, match="1 source"):
            Trace.from_jsonl(bad.to_jsonl())

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Trace.from_jsonl("\n\n")

    def test_unlabelled_events_round_trip(self, fixture):
        trace = record_trace(fixture, "bursty", 7)
        events = tuple(
            dataclasses.replace(e, label=None) for e in trace.events
        )
        unlabelled = trace.derive("unlabelled", events)
        again = Trace.from_jsonl(unlabelled.to_jsonl())
        assert again == unlabelled
        assert all(r.label is None for r in again.materialize())

    def test_empty_trace_has_zero_duration(self):
        assert Trace(name="empty", sources=(), events=()).duration_s == 0.0


class TestTraceTransforms:
    def test_time_scale_scales_arrivals(self, fixture):
        trace = record_trace(fixture, "bursty", 7)
        halved = time_scale(trace, 0.5)
        assert halved.duration_s == pytest.approx(trace.duration_s * 0.5)
        assert halved.meta["lineage"][-1]["transform"] == "time_scale"
        with pytest.raises(ValueError, match="factor"):
            time_scale(trace, 0.0)

    def test_splice_grafts_and_renumbers(self, fixture):
        trace = record_trace(fixture, "bursty", 7)
        cut = trace.duration_s / 2
        joined = splice(trace, trace, cut)
        kept = sum(1 for e in trace.events if e.arrival_s < cut)
        assert len(joined) == kept + len(trace)
        assert [e.request_id for e in joined.events] == list(range(len(joined)))
        assert len(joined.sources) == 2
        # grafted events sit after the splice point
        grafted = [e for e in joined.events if e.source == 1]
        assert min(e.arrival_s for e in grafted) >= cut

    def test_tenant_mix_preserves_tenant_identity(self, fixture):
        trace = record_trace(fixture, "bursty", 7)
        mixed = tenant_mix(trace, time_scale(trace, 2.0))
        assert len(mixed) == 2 * len(trace)
        assert len(mixed.sources) == 2
        arrivals = [e.arrival_s for e in mixed.events]
        assert arrivals == sorted(arrivals)
        requests = mixed.materialize()
        assert len(requests) == 2 * len(trace)

    def test_amplitude_modulate_keeps_count_and_orders(self, fixture):
        trace = record_trace(fixture, "bursty", 7)
        warped = amplitude_modulate(trace, cycles=3.0, depth=0.6)
        assert len(warped) == len(trace)
        arrivals = [e.arrival_s for e in warped.events]
        assert arrivals == sorted(arrivals)
        with pytest.raises(ValueError, match="depth"):
            amplitude_modulate(trace, depth=1.5)

    def test_transforms_compose_via_registry(self, fixture):
        trace = record_trace(fixture, "bursty", 7)
        out = apply_transforms(trace, [
            {"transform": "time_scale", "factor": 2.0},
            {"transform": "amplitude_modulate", "cycles": 1.0, "depth": 0.3},
        ])
        assert len(out) == len(trace)
        assert [s["transform"] for s in out.meta["lineage"]] == \
            ["time_scale", "amplitude_modulate"]
        with pytest.raises(KeyError):
            apply_transforms(trace, [{"transform": "nope"}])
        assert "time_scale" in TRACE_TRANSFORMS

    def test_recorded_lineage_reapplies_to_the_same_trace(self, fixture):
        trace = record_trace(fixture, "bursty", 7)
        derived = apply_transforms(trace, [
            {"transform": "time_scale", "factor": 0.5},
            {"transform": "amplitude_modulate", "cycles": 2.0, "depth": 0.4},
        ])
        assert apply_transforms(trace, derived.meta["lineage"]) == derived

    def test_step_without_transform_name_rejected(self, fixture):
        trace = record_trace(fixture, "bursty", 7)
        with pytest.raises(ValueError, match="missing 'transform'"):
            apply_transforms(trace, [{"factor": 2.0}])

    def test_splice_rejects_negative_point(self, fixture):
        trace = record_trace(fixture, "bursty", 7)
        with pytest.raises(ValueError, match="splice point"):
            splice(trace, trace, -1.0)

    def test_tenant_mix_needs_a_second_trace(self, fixture):
        with pytest.raises(ValueError, match="at least two"):
            tenant_mix(record_trace(fixture, "bursty", 7))

    def test_tenant_mix_payloads_come_from_each_tenants_source(
        self, fixture
    ):
        base = record_trace(fixture, "bursty", 7)
        other = record_trace(fixture, "bursty", 8, name="other")
        mixed = tenant_mix(base, other)
        own = {0: base.materialize(), 1: other.materialize()}
        for event, req in zip(mixed.events, mixed.materialize()):
            np.testing.assert_array_equal(
                req.image, own[event.source][event.data_index].image
            )


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_resolve_plan_expands_windows(self):
        plan = resolve_fault_plan(
            (FaultConfig(kind="replica_outage", at=0.25, duration=0.5),
             FaultConfig(kind="latency_spike", at=0.1, duration=0.2,
                         factor=3.0)),
            span_s=100.0,
        )
        times = []
        while plan.next_time_s() is not None:
            times.append(plan.next_time_s())
            plan._next += 1
        assert times == pytest.approx([10.0, 25.0, 30.0, 75.0])

    def test_unknown_kind_rejected(self):
        bad = dataclasses.make_dataclass(
            "Bad", [("kind", str), ("at", float), ("duration", float),
                    ("replica", int), ("factor", float)],
        )("meteor_strike", 0.1, 0.1, -1, 2.0)
        with pytest.raises(ValueError, match="meteor_strike"):
            resolve_fault_plan((bad,), 10.0)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(time_s=0.0, kind="meteor_strike")

    def test_outage_fails_and_recovers_replica(self, fixture):
        report = fleet_report(
            fixture, fixture.requests, replicas=3,
            faults=resolve_fault_plan(
                (FaultConfig(kind="replica_outage", at=0.2, duration=0.3),),
                fixture.requests[-1].arrival_s,
            ),
        )
        kinds = [e["kind"] for e in report.fault_events]
        assert kinds == ["replica_outage", "replica_recovery"]
        assert all(e["applied"] for e in report.fault_events)
        # no request lost across the outage
        assert report.num_requests == TINY.num_requests

    def test_latency_spike_slows_the_tail(self, fixture):
        base = fleet_report(fixture, fixture.requests)
        spiked = fleet_report(
            fixture, fixture.requests,
            faults=resolve_fault_plan(
                (FaultConfig(kind="latency_spike", at=0.0, duration=1.0,
                             factor=6.0),),
                fixture.requests[-1].arrival_s,
            ),
        )
        assert spiked.latency_p95_s > base.latency_p95_s
        assert spiked.num_requests == base.num_requests

    def test_last_active_replica_is_protected(self, fixture):
        report = fleet_report(
            fixture, fixture.requests, replicas=1,
            faults=resolve_fault_plan(
                (FaultConfig(kind="replica_outage", at=0.0, duration=0.9),),
                fixture.requests[-1].arrival_s,
            ),
        )
        assert report.fault_events[0]["applied"] is False
        assert report.num_requests == TINY.num_requests

    def test_fault_injected_run_is_deterministic(self, fixture):
        def run():
            return fleet_report(
                fixture, fixture.requests, replicas=3,
                faults=resolve_fault_plan(
                    (FaultConfig(kind="replica_outage", at=0.3,
                                 duration=0.2),
                     FaultConfig(kind="latency_spike", at=0.5,
                                 duration=0.25, factor=4.0)),
                    fixture.requests[-1].arrival_s,
                ),
            )

        a, b = run(), run()
        assert json.dumps(a.to_json_dict(), sort_keys=True) == \
            json.dumps(b.to_json_dict(), sort_keys=True)

    def test_simultaneous_outages_both_recover(self, fixture):
        """Regression: outage/recovery pairing is per-fault, so two
        outages at the same instant must each restore their own
        replica instead of colliding on a shared key."""
        report = fleet_report(
            fixture, fixture.requests, replicas=4,
            faults=resolve_fault_plan(
                (FaultConfig(kind="replica_outage", at=0.25, duration=0.25,
                             replica=0),
                 FaultConfig(kind="replica_outage", at=0.25, duration=0.25,
                             replica=1)),
                fixture.requests[-1].arrival_s,
            ),
        )
        recovered = [
            e["replica"] for e in report.fault_events
            if e["kind"] == "replica_recovery"
        ]
        assert sorted(recovered) == [0, 1]
        assert "failed" not in {r["state"] for r in report.per_replica}

    def test_recovery_inside_spike_window_stays_degraded(self, fixture):
        """Regression: a replica recovering while a fleet-wide latency
        spike is still active must come back at the spike's factor,
        not silently reset to full speed."""
        fleet = make_fleet(fixture, "static", replicas=2,
                           router="least_queue")
        span = fixture.requests[-1].arrival_s
        faults = resolve_fault_plan(
            (FaultConfig(kind="latency_spike", at=0.0, duration=0.9,
                         factor=5.0),
             FaultConfig(kind="replica_outage", at=0.2, duration=0.2,
                         replica=1)),
            span,
        )
        # Drive only far enough that the recovery fired but the spike
        # has not ended.
        faults.apply_due(0.5 * span, fleet)
        states = fleet.replica_states()
        assert states[1] == "active"          # recovered
        assert fleet.engines()[1].service_scale == 5.0

    def test_schedule_applies_in_time_order(self):
        class FleetSpy:
            def __init__(self):
                self.calls = []

            def set_service_scale(self, factor, now, index=None):
                self.calls.append((now, factor))

        spy = FleetSpy()
        schedule = FaultSchedule([
            FaultEvent(time_s=5.0, kind="latency_spike", factor=3.0),
            FaultEvent(time_s=1.0, kind="latency_spike", factor=2.0),
        ])
        assert schedule.next_time_s() == 1.0
        schedule.apply_due(10.0, spy)
        assert spy.calls == [(1.0, 2.0), (5.0, 3.0)]
        assert schedule.next_time_s() is None


# ----------------------------------------------------------------------
# Energy accounting
# ----------------------------------------------------------------------
class TestEnergyAccounting:
    def test_cost_model_prices_energy_per_bit(self, fixture):
        model = fixture.latency_model
        assert set(model.per_image_energy_pj) == set(model.per_image_s)
        # lower precision must be cheaper on the cost model
        assert model.per_image_energy_pj[4] < model.per_image_energy_pj[16]
        assert model.batch_energy_pj(4, 8) == \
            pytest.approx(8 * model.per_image_energy_pj[4])

    def test_unpriced_model_reports_no_energy(self):
        from repro.serve.engine import BitLatencyModel

        model = BitLatencyModel({4: 0.001, 8: 0.002})
        assert model.batch_energy_pj(4, 8) is None

    def test_reports_carry_energy_per_request(self, fixture):
        report = fleet_report(fixture, fixture.requests)
        assert report.energy_pj > 0
        assert report.energy_per_request_pj == \
            pytest.approx(report.energy_pj / report.num_requests)

    def test_static_highest_costs_more_energy_than_adaptive(self, fixture):
        static = fleet_report(fixture, fixture.requests, policy="static")
        queue = fleet_report(fixture, fixture.requests, policy="queue")
        assert queue.energy_per_request_pj <= static.energy_per_request_pj


# ----------------------------------------------------------------------
# Loadtest harness
# ----------------------------------------------------------------------
SMOKE_CFG = dict(
    name="lt-test", seed=0, scale="smoke",
    scenarios=["bursty", "flash_crowd"], policies=["slo", "static"],
    routers=["least_queue"], replicas=[1, 2], num_requests=48,
)


class TestLoadTestConfig:
    def test_round_trips(self):
        config = LoadTestConfig.from_dict(dict(
            SMOKE_CFG,
            faults=[{"kind": "latency_spike", "at": 0.2, "duration": 0.3}],
        ))
        assert LoadTestConfig.from_json(config.to_json()) == config
        assert config.grid_size == 8
        assert isinstance(config.faults[0], FaultConfig)

    @pytest.mark.parametrize("patch,match", [
        ({"scenarios": ["nope"]}, "unknown value"),
        ({"policies": ["nope"]}, "unknown value"),
        ({"routers": ["nope"]}, "unknown value"),
        ({"scale": "galactic"}, "unknown value"),
        ({"replicas": [0]}, ">= 1"),
        ({"replicas": []}, "non-empty"),
        ({"num_requests": -1}, ">= 0"),
        ({"faults": [{"kind": "meteor"}]}, "kind"),
        ({"faults": [{"at": 1.5}]}, "fraction"),
        ({"faults": [{"at": 0.9, "duration": 0.5}]}, "inside"),
        ({"faults": [{"factor": 0.5}]}, "factor"),
        # explicit fault target must exist in the SMALLEST grid cell
        ({"faults": [{"replica": 1}]}, "does not exist in every grid"),
    ])
    def test_validation_errors(self, patch, match):
        with pytest.raises(ConfigError, match=match):
            LoadTestConfig.from_dict(dict(SMOKE_CFG, **patch))

    def test_replicas_must_fit_autoscale_range(self):
        with pytest.raises(ConfigError, match="autoscale range"):
            LoadTestConfig.from_dict(dict(
                SMOKE_CFG, replicas=[8],
                autoscale={"min_replicas": 1, "max_replicas": 4},
            ))


class TestPareto:
    def cell(self, p95, energy, acc):
        return {
            "latency_p95_s": p95, "energy_per_request_pj": energy,
            "accuracy": acc,
        }

    def test_dominated_cells_excluded(self):
        cells = [
            self.cell(1.0, 10.0, 0.9),   # frontier
            self.cell(2.0, 20.0, 0.8),   # dominated by 0
            self.cell(0.5, 30.0, 0.7),   # frontier (fastest)
            self.cell(3.0, 5.0, 0.9),    # frontier (cheapest)
        ]
        assert pareto_frontier(cells) == [0, 2, 3]

    def test_unranked_cells_never_enter(self):
        cells = [
            self.cell(1.0, None, 0.9),
            self.cell(2.0, 10.0, None),
            self.cell(3.0, 10.0, 0.5),
        ]
        assert pareto_frontier(cells) == [2]

    def test_identical_cells_all_survive(self):
        cells = [self.cell(1.0, 1.0, 0.5), self.cell(1.0, 1.0, 0.5)]
        assert pareto_frontier(cells) == [0, 1]


@pytest.mark.slow
class TestLoadTestRun:
    @pytest.fixture(scope="class")
    def payload(self):
        config = LoadTestConfig.from_dict(dict(SMOKE_CFG, record_traces=True))
        return run_loadtest(config)

    def test_grid_covers_every_cell(self, payload):
        assert payload["grid_size"] == 8
        combos = {
            (c["scenario"], c["policy"], c["replicas"])
            for c in payload["grid"]
        }
        assert len(combos) == 8

    def test_energy_column_everywhere(self, payload):
        for cell in payload["grid"]:
            assert cell["energy_per_request_pj"] > 0

    def test_pareto_marked_and_listed(self, payload):
        marked = [c for c in payload["grid"] if c["pareto"]]
        assert marked
        assert len(payload["pareto"]) == len(marked)

    def test_markdown_renders_grid(self, payload):
        text = render_markdown(dict(payload))
        assert "| scenario |" in text
        assert "Pareto frontier" in text
        for cell in payload["grid"]:
            assert cell["scenario"] in text

    def test_artifacts_written_and_deterministic(self, payload, tmp_path):
        import copy

        paths = write_loadtest_artifacts(
            copy.deepcopy(payload), str(tmp_path / "a")
        )
        config = LoadTestConfig.from_dict(dict(SMOKE_CFG, record_traces=True))
        again = run_loadtest(config)
        paths2 = write_loadtest_artifacts(again, str(tmp_path / "b"))
        for key in ("report", "summary", "trace_bursty",
                    "trace_flash_crowd"):
            assert key in paths and key in paths2
            a = open(paths[key]).read()
            b = open(paths2[key]).read()
            assert a == b, f"{key} not deterministic"

    def test_recorded_trace_replays_to_same_cell(self, payload, tmp_path):
        """Acceptance: a recorded trace replayed through simulate_fleet
        reproduces the original grid cell exactly."""
        paths = write_loadtest_artifacts(
            dict(payload), str(tmp_path / "replay")
        )
        trace = Trace.load(paths["trace_bursty"])
        config = LoadTestConfig.from_dict(dict(SMOKE_CFG, record_traces=True))
        scale = dataclasses.replace(
            get_serve_scale(config.scale), num_requests=config.num_requests
        )
        rng_mod.set_seed(config.seed)
        fixture = prepare_simulation("bursty", scale)
        report = fleet_report(
            fixture, trace.materialize(), policy="slo", replicas=1,
        )
        cell = next(
            c for c in payload["grid"]
            if (c["scenario"], c["policy"], c["replicas"]) ==
            ("bursty", "slo", 1)
        )
        assert report.latency_p95_s == cell["latency_p95_s"]
        assert report.throughput_rps == cell["throughput_rps"]
        assert report.energy_per_request_pj == cell["energy_per_request_pj"]
        assert report.accuracy == cell["accuracy"]
