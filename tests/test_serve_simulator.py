"""Traffic simulator: determinism, scenario shapes, policy behaviour."""

import json

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.serve import (
    SERVE_SCALES,
    BitLatencyModel,
    ServeScale,
    format_reports,
    generate_requests,
    run_serve_sim,
)
from repro.serve.simulator import get_serve_scale


TINY = ServeScale(
    name="tiny", num_requests=72, image_size=8, num_classes=3,
    width_mult=0.25, bit_widths=(4, 8, 16), max_batch=8,
    mapper_generations=2,
)


def fixed_latency_model():
    return BitLatencyModel(
        {4: 0.001, 8: 0.002, 16: 0.004}, batch_overhead_s=0.001
    )


class TestScales:
    def test_registered_scales(self):
        assert set(SERVE_SCALES) == {"smoke", "default"}
        assert get_serve_scale("smoke").name == "smoke"
        assert get_serve_scale(TINY) is TINY

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            get_serve_scale("galactic")


class TestTraffic:
    def test_deterministic_arrivals(self):
        model = fixed_latency_model()
        rng_mod.set_seed(5)
        a = generate_requests("bursty", TINY, model, 16)
        rng_mod.set_seed(5)
        b = generate_requests("bursty", TINY, model, 16)
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]
        np.testing.assert_array_equal(a[0].image, b[0].image)
        assert [r.label for r in a] == [r.label for r in b]

    def test_arrivals_sorted_and_labelled(self):
        model = fixed_latency_model()
        requests = generate_requests("diurnal", TINY, model, 16)
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(0 <= r.label < TINY.num_classes for r in requests)

    def test_bursty_has_tighter_gaps_than_constant(self):
        model = fixed_latency_model()
        bursty = generate_requests("bursty", TINY, model, 16)
        constant = generate_requests("constant", TINY, model, 16)
        min_gap = lambda reqs: np.diff([r.arrival_s for r in reqs]).min()
        assert min_gap(bursty) < min_gap(constant)

    @pytest.mark.parametrize("scenario", ["constant", "bursty", "diurnal"])
    def test_every_scenario_yields_a_well_formed_stream(self, scenario):
        model = fixed_latency_model()
        requests = generate_requests(scenario, TINY, model, 16)
        assert [r.request_id for r in requests] == list(range(72))
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals) and arrivals[0] >= 0.0
        assert all(r.image.shape == (3, 8, 8) for r in requests)
        assert all(0 <= r.label < TINY.num_classes for r in requests)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            generate_requests("flashmob", TINY, fixed_latency_model(), 16)


class TestEndToEnd:
    def test_run_is_deterministic(self):
        a = run_serve_sim("bursty", "all", TINY, seed=3)
        b = run_serve_sim("bursty", "all", TINY, seed=3)
        assert json.dumps([r.to_json_dict() for r in a], sort_keys=True) == \
            json.dumps([r.to_json_dict() for r in b], sort_keys=True)

    def test_bursty_slo_switches_static_does_not(self):
        reports = {
            r.policy: r for r in run_serve_sim("bursty", "all", TINY, seed=0)
        }
        static, slo = reports["static"], reports["slo"]
        # Static serves everything at the highest precision...
        assert static.occupancy["16"] == TINY.num_requests
        assert static.switches == 0
        # ...while the SLO policy demonstrably sheds precision under the
        # bursts and tames the tail.
        low_precision = slo.occupancy["4"] + slo.occupancy["8"]
        assert low_precision > 0
        assert slo.switches > 0
        assert slo.latency_p95_s < static.latency_p95_s
        assert slo.slo_violations <= static.slo_violations

    def test_report_shape(self):
        (report,) = run_serve_sim("constant", "static", TINY, seed=1)
        assert report.num_requests == TINY.num_requests
        assert report.throughput_rps > 0
        assert (
            report.latency_p50_s
            <= report.latency_p95_s
            <= report.latency_p99_s
            <= report.latency_max_s
        )
        assert sum(report.occupancy.values()) == TINY.num_requests
        assert report.accuracy is not None
        assert set(report.accuracy_per_bit) == {"4", "8", "16"}
        text = format_reports([report])
        assert "constant" in text and "static" in text

    def test_single_policy_selection(self):
        reports = run_serve_sim("constant", "queue", TINY, seed=0)
        assert [r.policy for r in reports] == ["queue"]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_serve_sim("tsunami", "all", TINY, seed=0)

    def test_unknown_policy_and_router_list_the_choices(self):
        from repro.serve.cluster import run_fleet_sim
        from repro.serve.simulator import prepare_simulation

        fixture = prepare_simulation(
            "constant", TINY, latency_model=fixed_latency_model()
        )
        with pytest.raises(ValueError, match=r"unknown policy 'yolo'.*slo"):
            run_serve_sim("constant", "yolo", fixture=fixture)
        with pytest.raises(ValueError,
                           match=r"unknown router 'dice'.*least_queue"):
            run_fleet_sim("constant", "slo", replicas=2, router="dice",
                          fixture=fixture)
        assert format_reports([]) == "(no reports)"

    def test_existing_model_gets_matching_traffic(self):
        """A passed model's config overrides the scale's model fields."""
        from repro.serve import SPNetConfig, build_sp_net
        from repro.serve.simulator import prepare_simulation

        config = SPNetConfig(
            model="resnet8", bit_widths=(4, 8), num_classes=2,
            width_mult=0.25, image_size=8,
        )
        sp_net = build_sp_net(config)
        fixture = prepare_simulation("constant", "smoke",
                                     sp_net=sp_net, config=config)
        req = fixture.requests[0]
        assert req.image.shape == (3, 8, 8)        # config, not smoke's 12
        assert all(r.label < 2 for r in fixture.requests)
        assert set(fixture.latency_model.per_image_s) == {4, 8}

    def test_custom_config_builds_matching_fresh_model(self):
        """config without sp_net customises the freshly built model."""
        from repro.serve import SPNetConfig
        from repro.serve.simulator import prepare_simulation

        config = SPNetConfig(
            model="resnet8", bit_widths=(2, 4), num_classes=2,
            width_mult=0.25, image_size=8,
        )
        fixture = prepare_simulation("constant", "smoke", config=config)
        assert fixture.sp_net.bit_widths == (2, 4)
        assert fixture.requests[0].image.shape == (3, 8, 8)
        assert set(fixture.latency_model.per_image_s) == {2, 4}

    def test_existing_model_requires_config(self):
        from repro.serve import SPNetConfig, build_sp_net
        from repro.serve.simulator import prepare_simulation

        config = SPNetConfig(
            model="resnet8", bit_widths=(4, 8), num_classes=2,
            width_mult=0.25, image_size=8,
        )
        with pytest.raises(ValueError, match="SPNetConfig"):
            prepare_simulation("constant", "smoke",
                               sp_net=build_sp_net(config))


class TestDispatchSchedule:
    """Pin the single-engine dispatch schedule on a fixed latency model.

    Every asserted field follows from arrivals, the latency model and
    the policies alone — none depends on forward-pass numerics — so a
    change to the event loop that reorders, merges or delays a single
    batch shows up here exactly.
    """

    # policy -> (duration_s, (p50, p95, p99, max) latency,
    #            slo_violations, occupancy, batches, switches)
    EXPECTED = {
        "static": (
            0.6709423665892784,
            (0.04600000000000004, 0.08776869349961548,
             0.10277552871872384, 0.11264911825045243),
            11, {"4": 0, "8": 0, "16": 72}, 17, 0,
        ),
        "slo": (
            0.6709423665892784,
            (0.04097472390539439, 0.05655543888914228,
             0.06392824429263123, 0.06864911825045239),
            0, {"4": 8, "8": 8, "16": 56}, 18, 3,
        ),
        "queue": (
            0.6709423665892784,
            (0.0454455713547038, 0.07176869349961547,
             0.08677552871872382, 0.09664911825045241),
            2, {"4": 0, "8": 8, "16": 64}, 17, 2,
        ),
    }

    def test_bursty_schedule_is_pinned(self):
        from repro.serve.simulator import prepare_simulation

        rng_mod.set_seed(0)
        fixture = prepare_simulation(
            "bursty", TINY, latency_model=fixed_latency_model()
        )
        reports = run_serve_sim("bursty", "all", seed=0, fixture=fixture)
        assert [r.policy for r in reports] == list(self.EXPECTED)
        for r in reports:
            duration, tail, viol, occupancy, batches, switches = (
                self.EXPECTED[r.policy]
            )
            assert r.duration_s == pytest.approx(duration, rel=1e-12)
            assert (
                r.latency_p50_s, r.latency_p95_s,
                r.latency_p99_s, r.latency_max_s,
            ) == pytest.approx(tail, rel=1e-12)
            assert r.slo_violations == viol
            assert r.occupancy == occupancy
            assert r.batches == batches
            assert r.switches == switches


class TestOtherScenarioSchedules:
    """Pin the constant and diurnal single-engine schedules on the same
    fixed latency model as :class:`TestDispatchSchedule`."""

    # (scenario, policy) -> (duration_s, (p50, p95, p99, max) latency,
    #                        occupancy, batches, switches)
    CONSTANT = (
        0.6229816847948506,
        (0.04200000000000002, 0.05858981439568872,
         0.062334655231168296, 0.06315398355575258),
        {"4": 0, "8": 0, "16": 72}, 16, 0,
    )
    DIURNAL_FULL_PRECISION = (
        1.054970358564186,
        (0.04458528791316102, 0.06478468879981526,
         0.06989697896203327, 0.07071530778354018),
        {"4": 0, "8": 0, "16": 72}, 18, 0,
    )
    EXPECTED = {
        ("constant", "static"): CONSTANT,
        ("constant", "slo"): CONSTANT,
        ("constant", "queue"): CONSTANT,
        ("diurnal", "static"): DIURNAL_FULL_PRECISION,
        ("diurnal", "slo"): (
            1.054970358564186,
            (0.04200000000000001, 0.06200000000000003,
             0.06380036306226344, 0.0638999910961079),
            {"4": 0, "8": 8, "16": 64}, 18, 2,
        ),
        ("diurnal", "queue"): DIURNAL_FULL_PRECISION,
    }

    @pytest.mark.parametrize("scenario, policy", list(EXPECTED))
    def test_schedule_is_pinned(self, scenario, policy):
        from repro.serve.simulator import prepare_simulation

        rng_mod.set_seed(0)
        fixture = prepare_simulation(
            scenario, TINY, latency_model=fixed_latency_model()
        )
        (r,) = run_serve_sim(scenario, policy, seed=0, fixture=fixture)
        duration, tail, occupancy, batches, switches = (
            self.EXPECTED[scenario, policy]
        )
        assert r.duration_s == pytest.approx(duration, rel=1e-12)
        assert (
            r.latency_p50_s, r.latency_p95_s,
            r.latency_p99_s, r.latency_max_s,
        ) == pytest.approx(tail, rel=1e-12)
        assert r.slo_violations == 0
        assert r.occupancy == occupancy
        assert r.batches == batches
        assert r.switches == switches


class TestOneReplicaFleetIsTheEngine:
    """A one-replica fleet serves exactly the single-engine schedule:
    every field the two reports share is equal."""

    @pytest.mark.parametrize("policy", ["static", "slo", "queue"])
    @pytest.mark.parametrize("scenario", ["constant", "bursty", "diurnal"])
    def test_reports_agree(self, scenario, policy):
        from repro.serve.cluster import run_fleet_sim
        from repro.serve.simulator import prepare_simulation

        rng_mod.set_seed(0)
        fixture = prepare_simulation(
            scenario, TINY, latency_model=fixed_latency_model()
        )
        (single,) = run_serve_sim(scenario, policy, seed=0, fixture=fixture)
        (fleet,) = run_fleet_sim(
            scenario, policy, seed=0, replicas=1, fixture=fixture,
        )
        one = single.to_json_dict()
        shared = {
            k: v for k, v in fleet.to_json_dict().items() if k in one
        }
        assert set(shared) == set(one) - {"accuracy_per_bit"}
        assert shared == {k: one[k] for k in shared}
        (row,) = fleet.per_replica
        assert (row["requests"], row["batches"], row["switches"]) == (
            single.num_requests, single.batches, single.switches,
        )
        assert row["occupancy"] == single.occupancy


class TestFleetDispatchSchedule:
    """Pin the 3-replica fleet schedule under each built-in router.

    Same fixed latency model and ``slo`` policy as
    :class:`TestDispatchSchedule`; every asserted field follows from
    arrivals, routing and the latency model alone, so a change to the
    fleet loop that moves a single request or batch shows up here.
    """

    # router -> (duration_s, (p50, p95, p99, max) latency, batches,
    #            switches, per-replica (requests, batches, switches))
    EXPECTED = {
        "round_robin": (
            0.6669423665892784,
            (0.038000000000000034, 0.052926914336856354,
             0.057804995957569716, 0.06355939390086485),
            36, 0, [(24, 11, 0), (24, 12, 0), (24, 13, 0)],
        ),
        "least_queue": (
            0.6669423665892784,
            (0.03840782456895689, 0.06101415255404078,
             0.062000000000000055, 0.062000000000000055),
            37, 0, [(27, 15, 0), (27, 13, 0), (18, 9, 0)],
        ),
        "latency_aware": (
            0.6709423665892784,
            (0.038000000000000034, 0.05834697912245088,
             0.061794685055512846, 0.062),
            21, 0, [(40, 12, 0), (24, 8, 0), (8, 1, 0)],
        ),
    }

    @pytest.mark.parametrize("router", list(EXPECTED))
    def test_bursty_fleet_schedule_is_pinned(self, router):
        from repro.serve.cluster import run_fleet_sim
        from repro.serve.simulator import prepare_simulation

        rng_mod.set_seed(0)
        fixture = prepare_simulation(
            "bursty", TINY, latency_model=fixed_latency_model()
        )
        (r,) = run_fleet_sim(
            "bursty", "slo", seed=0, replicas=3, router=router,
            fixture=fixture,
        )
        duration, tail, batches, switches, per_replica = self.EXPECTED[router]
        assert r.duration_s == pytest.approx(duration, rel=1e-12)
        assert (
            r.latency_p50_s, r.latency_p95_s,
            r.latency_p99_s, r.latency_max_s,
        ) == pytest.approx(tail, rel=1e-12)
        assert r.batches == batches
        assert r.switches == switches
        assert [
            (p["requests"], p["batches"], p["switches"])
            for p in r.per_replica
        ] == per_replica
