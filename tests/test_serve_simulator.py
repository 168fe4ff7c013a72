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

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            generate_requests("flashmob", TINY, fixed_latency_model(), 16)


@pytest.mark.slow
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
