"""Evolutionary AutoMapper: Alg. 1 behaviour and search quality."""

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.core.automapper import (
    AutoMapper,
    AutoMapperConfig,
    bit_workloads,
    map_bit_widths,
    random_search_layer,
)
from repro.hardware import (
    ConvWorkload,
    alexnet_workloads,
    evaluate_layer,
    extract_workloads,
    eyeriss_like_asic,
    random_dataflow,
)
from repro.hardware.costmodel import make_valid

WL = ConvWorkload("t", 1, 64, 32, 14, 14, 3, 3)
DEV = eyeriss_like_asic()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AutoMapperConfig(metric="speed")
        with pytest.raises(ValueError):
            AutoMapperConfig(pool_size=1)


class TestLayerSearch:
    def test_returns_valid_dataflow(self):
        am = AutoMapper(DEV, AutoMapperConfig(generations=6))
        flow, cost = am.search_layer(WL)
        assert cost.valid
        assert flow.covers(WL)

    def test_beats_mean_random_sample(self):
        rng_mod.set_seed(0)
        am = AutoMapper(DEV, AutoMapperConfig(generations=15, metric="edp"))
        _, cost = am.search_layer(WL)
        rng = np.random.default_rng(0)
        randoms = []
        for _ in range(30):
            f = make_valid(WL, random_dataflow(WL, DEV, rng), DEV)
            c = evaluate_layer(WL, f, DEV)
            if c.valid:
                randoms.append(c.edp)
        assert cost.edp < np.mean(randoms)

    def test_beats_random_search_at_equal_budget(self):
        """The paper's motivation for evolution over random search.

        A per-seed comparison is noisy on small layers, so compare the
        medians of three independent searches at equal budgets.
        """
        evo, rnd = [], []
        for seed in range(3):
            rng_mod.set_seed(seed)
            cfg = AutoMapperConfig(pool_size=16, breed_batch=8,
                                   generations=30, metric="edp",
                                   seed_key=f"evo-t{seed}")
            am = AutoMapper(DEV, cfg)
            _, evo_cost = am.search_layer(WL)
            evo.append(evo_cost.edp)
            _, rnd_cost = random_search_layer(
                WL, DEV, am.evaluations, metric="edp",
                rng=np.random.default_rng(100 + seed),
            )
            rnd.append(rnd_cost.edp)
        assert np.median(evo) <= np.median(rnd) * 1.1

    def test_cache_dedupes_identical_shapes(self):
        am = AutoMapper(DEV, AutoMapperConfig(generations=4))
        am.search_layer(WL)
        evals_after_first = am.evaluations
        am.search_layer(WL)  # same shape: served from cache
        assert am.evaluations == evals_after_first

    def test_goal_stops_early(self):
        generous_goal = 1.0  # EDP in J*s — trivially met by any mapping
        am = AutoMapper(DEV, AutoMapperConfig(generations=1000,
                                              goal=generous_goal))
        am.search_layer(WL)
        # Pool built (24) + at most one breed batch before the goal check.
        assert am.evaluations <= 24 + 12

    def test_metric_energy_vs_edp_differ(self):
        rng_mod.set_seed(1)
        am_e = AutoMapper(DEV, AutoMapperConfig(generations=10,
                                                metric="energy",
                                                seed_key="m-e"))
        am_d = AutoMapper(DEV, AutoMapperConfig(generations=10,
                                                metric="latency",
                                                seed_key="m-d"))
        _, ce = am_e.search_layer(WL)
        _, cd = am_d.search_layer(WL)
        assert ce.energy_pj <= cd.energy_pj * 1.5


class TestNetworkSearch:
    def test_multicycle_network(self):
        am = AutoMapper(DEV, AutoMapperConfig(generations=4))
        wls = alexnet_workloads()[:3]
        res = am.search_network(wls, pipeline=False)
        assert res.network_cost.valid
        assert len(res.dataflows) == 3

    def test_pipeline_network(self):
        am = AutoMapper(DEV, AutoMapperConfig(generations=4))
        wls = alexnet_workloads()[:3]
        res = am.search_network(wls, pipeline=True)
        assert res.network_cost.valid
        assert res.pipeline

    def test_auto_pipeline_choice_returns_better(self):
        am = AutoMapper(DEV, AutoMapperConfig(generations=4, seed_key="auto"))
        wls = alexnet_workloads()[:3]
        both = am.search_network(wls, pipeline=None)
        multi = am.search_network(wls, pipeline=False)
        pipe = am.search_network(wls, pipeline=True)
        assert both.edp <= min(multi.edp, pipe.edp) + 1e-12

    def test_result_counts_only_its_own_evaluations(self):
        """Per-bit searches on one mapper must not report a running total."""
        am = AutoMapper(DEV, AutoMapperConfig(generations=4, seed_key="per-call"))
        wls = alexnet_workloads()[:3]
        counts = [
            am.search_network([w.with_bits(bits) for w in wls]).evaluations
            for bits in (4, 8, 16)
        ]
        # Same shapes and budget at every bit-width: equal, nonzero counts.
        assert counts[0] > 0 and counts == [counts[0]] * 3
        assert sum(counts) == am.evaluations
        # A repeat is served from the layer cache and evaluates nothing.
        assert am.search_network([w.with_bits(4) for w in wls]).evaluations == 0

    def test_repeated_layers_searched_once(self):
        am = AutoMapper(DEV, AutoMapperConfig(generations=4))
        wls = [WL, WL, WL]
        am.search_network(wls, pipeline=False)
        # One unique shape -> one cache entry.
        assert len(am._layer_cache) == 1


class TestBitWidthPricing:
    """One rule prices an SP-Net bit-width: a (w, a) pair runs at
    max(w, a) bits, on the layers the model executes."""

    @staticmethod
    def _model():
        from repro.nn import models

        return models.resnet8(num_classes=5, width_mult=0.5)

    def test_pairs_price_at_the_wider_operand(self):
        priced = bit_workloads(self._model(), 16, [4, (4, 8), (8, 4)])
        assert list(priced) == [4, (4, 8), (8, 4)]
        assert {bits: {w.bits for w in layers}
                for bits, layers in priced.items()} == {
            4: {4}, (4, 8): {8}, (8, 4): {8}}

    def test_layers_are_the_profiled_model_at_each_width(self):
        model = self._model()
        layers = extract_workloads(model, 16, batch=2)
        for bits, priced in bit_workloads(model, 16, [4, 8], batch=2).items():
            assert priced == [w.with_bits(bits) for w in layers]

    def test_map_bit_widths_searches_the_priced_layers(self):
        model = self._model()
        config = AutoMapperConfig(generations=1, seed_key="pricing")
        mapped = map_bit_widths(AutoMapper(DEV, config), model, 16, [4, (4, 8)])
        priced = bit_workloads(model, 16, [4, (4, 8)])
        fresh = AutoMapper(DEV, config)
        for bits, result in mapped.items():
            assert list(result.workloads) == priced[bits]
            assert result.edp == fresh.search_network(
                priced[bits], pipeline=False).edp


class TestWarmStart:
    def test_warm_start_seeds_across_bitwidths(self):
        am = AutoMapper(DEV, AutoMapperConfig(generations=4,
                                              seed_key="warm",
                                              warm_start=True))
        _, cost8 = am.search_layer(WL.with_bits(8))
        assert am._shape_best  # shape entry recorded for reuse
        _, cost4 = am.search_layer(WL.with_bits(4))
        assert cost8.valid and cost4.valid

    def test_warm_start_off_by_default(self):
        assert AutoMapperConfig().warm_start is False
