"""End-to-end integration: the full InstantNet pipeline at toy scale.

These tests chain every major subsystem the way the paper's Fig. 1
describes — SP-NAS search -> CDT training -> AutoMapper deployment —
and assert the cross-module contracts rather than absolute quality.
"""

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.baselines import train_method
from repro.baselines.dataflows import eyeriss_row_stationary
from repro.core import TrainConfig, evaluate_all_bits
from repro.core.automapper import AutoMapper, AutoMapperConfig, map_bit_widths
from repro.core.spnas import (
    SPNASConfig,
    build_derived,
    search_spnas,
    tiny_search_space,
)
from repro.data import cifar100_like
from repro.hardware import (
    edge_asic,
    evaluate_network,
    extract_workloads,
)

BITS = [4, 32]
NUM_CLASSES = 5


@pytest.fixture(scope="module")
def pipeline_artifacts():
    """Run the full generation+deployment pipeline once for this module."""
    rng_mod.set_seed(0)
    train, test = cifar100_like(num_train=128, num_test=48, image_size=12,
                                num_classes=NUM_CLASSES, difficulty=2.0)
    space = tiny_search_space(12)
    search = search_spnas(
        space, BITS, NUM_CLASSES, train,
        SPNASConfig(epochs=1, batch_size=32, flops_target=2e5, lambda_eff=1.0),
    )
    trained = train_method(
        "cdt", build_derived(search, NUM_CLASSES), BITS, train, test,
        TrainConfig(epochs=2, batch_size=32),
    )
    return search, trained, test


class TestGenerationPhase:
    def test_search_produces_complete_architecture(self, pipeline_artifacts):
        search, _, _ = pipeline_artifacts
        assert len(search.specs) == search.space.num_searchable_layers
        assert search.flops > 0

    def test_trained_network_reports_all_bits(self, pipeline_artifacts):
        _, trained, test = pipeline_artifacts
        accs = evaluate_all_bits(trained.sp_net, test)
        assert set(accs) == set(BITS)


class TestDeploymentPhase:
    def test_mapping_searched_network_per_bitwidth(self, pipeline_artifacts):
        _, trained, _ = pipeline_artifacts
        device = edge_asic()
        mapper = AutoMapper(device, AutoMapperConfig(generations=4,
                                                     seed_key="int-test"))
        edps = {}
        for bits, result in map_bit_widths(
            mapper, trained.sp_net.model, 12, BITS
        ).items():
            assert result.network_cost.valid
            edps[bits] = result.edp
        # Lower precision must be cheaper to execute.
        assert edps[4] < edps[32]

    def test_automapper_beats_expert_mapping_on_searched_net(
        self, pipeline_artifacts
    ):
        _, trained, _ = pipeline_artifacts
        device = edge_asic()
        workloads = extract_workloads(trained.sp_net.model, 12, bits=8)
        mapper = AutoMapper(device, AutoMapperConfig(generations=10,
                                                     seed_key="int-beat"))
        ours = mapper.search_network(workloads, pipeline=False)
        expert_flows = [eyeriss_row_stationary(w, device) for w in workloads]
        expert = evaluate_network(workloads, expert_flows, device, False)
        assert ours.edp <= expert.edp


class TestSwitchingContract:
    def test_instant_switching_preserves_weights(self, pipeline_artifacts):
        """Switching precision must not touch the shared weights — the
        defining property of an SP-Net (no fine-tuning on switch)."""
        _, trained, _ = pipeline_artifacts
        sp = trained.sp_net
        from repro.quant import QuantConv2d
        conv = next(m for m in sp.model.modules() if isinstance(m, QuantConv2d))
        before = conv.weight.data.copy()
        sp.set_bitwidth(4)
        sp.set_bitwidth(32)
        sp.set_bitwidth(4)
        assert np.array_equal(conv.weight.data, before)
