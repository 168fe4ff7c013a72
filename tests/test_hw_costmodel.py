"""Cost-model physics: conservation, monotonicity, order sensitivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (
    CANONICAL_ORDER,
    ConvWorkload,
    Dataflow,
    LevelTiling,
    evaluate_layer,
    evaluate_network,
    eyeriss_like_asic,
    random_dataflow,
    zc706_like_fpga,
)
from repro.hardware.costmodel import capacity_violation, make_valid

WL = ConvWorkload("t", 1, 32, 16, 14, 14, 3, 3)
DEV = eyeriss_like_asic()


def valid_flow(seed=0, workload=WL, device=DEV):
    rng = np.random.default_rng(seed)
    return make_valid(workload, random_dataflow(workload, device, rng), device)


class TestValidity:
    def test_make_valid_produces_valid(self):
        for seed in range(20):
            flow = valid_flow(seed)
            cost = evaluate_layer(WL, flow, DEV)
            assert cost.valid, cost.reason

    def test_uncovered_flow_invalid(self):
        empty = Dataflow(levels=tuple(
            LevelTiling(CANONICAL_ORDER, {}) for _ in range(4)))
        cost = evaluate_layer(WL, empty, DEV)
        assert not cost.valid
        assert "cover" in cost.reason

    def test_oversized_spatial_invalid(self):
        flow = valid_flow()
        bloated = Dataflow(levels=flow.levels, spatial={"K": 32, "Y": 14})
        cost = evaluate_layer(WL, bloated, DEV)
        assert not cost.valid or bloated.spatial_size <= DEV.num_pes

    def test_wrong_level_count_invalid(self):
        flow = valid_flow()
        short = Dataflow(levels=flow.levels[:3], spatial=flow.spatial)
        cost = evaluate_layer(WL, short, DEV)
        assert not cost.valid

    def test_capacity_violation_detects_huge_tiles(self):
        huge = Dataflow(levels=(
            LevelTiling(CANONICAL_ORDER, {}),
            LevelTiling(CANONICAL_ORDER, {}),
            LevelTiling(CANONICAL_ORDER, {}),
            LevelTiling(CANONICAL_ORDER, {"K": 32, "C": 16, "Y": 14, "X": 14}),
        ))
        assert capacity_violation(WL, huge, DEV) is not None

    def test_invalid_cost_is_infinite(self):
        empty = Dataflow(levels=tuple(
            LevelTiling(CANONICAL_ORDER, {}) for _ in range(4)))
        cost = evaluate_layer(WL, empty, DEV)
        assert cost.energy_pj == float("inf")
        assert cost.edp == float("inf")


class TestConservation:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_property_dram_traffic_at_least_compulsory(self, seed):
        """Every operand must cross the DRAM boundary at least once —
        no dataflow can beat compulsory traffic."""
        flow = valid_flow(seed)
        cost = evaluate_layer(WL, flow, DEV)
        assert cost.valid
        dram = cost.traffic_words["DRAM"]
        words = WL.tensor_words()
        assert dram["W"] >= words["W"] - 1e-6
        assert dram["O"] >= words["O"] - 1e-6
        # Input halo tiles may re-read boundary pixels, so >= holds too.
        assert dram["I"] >= words["I"] * 0.9

    def test_macs_independent_of_dataflow(self):
        a, b = valid_flow(1), valid_flow(2)
        assert evaluate_layer(WL, a, DEV).macs == evaluate_layer(WL, b, DEV).macs

    def test_energy_has_compute_floor(self):
        cost = evaluate_layer(WL, valid_flow(), DEV)
        floor = WL.macs * DEV.mac_energy_at(WL.bits)
        assert cost.energy_pj > floor


class TestBitScaling:
    def test_energy_decreases_with_bits(self):
        energies = []
        for bits in (4, 8, 16):
            wl = WL.with_bits(bits)
            flow = valid_flow(7, workload=wl)
            energies.append(evaluate_layer(wl, flow, DEV).energy_pj)
        assert energies[0] < energies[1] < energies[2]

    def test_latency_decreases_with_bits_via_packing(self):
        lats = []
        flow = valid_flow(7)
        for bits in (4, 8, 16):
            wl = WL.with_bits(bits)
            lats.append(evaluate_layer(wl, flow, DEV).latency_s)
        assert lats[0] <= lats[1] <= lats[2]

    def test_mac_energy_quadratic(self):
        assert DEV.mac_energy_at(8) == pytest.approx(DEV.mac_energy / 4)


class TestOrderSensitivity:
    def test_loop_order_changes_traffic(self):
        """The same tiling with different loop orders must cost
        differently — the property the whole search exploits."""
        tiles = [{"K": 8, "C": 4}, {"Y": 7}, {"C": 2, "K": 2}, {"R": 3, "S": 3}]
        order_a = ("N", "K", "C", "Y", "X", "R", "S")
        order_b = ("Y", "X", "N", "R", "S", "C", "K")
        flow_a = Dataflow(levels=tuple(
            LevelTiling(order_a, t) for t in tiles), spatial={"X": 14})
        flow_b = Dataflow(levels=tuple(
            LevelTiling(order_b, t) for t in tiles), spatial={"X": 14})
        flow_a = make_valid(WL, flow_a, DEV)
        flow_b = make_valid(WL, flow_b, DEV)
        e_a = evaluate_layer(WL, flow_a, DEV).energy_pj
        e_b = evaluate_layer(WL, flow_b, DEV).energy_pj
        assert e_a != pytest.approx(e_b, rel=1e-3)


class TestDeviceDescription:
    def test_capacity_words_is_unbounded_only_for_dram(self):
        dram, buffer = DEV.hierarchy.level("DRAM"), DEV.hierarchy.level(
            "GlobalBuffer"
        )
        assert dram.capacity_words(8) == float("inf")
        assert buffer.capacity_words(8) == buffer.capacity_bits / 8
        assert buffer.capacity_words(4) == 2 * buffer.capacity_words(8)

    def test_level_lookup_by_name(self):
        assert DEV.hierarchy.names == [
            "DRAM", "GlobalBuffer", "NoC", "RegisterFile",
        ]
        assert [lvl.name for lvl in DEV.hierarchy] == DEV.hierarchy.names
        with pytest.raises(KeyError, match="no level named 'L3'"):
            DEV.hierarchy.level("L3")

    def test_hierarchy_needs_an_on_chip_level(self):
        from repro.hardware.hierarchy import MemoryHierarchy

        with pytest.raises(ValueError, match="at least DRAM"):
            MemoryHierarchy(levels=(DEV.hierarchy.level("DRAM"),))

    @pytest.mark.parametrize("field, value, match", [
        ("platform", "gpu", "asic|fpga"),
        ("num_pes", 0, "num_pes must be >= 1"),
        ("clock_ghz", 0.0, "clock_ghz must be positive"),
    ])
    def test_invalid_device_rejected(self, field, value, match):
        import dataclasses

        with pytest.raises(ValueError, match=match):
            dataclasses.replace(DEV, **{field: value})

    def test_without_packing_throughput_ignores_bits(self):
        import dataclasses

        flat = dataclasses.replace(DEV, precision_packing=False)
        assert flat.macs_per_cycle(4) == flat.macs_per_cycle(16) == 168.0
        assert DEV.macs_per_cycle(4) == 4 * DEV.macs_per_cycle(16)


class TestNetworkCost:
    def _flows(self, workloads, device=DEV):
        return [valid_flow(5, w, device) for w in workloads]

    def test_multicycle_latency_sums(self):
        wls = [WL, WL.with_batch(1)]
        flows = self._flows(wls)
        net = evaluate_network(wls, flows, DEV, pipeline=False)
        per_layer = [evaluate_layer(w, f, DEV).latency_s
                     for w, f in zip(wls, flows)]
        assert net.latency_s == pytest.approx(sum(per_layer))

    def test_pipeline_latency_is_max_stage(self):
        wls = [WL, WL]
        flows = []
        total = float(sum(w.macs for w in wls))
        for w in wls:
            share = w.macs / total
            rng = np.random.default_rng(3)
            f = make_valid(w, random_dataflow(w, DEV, rng), DEV, share, share)
            flows.append(f)
        net = evaluate_network(wls, flows, DEV, pipeline=True)
        assert net.valid
        assert net.latency_s == pytest.approx(
            max(c.latency_s for c in net.layer_costs))

    def test_fps_inverse_latency(self):
        wls = [WL]
        net = evaluate_network(wls, self._flows(wls), DEV, pipeline=False)
        assert net.fps == pytest.approx(1.0 / net.latency_s)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            evaluate_network([WL], [], DEV)

    def test_invalid_layer_poisons_network(self):
        empty = Dataflow(levels=tuple(
            LevelTiling(CANONICAL_ORDER, {}) for _ in range(4)))
        net = evaluate_network([WL], [empty], DEV)
        assert not net.valid and net.fps == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000))
def test_property_make_valid_is_idempotent_fixed_point(seed):
    """Repairing a repaired flow changes nothing material: it stays valid."""
    flow = valid_flow(seed)
    again = make_valid(WL, flow, DEV)
    assert evaluate_layer(WL, again, DEV).valid


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000))
def test_property_fpga_flows_valid_too(seed):
    dev = zc706_like_fpga()
    rng = np.random.default_rng(seed)
    wl = WL.with_bits(8)
    flow = make_valid(wl, random_dataflow(wl, dev, rng), dev)
    assert evaluate_layer(wl, flow, dev).valid
