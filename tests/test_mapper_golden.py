"""Golden pins on the AutoMapper, and the factor tuples against the dicts.

The pinned values are what the search and the samplers produced when
they were recorded.  A change to the RNG stream, to the repair rules or
to the order of the cost model's float operations moves them, so a
change meant to be behaviour-preserving must leave them as they are.
Update them only with a change that means to alter search results.

The property tests check that :attr:`LevelTiling.factors` and
:attr:`Dataflow.spatial_factors` — the tuples the cost model reads — say
exactly what the ``tiles`` / ``spatial`` dicts say, with an absent key
meaning a factor of 1.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rng as rng_mod
from repro.core.automapper import AutoMapper, AutoMapperConfig
from repro.hardware import (
    CANONICAL_ORDER,
    DIMS,
    ConvWorkload,
    Dataflow,
    LevelTiling,
    evaluate_layer,
    eyeriss_like_asic,
    mobilenetv2_workloads,
    perturb_dataflow,
    random_dataflow,
    repair_dataflow,
    zc706_like_fpga,
)
from repro.hardware.costmodel import make_valid
from repro.hardware.dataflow import _distinct_pair

DEVICES = {"asic": eyeriss_like_asic, "fpga": zc706_like_fpga}

# (bits -> (repr(edp), evaluations)) of a seed-0 warm-started search
# over MobileNetV2's first 10 layers at bits 4 then 8.
GOLDEN_SEARCH = {
    "asic": {
        4: ("5.120540325561601e-08", 3672),
        8: ("2.1318716744004e-07", 3690),
    },
    "fpga": {
        4: ("1.61133835523616e-08", 3672),
        8: ("6.94154719663616e-08", 3690),
    },
}

# sha256 of the canonical cache keys of 20 draws from default_rng(2021).
GOLDEN_DRAWS = {
    ("asic", "random"): "1baa702784b69c2711875921f8746e0000ff6164e10fcda5d8e58b4ade93a7b2",
    ("asic", "perturb"): "08e791a2b03316357face14024a798c7664b76502a153ec9458605cc47310fc9",
    ("fpga", "random"): "24750bbc429ef9825b320a0be44e55a66cd916725398284e698b879e5d3eb756",
    ("fpga", "perturb"): "29cfbc5cadabacb2aac0fc59b0aafec4e890ad62b113569a1acd2809fb4690ec",
}


@pytest.mark.parametrize("platform", sorted(DEVICES))
def test_golden_warm_search(platform):
    rng_mod.set_seed(0)
    mapper = AutoMapper(DEVICES[platform](), AutoMapperConfig(warm_start=True))
    layers = mobilenetv2_workloads()[:10]
    for bits, (edp, evaluations) in GOLDEN_SEARCH[platform].items():
        result = mapper.search_network([w.with_bits(bits) for w in layers])
        assert (repr(result.edp), result.evaluations) == (
            edp, evaluations
        ), f"{platform} {bits}-bit"


def _canonical(flow):
    """A flow's cache key with every loop order as one plain string."""
    levels, spatial = flow.cache_key()
    return tuple((''.join(order), factors) for order, factors in levels), spatial


@pytest.mark.parametrize("platform,sampler", sorted(GOLDEN_DRAWS))
def test_golden_draws(platform, sampler):
    device = DEVICES[platform]()
    workload = mobilenetv2_workloads()[1]
    rng = np.random.default_rng(2021)
    flow = random_dataflow(workload, device, rng)
    keys = []
    for _ in range(20):
        if sampler == "random":
            flow = random_dataflow(workload, device, rng)
        else:
            flow = perturb_dataflow(flow, workload, device, k=2, rng=rng)
        keys.append(_canonical(flow))
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert digest == GOLDEN_DRAWS[platform, sampler]


def test_index_draws_consume_the_named_draws_stream():
    """The samplers draw indices; numpy must give the same picks, from
    the same bits, as drawing from the lists of names."""
    names = list(DIMS)
    for seed in range(50):
        by_name, by_index = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in (3, 4, 7):
            assert by_name.choice(names[:n]) == names[by_index.integers(0, n)]
            picked = by_name.choice(names[:n], size=2, replace=False)
            assert list(picked) == [names[i] for i in by_index.choice(n, size=2, replace=False)]
        assert list(by_name.permutation(names)) == [names[i] for i in by_index.permutation(7)]
        assert by_name.random() == by_index.random()


def test_distinct_pair_is_choice_without_replacement():
    """``_distinct_pair`` picks what ``choice(n, 2, replace=False)`` picks,
    and leaves the generator in the same state."""
    for seed in range(60):
        by_choice, by_pair = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in range(2, 10):
            for _ in range(4):
                assert _distinct_pair(by_pair, n) == tuple(
                    by_choice.choice(n, size=2, replace=False).tolist()
                ), f"seed {seed}, n {n}"
        assert by_pair.bit_generator.state == by_choice.bit_generator.state


# ----------------------------------------------------------------------
# Factor tuples versus tile dicts
# ----------------------------------------------------------------------
# Sparse tile dicts: any subset of DIMS, explicit 1s included.
tile_dicts = st.dictionaries(st.sampled_from(DIMS), st.integers(1, 6), max_size=len(DIMS))
orders = st.permutations(DIMS).map(tuple)


def _dense(tiles):
    """The same tiling with every absent key written out as 1."""
    return {d: tiles.get(d, 1) for d in DIMS}


def _sparse(tiles):
    """The same tiling with every factor of 1 left out."""
    return {d: f for d, f in tiles.items() if f != 1}


@settings(max_examples=60, deadline=None)
@given(order=orders, tiles=tile_dicts)
def test_property_factors_match_tiles(order, tiles):
    level = LevelTiling(order, tiles)
    assert level.factors == tuple(tiles.get(d, 1) for d in DIMS)
    assert all(level.factor(d) == tiles.get(d, 1) for d in DIMS)
    assert level.iterations() == int(np.prod([tiles.get(d, 1) for d in DIMS]))


@settings(max_examples=60, deadline=None)
@given(
    orders=st.lists(orders, min_size=4, max_size=4),
    tiles=st.lists(tile_dicts, min_size=4, max_size=4),
    spatial=tile_dicts,
    bounds=st.lists(st.integers(1, 200), min_size=7, max_size=7),
)
def test_property_coverage_and_key_follow_dict_semantics(orders, tiles, spatial, bounds):
    workload = ConvWorkload("p", *bounds)
    flow = Dataflow(tuple(LevelTiling(o, t) for o, t in zip(orders, tiles)), spatial)
    for d in DIMS:
        expected = spatial.get(d, 1) * int(np.prod([t.get(d, 1) for t in tiles]))
        assert flow.coverage(d) == expected
    assert flow.covers(workload) == all(
        flow.coverage(d) >= b for d, b in workload.dims.items()
    )
    # Absent entries and explicit 1s are the same mapping.
    for rewrite in (_dense, _sparse):
        twin = Dataflow(
            tuple(LevelTiling(o, rewrite(t)) for o, t in zip(orders, tiles)),
            rewrite(spatial),
        )
        assert twin.cache_key() == flow.cache_key()
        assert twin.covers(workload) == flow.covers(workload)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_explicit_ones_price_identically(seed):
    """The cost model reads only the tuples, so a flow rewritten with
    explicit 1s costs bit-for-bit the same."""
    device = eyeriss_like_asic()
    workload = mobilenetv2_workloads()[3]
    flow = make_valid(
        workload, random_dataflow(workload, device, np.random.default_rng(seed)), device
    )
    dense = Dataflow(
        tuple(LevelTiling(l.order, _dense(l.tiles)) for l in flow.levels),
        _dense(flow.spatial),
    )
    a, b = evaluate_layer(workload, flow, device), evaluate_layer(workload, dense, device)
    assert (a.valid, a.energy_pj, a.latency_s, a.traffic_words) == (
        b.valid, b.energy_pj, b.latency_s, b.traffic_words
    )


def test_repair_returns_a_flow_needing_no_edit_unchanged():
    device = eyeriss_like_asic()
    workload = mobilenetv2_workloads()[3]
    flow = repair_dataflow(
        Dataflow(tuple(LevelTiling(CANONICAL_ORDER, {}) for _ in range(4))),
        workload, device,
    )
    assert repair_dataflow(flow, workload, device) is flow
