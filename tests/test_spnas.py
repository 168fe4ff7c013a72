"""SP-NAS: search space, supernet, bi-level search, derivation."""

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.core.spnas import (
    BlockSpec,
    DerivedNetwork,
    SPNASConfig,
    SPNASSearcher,
    Supernet,
    build_derived,
    candidate_flops,
    cifar_search_space,
    search_fp_nas,
    search_lp_nas,
    search_spnas,
    tiny_search_space,
)
from repro.data import cifar100_like
from repro.quant import SwitchableFactory, SwitchablePrecisionNetwork
from repro.tensor import Tensor


def image(n=2, size=16):
    return Tensor(np.random.default_rng(0).normal(
        size=(n, 3, size, size)).astype(np.float32))


class TestSpace:
    def test_layer_configs_count(self):
        space = tiny_search_space(16)
        assert len(space.layer_configs()) == space.num_searchable_layers

    def test_skip_only_where_legal(self):
        space = tiny_search_space(16)
        for in_ch, out_ch, stride, hw, allow_skip in space.layer_configs():
            if allow_skip:
                assert stride == 1 and in_ch == out_ch

    def test_candidate_flops_ordering(self):
        small = candidate_flops(BlockSpec("mbconv", 1, 3), 8, 8, 1, 16)
        big = candidate_flops(BlockSpec("mbconv", 6, 5), 8, 8, 1, 16)
        assert 0 < small < big

    def test_skip_has_zero_flops(self):
        assert candidate_flops(BlockSpec("skip"), 8, 8, 1, 16) == 0

    def test_max_flops_is_the_widest_candidate_everywhere(self):
        space = tiny_search_space(16)
        widest = BlockSpec("mbconv", 6, 5)
        assert space.max_flops == sum(
            candidate_flops(widest, *cfg[:4]) for cfg in space.layer_configs())

    def test_cifar_space_resolution(self):
        space = cifar_search_space(32)
        assert space.final_hw == 32 // (2 * 2 * 2)


class TestSupernet:
    def _supernet(self, bits=(4, 32)):
        space = tiny_search_space(16)
        factory = SwitchableFactory(list(bits))
        return Supernet(space, factory, num_classes=5), space

    def test_forward_requires_resample(self):
        net, _ = self._supernet()
        with pytest.raises(RuntimeError, match="resample"):
            net(image())

    def test_forward_after_resample(self):
        net, _ = self._supernet()
        net.resample(temperature=3.0)
        assert net(image()).shape == (2, 5)

    def test_arch_params_not_in_weight_params(self):
        net, _ = self._supernet()
        weight_ids = {id(p) for p in net.weight_parameters()}
        for alpha in net.arch_parameters():
            assert id(alpha) not in weight_ids

    def test_expected_flops_differentiable(self):
        net, _ = self._supernet()
        flops = net.expected_flops()
        flops.backward()
        assert any(a.grad is not None for a in net.arch_parameters())

    def test_expected_flops_tracks_logits(self):
        net, _ = self._supernet()
        base = net.expected_flops().item()
        # Push every layer's logits hard toward its cheapest candidate.
        for logits, op in zip(net._arch_logits, net.mixed_ops):
            cheapest = int(np.argmin(op.flops))
            logits.data[:] = -10.0
            logits.data[cheapest] = 10.0
        assert net.expected_flops().item() < base

    def test_use_argmax_sets_one_hot(self):
        net, _ = self._supernet()
        net.use_argmax()
        out = net(image())
        assert out.shape == (2, 5)

    def test_argmax_specs_length(self):
        net, space = self._supernet()
        assert len(net.argmax_specs()) == space.num_searchable_layers

    def test_supernet_is_switchable(self):
        net, _ = self._supernet()
        sp = SwitchablePrecisionNetwork(net, [4, 32])
        net.resample(3.0)
        for bits, out in sp.forward_all(image()):
            assert out.shape == (2, 5)


class TestSearchAndDerive:
    def _search(self, searcher_fn=search_spnas, epochs=1):
        rng_mod.set_seed(0)
        train, _ = cifar100_like(num_train=96, num_test=32, image_size=12,
                                 num_classes=5, difficulty=2.0)
        space = tiny_search_space(12)
        cfg = SPNASConfig(epochs=epochs, batch_size=32, flops_target=2e5,
                          lambda_eff=1.0)
        return searcher_fn(space, [4, 32], 5, train, cfg), space

    def test_search_returns_specs_for_every_layer(self):
        result, space = self._search()
        assert len(result.specs) == space.num_searchable_layers
        assert result.flops > 0
        assert len(result.history["weight_loss"]) == 1

    def test_derived_network_forward_all_bits(self):
        result, _ = self._search()
        builder = build_derived(result, 5)
        fac = SwitchableFactory([4, 32])
        model = builder(fac)
        sp = SwitchablePrecisionNetwork(model, [4, 32])
        for bits, out in sp.forward_all(image(size=12)):
            assert out.shape == (2, 5)

    def test_derived_rejects_wrong_spec_count(self):
        result, space = self._search()
        fac = SwitchableFactory([4, 32])
        with pytest.raises(ValueError):
            DerivedNetwork(space, result.specs[:-1], fac, 5)

    def test_fp_and_lp_nas_run(self):
        for fn in (search_fp_nas, search_lp_nas):
            result, _ = self._search(searcher_fn=fn)
            assert result.flops > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SPNASConfig(arch_bits="median")
        with pytest.raises(ValueError):
            SPNASConfig(weight_mode="mixed")


class TestHalfSteps:
    """Each half-step of Eq. 2 differentiates only its own variable: at
    the SGD step the weights hold gradients and no alpha does, and at the
    Adam step the mirror holds."""

    def test_each_half_leaves_the_other_variable_without_gradients(
            self, monkeypatch):
        import repro.core.spnas.search as search_mod

        rng_mod.set_seed(0)
        train, _ = cifar100_like(num_train=128, num_test=8, image_size=12,
                                 num_classes=5, difficulty=2.0)
        searcher = SPNASSearcher(tiny_search_space(12), [4, 32], 5,
                                 SPNASConfig(epochs=1, batch_size=32))
        weights = searcher.supernet.weight_parameters()
        alphas = searcher.supernet.arch_parameters()
        seen = []

        def recording(cls, half):
            class Recording(cls):
                def step(self):
                    seen.append((
                        half,
                        [p.grad is not None for p in weights],
                        [p.grad is not None for p in alphas],
                    ))
                    super().step()
            return Recording

        monkeypatch.setattr(search_mod, "SGD", recording(search_mod.SGD, "weight"))
        monkeypatch.setattr(search_mod, "Adam", recording(search_mod.Adam, "arch"))
        searcher.search(train)
        assert [half for half, _, _ in seen] == ["weight", "arch"] * 2
        for half, weight_set, alpha_set in seen:
            if half == "weight":
                assert all(weight_set) and not any(alpha_set)
            else:
                assert all(alpha_set) and not any(weight_set)
        assert all(p.requires_grad for p in weights + alphas)


class TestSearchGolden:
    """One tiny search, pinned bit for bit: labels, every history float
    and the derived FLOPs.  Any change to the search's numerics (the
    order of a gradient sum, a skipped or extra RNG draw) shows here."""

    def test_tiny_search_is_pinned(self):
        rng_mod.set_seed(0)
        train, _ = cifar100_like(num_train=96, num_test=32, image_size=12,
                                 num_classes=5, difficulty=2.0)
        cfg = SPNASConfig(epochs=2, batch_size=32, flops_target=2e6,
                          lambda_eff=1.0, arch_lr=0.05)
        result = search_spnas(tiny_search_space(12), [4, 32], 5, train, cfg)
        assert result.labels == [
            "e3k3", "e6k3", "e6k5", "e6k3", "e1k3", "e1k3"]
        assert {k: [repr(v) for v in vs]
                for k, vs in result.history.items()} == {
            "weight_loss": ["1.8879809379577637", "1.80669367313385"],
            "arch_loss": ["1.710630476474762", "1.7293858528137207"],
            "expected_flops": ["694744.1875", "698277.375"],
            "temperature": ["3.0", "2.82"],
        }
        assert repr(result.flops) == "826632.0"
