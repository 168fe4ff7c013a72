"""Switchable trainers and the training methods of the tables."""

import tracemalloc

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.baselines import train_method
from repro.core import (
    CascadeDistillation,
    SwitchableTrainer,
    TrainConfig,
    evaluate_all_bits,
    evaluate_bitwidth,
)
from repro.data import Subset, cifar10_like
from repro.nn import models
from repro.quant import SwitchableFactory, SwitchablePrecisionNetwork

BITS = [4, 32]


def tiny_builder(factory):
    return models.mobilenet_v2(num_classes=10, setting="tiny",
                               factory=factory, width_mult=0.25)


@pytest.fixture(scope="module")
def data():
    rng_mod.set_seed(0)
    return cifar10_like(num_train=160, num_test=64, image_size=12,
                        difficulty=1.5)


class TestTrainer:
    def test_fit_records_history_and_reduces_loss(self, data):
        train, _ = data
        sp = SwitchablePrecisionNetwork(
            tiny_builder(SwitchableFactory(BITS)), BITS)
        trainer = SwitchableTrainer(
            sp, CascadeDistillation(beta=1.0),
            TrainConfig(epochs=3, batch_size=32),
        )
        history = trainer.fit(train)
        assert len(history.epoch_losses) == 3
        assert history.epoch_losses[-1] < history.epoch_losses[0]
        assert history.wall_seconds > 0

    def test_final_loss_is_last_epoch_or_nan_before_any(self):
        import math

        from repro.core.trainer import TrainHistory

        assert math.isnan(TrainHistory().final_loss)
        assert TrainHistory(epoch_losses=[2.0, 1.5]).final_loss == 1.5

    def test_evaluate_all_bits_keys(self, data):
        train, test = data
        sp = SwitchablePrecisionNetwork(
            tiny_builder(SwitchableFactory(BITS)), BITS)
        accs = evaluate_all_bits(sp, test)
        assert set(accs) == set(BITS)
        assert all(0.0 <= a <= 1.0 for a in accs.values())

    def test_training_beats_chance(self, data):
        train, test = data
        rng_mod.set_seed(0)
        sp = SwitchablePrecisionNetwork(
            tiny_builder(SwitchableFactory(BITS)), BITS)
        SwitchableTrainer(
            sp, CascadeDistillation(beta=1.0),
            TrainConfig(epochs=4, batch_size=32),
        ).fit(train)
        accs = evaluate_all_bits(sp, test)
        assert accs[32] > 0.15  # chance is 0.10 for 10 classes

    def test_fit_leaves_no_stale_quantised_weights(self, data):
        train, _ = data
        sp = SwitchablePrecisionNetwork(
            tiny_builder(SwitchableFactory(BITS)), BITS)
        SwitchableTrainer(
            sp, CascadeDistillation(beta=1.0),
            TrainConfig(epochs=1, batch_size=16, augment=False),
        ).fit(Subset(train, range(16)))
        caches = [m._wq_cache for m in sp.modules() if hasattr(m, "_wq_cache")]
        assert caches and not any(caches)

    def test_next_step_does_not_hold_the_previous_graph(self, data):
        # The loop keeps the last loss while it builds the next graph;
        # backward frees the graph, so a second step adds little memory.
        # Were both graphs alive, two steps would peak near twice one.
        train, _ = data
        batch = Subset(train, range(16))

        def fit_peak(epochs):
            rng_mod.set_seed(0)
            sp = SwitchablePrecisionNetwork(
                tiny_builder(SwitchableFactory(BITS)), BITS)
            trainer = SwitchableTrainer(
                sp, CascadeDistillation(beta=1.0),
                TrainConfig(epochs=epochs, batch_size=16, augment=False),
            )
            tracemalloc.start()
            try:
                trainer.fit(batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_step, two_steps = fit_peak(1), fit_peak(2)
        assert two_steps <= 1.5 * one_step, (one_step, two_steps)


class TestRecipes:
    @pytest.mark.parametrize("method", ["cdt", "sp", "adabits"],
                             ids=lambda method: f"train_{method}")
    def test_switchable_recipes(self, method, data):
        train, test = data
        rng_mod.set_seed(0)
        cfg = TrainConfig(epochs=1, batch_size=32)
        result = train_method(method, tiny_builder, BITS, train, test, cfg)
        assert set(result.accuracies) == set(BITS)
        assert list(result.sp_net.bit_widths) == BITS
        assert result.method == method
        assert "TrainedSPNet" in repr(result)

    def test_sbm_trains_one_network_per_bit(self, data):
        train, test = data
        rng_mod.set_seed(0)
        cfg = TrainConfig(epochs=1, batch_size=32)
        result = train_method("sbm", tiny_builder, BITS, train, test, cfg)
        assert set(result.accuracies) == set(BITS)
        assert result.method == "sbm"
        assert result.accuracies[32] >= 0.0
