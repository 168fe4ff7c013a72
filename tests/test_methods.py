"""The method table: each training method is a (loss, quantizer) pair,
and every caller trains the pair it names."""

import numpy as np
import pytest

from repro import core
from repro import rng as rng_mod
from repro.api.config import ModelConfig, PipelineConfig, TrainConfig
from repro.api.pipeline import Pipeline
from repro.api.registry import choices, lookup
from repro.baselines import METHODS, train_method
from repro.core import JointCrossEntropy, SwitchableTrainer
from repro.data import cifar10_like
from repro.nn import models
from repro.quant import QuantConv2d, QuantLinear
from repro.tensor import Tensor

BITS = [4, 32]


def tiny_builder(factory):
    return models.mobilenet_v2(num_classes=10, setting="tiny",
                               factory=factory, width_mult=0.25)


@pytest.fixture(scope="module")
def data():
    rng_mod.set_seed(0)
    return cifar10_like(num_train=32, num_test=16, image_size=8,
                        difficulty=1.5)


def _train(method, data, builder=tiny_builder, **kwargs):
    rng_mod.set_seed(0)
    train, test = data
    return train_method(method, builder, BITS, train, test,
                        core.TrainConfig(epochs=1, batch_size=16), **kwargs)


def _quantizer_names(sp_net):
    return {layer.quantizer.name for layer in sp_net.model.modules()
            if isinstance(layer, (QuantConv2d, QuantLinear))}


@pytest.mark.parametrize("name", sorted(METHODS))
def test_each_method_trains_with_its_own_quantizer(name, data):
    result = _train(name, data)
    assert _quantizer_names(result.sp_net) == {METHODS[name].quantizer}
    assert set(result.accuracies) == set(BITS)


def test_explicit_quantizer_overrides_the_pairing(data):
    assert METHODS["sp"].quantizer != "sbm"
    result = _train("sp", data, quantizer="sbm")
    assert _quantizer_names(result.sp_net) == {"sbm"}


def test_sbm_trains_independent_single_width_nets(data):
    widths = []

    def recording_builder(factory):
        widths.append(list(factory.bit_widths))
        return tiny_builder(factory)

    result = _train("sbm", data, builder=recording_builder)
    assert widths == [[bits] for bits in BITS]
    assert list(result.accuracies) == BITS
    assert list(result.sp_net.bit_widths) == [BITS[-1]]


def test_pipeline_uses_the_switchable_entries():
    assert {name: lookup("strategies", name)
            for name in choices("strategies")} == {
        name: entry for name, entry in METHODS.items()
        if not entry.independent
    }
    with pytest.raises(ValueError, match="sbm"):
        TrainConfig(method="sbm")


@pytest.mark.parametrize("method", ["cdt", "sp"])
def test_pipeline_beta_reaches_the_loss(method, tmp_path, monkeypatch):
    """``train.beta = 0`` leaves the distilling losses only their CE
    terms, so the loss the pipeline trains equals joint CE."""
    trained = []

    class RecordingTrainer(SwitchableTrainer):
        def __init__(self, sp_net, strategy, config=None):
            trained.append((sp_net, strategy))
            super().__init__(sp_net, strategy, config)

    monkeypatch.setattr(core, "SwitchableTrainer", RecordingTrainer)
    config = PipelineConfig(
        name="beta",
        model=ModelConfig(model="resnet8", bit_widths=(4, 8, 32),
                          num_classes=3, width_mult=0.25, image_size=8),
        train=TrainConfig(method=method, beta=0.0, epochs=1, batch_size=16,
                          train_samples=32, test_samples=16),
    )
    Pipeline(config, run_dir=str(tmp_path)).train()
    [(sp_net, strategy)] = trained
    assert type(strategy) is type(METHODS[method].loss(1.0))
    assert strategy.beta == 0.0

    sp_net.eval()  # frozen BN statistics, so both passes match
    g = np.random.default_rng(3)
    x = Tensor(g.normal(size=(4, 3, 8, 8)).astype(np.float32))
    labels = g.integers(0, 3, size=4)
    loss, _ = strategy.compute_loss(sp_net, x, labels)
    joint, _ = JointCrossEntropy().compute_loss(sp_net, x, labels)
    assert loss.item() == pytest.approx(joint.item(), rel=1e-5)
