"""Ablations of the design choices DESIGN.md calls out.

1. Stop-gradient in CDT (Eq. 1's SG operator),
2. Switchable vs shared batch-norm statistics,
3. Evolutionary vs random dataflow search,
4. Arch-update bit-width in SP-NAS (lowest vs highest).
"""

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.core import (
    CascadeDistillation,
    SwitchableTrainer,
    TrainConfig,
    evaluate_all_bits,
)
from repro.core.automapper import AutoMapper, AutoMapperConfig, random_search_layer
from repro.data import cifar100_like
from repro.hardware import alexnet_workloads, eyeriss_like_asic
from repro.nn import models
from repro.quant import SwitchableFactory, SwitchablePrecisionNetwork

BITS = [4, 8, 32]


def _data():
    return cifar100_like(num_train=256, num_test=96, image_size=12,
                         num_classes=5, difficulty=2.0)


def _train(switchable_bn=True, beta=1.0, epochs=3):
    rng_mod.set_seed(0)
    train, test = _data()
    fac = SwitchableFactory(BITS, quantizer="sbm", switchable_bn=switchable_bn)
    model = models.mobilenet_v2(num_classes=5, setting="tiny", factory=fac,
                                width_mult=0.5)
    sp = SwitchablePrecisionNetwork(model, BITS)
    SwitchableTrainer(
        sp, CascadeDistillation(beta=beta),
        TrainConfig(epochs=epochs, batch_size=32),
    ).fit(train)
    return evaluate_all_bits(sp, test)


@pytest.fixture(scope="module")
def baseline():
    """Switchable BN with distillation on: both ablations' reference."""
    return _train()


def test_ablation_switchable_bn(baseline):
    """Shared BN statistics must hurt low-bit accuracy vs switchable BN."""
    without = _train(switchable_bn=False)
    print(f"\nswitchable BN acc@4={baseline[4]:.3f}  "
          f"shared BN acc@4={without[4]:.3f}")
    # Allow noise at this scale, but shared BN should not clearly win.
    assert baseline[4] >= without[4] - 0.05


def test_ablation_distillation_weight(baseline):
    """beta > 0 (distillation on) should not hurt the lowest bit-width."""
    without = _train(beta=0.0)
    print(f"\nbeta=1 acc@4={baseline[4]:.3f}  beta=0 acc@4={without[4]:.3f}")
    assert baseline[4] >= without[4] - 0.05


def test_ablation_evolution_vs_random():
    """Alg. 1's exploitation advantage over random search (3-seed median)."""
    dev = eyeriss_like_asic()
    wl = alexnet_workloads()[2]
    evo, rnd = [], []
    for seed in range(3):
        rng_mod.set_seed(seed)
        am = AutoMapper(dev, AutoMapperConfig(
            pool_size=16, breed_batch=8, generations=30, metric="edp",
            seed_key=f"abl-{seed}"))
        _, cost = am.search_layer(wl)
        evo.append(cost.edp)
        _, rc = random_search_layer(
            wl, dev, am.evaluations, metric="edp",
            rng=np.random.default_rng(seed + 50))
        rnd.append(rc.edp)
    evo, rnd = float(np.median(evo)), float(np.median(rnd))
    print(f"\nevolution median EDP={evo:.3e}  random median EDP={rnd:.3e}")
    assert evo <= rnd * 1.1


def test_ablation_arch_bits():
    """SP-NAS's lowest-bit arch signal vs the FP-NAS highest-bit signal:
    both must run and produce complete architectures (accuracy ordering
    is asserted in the fig4 experiment at larger scales)."""
    from repro.core.spnas import (
        SPNASConfig, search_fp_nas, search_spnas, tiny_search_space,
    )

    rng_mod.set_seed(0)
    train, _ = _data()
    space = tiny_search_space(12)
    cfg = SPNASConfig(epochs=1, batch_size=32, flops_target=2e5,
                      lambda_eff=1.0)
    sp = search_spnas(space, [4, 32], 5, train, cfg)
    rng_mod.set_seed(0)
    fp = search_fp_nas(space, [4, 32], 5, train, cfg)
    print(f"\nspnas: {'-'.join(sp.labels)} ({sp.flops:.2e} MACs)")
    print(f"fpnas: {'-'.join(fp.labels)} ({fp.flops:.2e} MACs)")
    assert len(sp.specs) == len(fp.specs)
