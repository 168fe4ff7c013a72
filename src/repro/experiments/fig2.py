"""Fig. 2 — prediction distributions: vanilla distillation vs CDT.

The paper visualises softmax outputs of MobileNetV2 on CIFAR-100 under
the bit set [4, 8, 12, 16, 32]: with *vanilla* distillation (distil only
from 32-bit) the 4-bit network's distribution bears no resemblance to
the 32-bit one (val. accuracy collapses to ~1%), while with CDT the
4-bit distribution "smoothly evolves" toward the full-precision one
(71.21% in the paper).

This reproduction reports the same evidence numerically: per-class
probability vectors for a sampled test image, plus distribution-level
metrics over the whole test set (mean KL to the 32-bit output, top-1
agreement, and 4-bit accuracy under each training scheme).
"""

from __future__ import annotations


import numpy as np

from .. import rng as rng_mod
from ..baselines.spnets import train_cdt, train_sp
from ..core.trainer import TrainConfig
from ..data.loader import DataLoader
from ..data.synthetic import cifar100_like
from ..nn.models import mobilenet_v2
from ..obs.wallclock import wall_clock_s
from ..tensor import Tensor, no_grad, softmax
from .common import ExperimentResult, get_scale

__all__ = ["run", "BIT_SET", "PAPER_FIG2"]

BIT_SET = [4, 8, 12, 16, 32]

PAPER_FIG2 = {
    "vanilla_4bit_accuracy": 1.0,   # "around 1%" in the paper's text
    "cdt_4bit_accuracy": 71.21,
    "claim": "CDT's 4-bit predictions track the 32-bit distribution; "
             "vanilla distillation's do not",
}


def _distribution_stats(sp_net, dataset, low_bits, high_bits, batch_size=128):
    """Mean KL(low||high) and top-1 agreement between two bit-widths."""
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    kls, agree, total = [], 0, 0
    sp_net.eval()
    with no_grad():
        for images, _ in loader:
            x = Tensor(images)
            sp_net.set_bitwidth(low_bits)
            p_low = softmax(sp_net(x)).numpy()
            sp_net.set_bitwidth(high_bits)
            p_high = softmax(sp_net(x)).numpy()
            eps = 1e-9
            kls.append(
                float(np.mean(np.sum(
                    p_low * (np.log(p_low + eps) - np.log(p_high + eps)),
                    axis=1,
                )))
            )
            agree += int((p_low.argmax(1) == p_high.argmax(1)).sum())
            total += len(images)
    return float(np.mean(kls)), agree / total


def run(scale="default", seed: int = 0) -> ExperimentResult:
    """Regenerate Fig. 2's evidence at the requested scale."""
    scale = get_scale(scale)
    rng_mod.set_seed(seed)
    start = wall_clock_s()
    # Even the smoke scale needs >= 3 widths: with two, vanilla and
    # cascade distillation coincide (single-teacher degenerate case).
    bit_set = [4, 8, 32] if scale.name == "smoke" else BIT_SET
    train_set, test_set = cifar100_like(
        num_train=scale.train_samples, num_test=scale.test_samples,
        image_size=scale.image_size, num_classes=scale.num_classes,
        difficulty=scale.difficulty,
    )
    config = TrainConfig(epochs=scale.epochs, batch_size=scale.batch_size)

    def builder(factory):
        return mobilenet_v2(
            num_classes=scale.num_classes, factory=factory,
            width_mult=scale.width_mult, setting="tiny",
        )

    result = ExperimentResult(
        experiment="fig2",
        title="Prediction distribution: vanilla distillation vs CDT "
              "(MobileNetV2, 4-bit vs 32-bit)",
        paper_reference=PAPER_FIG2,
        scale=scale.name,
    )

    # Vanilla distillation = lower widths learn ONLY from the 32-bit
    # teacher's outputs ("only consider the distillation with 32-bit",
    # Fig. 2's text) with the paper's SBM quantiser — isolating the
    # distillation scheme as the only difference from CDT.
    vanilla = train_sp(builder, bit_set, train_set, test_set, config,
                       quantizer="sbm", ce_on_students=False)
    rng_mod.set_seed(seed)
    cdt = train_cdt(builder, bit_set, train_set, test_set, config)

    low, high = bit_set[0], bit_set[-1]
    for name, trained in (("vanilla", vanilla), ("cdt", cdt)):
        kl, agreement = _distribution_stats(
            trained.sp_net, test_set, low, high
        )
        result.add_row(
            method=name,
            acc_4bit=round(100 * trained.accuracies[low], 2),
            acc_32bit=round(100 * trained.accuracies[high], 2),
            kl_4bit_to_32bit=round(kl, 4),
            top1_agreement=round(agreement, 4),
        )

    # The sampled-image distributions of the paper's visualisation.
    image, label = test_set[0]
    x = Tensor(image[None])
    distributions = {}
    with no_grad():
        for name, trained in (("vanilla", vanilla), ("cdt", cdt)):
            trained.sp_net.eval()
            trained.sp_net.set_bitwidth(low)
            distributions[f"{name}_4bit"] = softmax(
                trained.sp_net(x)).numpy()[0].round(4).tolist()
        cdt.sp_net.set_bitwidth(high)
        distributions["32bit"] = softmax(
            cdt.sp_net(x)).numpy()[0].round(4).tolist()
    result.paper_reference = dict(PAPER_FIG2)
    result.paper_reference["sampled_image_distributions"] = distributions
    result.paper_reference["sampled_image_label"] = int(label)
    result.notes = (
        "KL and agreement quantify the paper's visual claim; "
        "sampled-image distributions stored in paper_reference"
    )
    result.seconds = wall_clock_s() - start
    return result


if __name__ == "__main__":
    from ..obs.console import experiment_main

    raise SystemExit(experiment_main(run))
