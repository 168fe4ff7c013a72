"""Development phase: SP-NAS — search for an SP-Net architecture.

Runs the paper's switchable-precision NAS (Eq. 2): supernet weights are
trained with cascade distillation over the full bit-width set while the
architecture parameters follow the *lowest* bit-width's loss plus a
FLOPs-budget efficiency term.  The derived architecture is then trained
from scratch with CDT and compared against an FP-NAS baseline that
searched blind to quantisation.

Run:
    python examples/search_architecture.py
"""

from repro import rng
from repro.baselines import train_method
from repro.core import TrainConfig
from repro.core.spnas import (
    SPNASConfig,
    build_derived,
    search_fp_nas,
    search_spnas,
    tiny_search_space,
)
from repro.data import cifar100_like

BIT_WIDTHS = [4, 8, 32]
NUM_CLASSES = 10


def main():
    rng.set_seed(0)
    train_set, test_set = cifar100_like(
        num_train=1024, num_test=256, image_size=16,
        num_classes=NUM_CLASSES, difficulty=2.5,
    )
    space = tiny_search_space(16)
    nas_config = SPNASConfig(epochs=3, batch_size=32,
                             flops_target=5e5, lambda_eff=1.0)

    results = {}
    for name, searcher in (("SP-NAS", search_spnas), ("FP-NAS", search_fp_nas)):
        rng.set_seed(0)
        print(f"[{name}] searching ({space.num_searchable_layers} layers, "
              f"budget {nas_config.flops_target:.1e} MACs) ...")
        search = searcher(space, BIT_WIDTHS, NUM_CLASSES, train_set, nas_config)
        print(f"[{name}] architecture: {' '.join(search.labels)}")
        print(f"[{name}] FLOPs: {search.flops:.3e}")

        rng.set_seed(0)
        trained = train_method(
            "cdt", build_derived(search, NUM_CLASSES), BIT_WIDTHS,
            train_set, test_set, TrainConfig(epochs=6, batch_size=64),
        )
        results[name] = trained.accuracies
        accs = "  ".join(f"{b}b={100 * a:.1f}%" for b, a in
                         trained.accuracies.items())
        print(f"[{name}] retrained with CDT: {accs}\n")

    low = min(BIT_WIDTHS)
    print(f"At the bottleneck {low}-bit width: "
          f"SP-NAS {100 * results['SP-NAS'][low]:.1f}% vs "
          f"FP-NAS {100 * results['FP-NAS'][low]:.1f}% "
          "(the paper's Fig. 4 claim: SP-NAS wins at the lowest bit)")


if __name__ == "__main__":
    main()
