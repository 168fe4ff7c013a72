"""End-to-end InstantNet: generate and deploy an IoT vision system.

The paper's motivating scenario: an IoT device whose energy budget varies
over time.  InstantNet (1) searches an SP-Net architecture, (2) trains it
with cascade distillation so one weight set serves every bit-width, and
(3) searches a dataflow per bit-width — yielding an accuracy/EDP menu the
device can switch through *instantly* as its battery drains.

Run:
    python examples/end_to_end_iot.py
"""

from repro import rng
from repro.baselines import train_method
from repro.core import TrainConfig
from repro.core.automapper import AutoMapper, AutoMapperConfig, map_bit_widths
from repro.core.spnas import SPNASConfig, build_derived, search_spnas, tiny_search_space
from repro.data import cifar10_like
from repro.hardware import edge_asic

BIT_WIDTHS = [4, 8, 32]
IMAGE_SIZE = 16


def main():
    rng.set_seed(0)
    train_set, test_set = cifar10_like(num_train=1024, num_test=256,
                                       image_size=IMAGE_SIZE, difficulty=2.0)

    # ---- Development: SP-NAS + CDT ------------------------------------
    print("=== Development: searching an SP-Net architecture ===")
    space = tiny_search_space(IMAGE_SIZE)
    search = search_spnas(
        space, BIT_WIDTHS, 10, train_set,
        SPNASConfig(epochs=2, batch_size=32, flops_target=4e5, lambda_eff=1.0),
    )
    print(f"architecture: {' '.join(search.labels)}  "
          f"({search.flops:.2e} MACs)")

    print("\n=== Development: cascade distillation training ===")
    trained = train_method(
        "cdt", build_derived(search, 10), BIT_WIDTHS, train_set, test_set,
        TrainConfig(epochs=6, batch_size=64),
    )

    # ---- Deployment: AutoMapper per bit-width -------------------------
    print("\n=== Deployment: dataflow search per bit-width ===")
    device = edge_asic()
    mapper = AutoMapper(device, AutoMapperConfig(generations=30, metric="edp"))
    mapped = map_bit_widths(mapper, trained.sp_net.model, IMAGE_SIZE, BIT_WIDTHS)
    menu = [(bits, trained.accuracies[bits], result.edp)
            for bits, result in mapped.items()]

    # ---- The switchable operating menu ---------------------------------
    print("\nOperating menu for the IoT device (switch instantly):")
    print(f"{'bits':>5} {'accuracy':>9} {'EDP (J*s)':>12}")
    for bits, acc, edp in menu:
        print(f"{bits:>5} {100 * acc:>8.2f}% {edp:>12.3e}")
    full = menu[-1]
    low = menu[0]
    print(f"\nDropping 32-bit -> 4-bit saves "
          f"{100 * (1 - low[2] / full[2]):.1f}% EDP at a "
          f"{100 * (full[1] - low[1]):.2f}% accuracy cost.")


if __name__ == "__main__":
    main()
