"""Fig. 6 — InstantNet-generated systems vs SOTA IoT baselines.

The end-to-end experiment: accuracy *and* Energy-Delay-Product of full
systems (network + training scheme + dataflow) on CIFAR-10/100 under two
bit sets.  Systems compared (the paper's baselines are unnamed "SOTA IoT
systems"; this is one concrete instantiation):

* **InstantNet** — SP-NAS-searched network, CDT-trained, AutoMapper
  dataflow per bit-width (the full proposed pipeline);
* **Baseline Sys.1** — expert network (MobileNetV2) trained as an SP-Net
  with vanilla highest-bit distillation [SP], Eyeriss row-stationary
  dataflow;
* **Baseline Sys.2** — MobileNetV2 with AdaBits joint training, MAGNet
  template dataflow.

Claims to reproduce: InstantNet dominates the accuracy-vs-EDP trade-off,
with the biggest EDP cuts at the lowest bit-width (paper: -62.5%..-84.67%
EDP with +0.91%..+5.25% accuracy at the bottleneck width).
"""

from __future__ import annotations

from .. import rng as rng_mod
from ..baselines.dataflows import eyeriss_row_stationary, magnet_mapper
from ..baselines.spnets import train_method
from ..core.automapper import AutoMapper, AutoMapperConfig, bit_workloads, map_bit_widths
from ..core.spnas import tiny_search_space
from ..core.trainer import TrainConfig
from ..data.synthetic import cifar10_like, cifar100_like
from ..hardware import edge_asic, evaluate_network
from ..nn.models import mobilenet_v2
from ..obs.wallclock import wall_clock_s
from .common import ExperimentResult, bit_sets_for, get_scale, search_and_cdt

__all__ = ["run", "PAPER_FIG6"]

PAPER_FIG6 = {
    "edp_reduction_lowest_bit_pct": (62.5, 84.67),
    "accuracy_gain_lowest_bit_pct": (0.91, 5.25),
    "headline": "-84.67% EDP with +1.44% accuracy on CIFAR-100, bit set "
                "[4, 8, 12, 16, 32]",
}


def run(scale="default", seed: int = 0, datasets=None) -> ExperimentResult:
    """Regenerate Fig. 6 at the requested scale."""
    scale = get_scale(scale)
    rng_mod.set_seed(seed)
    start = wall_clock_s()
    result = ExperimentResult(
        experiment="fig6",
        title="InstantNet vs SOTA IoT systems: accuracy vs EDP",
        paper_reference=PAPER_FIG6,
        scale=scale.name,
    )
    device = edge_asic()
    if datasets is None:
        datasets = (
            ("cifar10",) if scale.name == "smoke" else ("cifar10", "cifar100")
        )
    config = TrainConfig(epochs=scale.epochs, batch_size=scale.batch_size)

    for ds_name in datasets:
        if ds_name == "cifar10":
            train_set, test_set = cifar10_like(
                num_train=scale.train_samples, num_test=scale.test_samples,
                image_size=scale.image_size, difficulty=scale.difficulty,
            )
            num_classes = 10
        else:
            train_set, test_set = cifar100_like(
                num_train=scale.train_samples, num_test=scale.test_samples,
                image_size=scale.image_size, num_classes=scale.num_classes,
                difficulty=scale.difficulty,
            )
            num_classes = scale.num_classes

        def mbv2_builder(factory):
            return mobilenet_v2(
                num_classes=num_classes, factory=factory,
                width_mult=scale.width_mult, setting="tiny",
            )

        for bit_set in bit_sets_for(scale):
            # --- InstantNet: search + CDT + AutoMapper -----------------
            space = tiny_search_space(scale.image_size)
            _, instantnet = search_and_cdt(
                space, bit_set, num_classes, train_set, test_set, scale,
                0.4 * space.max_flops, seed,
            )
            # --- Baseline systems ---------------------------------------
            rng_mod.set_seed(seed)
            sys1 = train_method("sp", mbv2_builder, bit_set, train_set,
                                test_set, config)
            rng_mod.set_seed(seed)
            sys2 = train_method("adabits", mbv2_builder, bit_set, train_set,
                                test_set, config)

            mapper = AutoMapper(
                device,
                AutoMapperConfig(generations=scale.mapper_generations,
                                 metric="edp",
                                 seed_key=f"fig6-{ds_name}-{seed}"),
            )
            instant_maps = map_bit_widths(
                mapper, instantnet.sp_net.model, scale.image_size, bit_set
            )
            sys1_layers = bit_workloads(
                sys1.sp_net.model, scale.image_size, bit_set
            )
            sys2_layers = bit_workloads(
                sys2.sp_net.model, scale.image_size, bit_set
            )
            for bits in bit_set:
                edp_instant = instant_maps[bits].edp
                edp_sys1 = _edp_eyeriss(sys1_layers[bits], device)
                edp_sys2 = _edp_magnet(sys2_layers[bits], device)
                result.add_row(
                    dataset=ds_name,
                    bit_set=str(bit_set),
                    bits=bits,
                    acc_instantnet=round(100 * instantnet.accuracies[bits], 2),
                    acc_sys1=round(100 * sys1.accuracies[bits], 2),
                    acc_sys2=round(100 * sys2.accuracies[bits], 2),
                    edp_instantnet=edp_instant,
                    edp_sys1=edp_sys1,
                    edp_sys2=edp_sys2,
                    edp_reduction_vs_best_pct=round(
                        100 * (1 - edp_instant / min(edp_sys1, edp_sys2)), 2
                    ),
                )
    result.notes = (
        "Sys.1 = SP-trained MobileNetV2 + Eyeriss RS; Sys.2 = AdaBits "
        "MobileNetV2 + MAGNet (concrete instantiation of the paper's "
        "unnamed baselines)"
    )
    result.seconds = wall_clock_s() - start
    return result


def _edp_eyeriss(workloads, device) -> float:
    flows = [eyeriss_row_stationary(w, device) for w in workloads]
    return evaluate_network(workloads, flows, device, pipeline=False).edp


def _edp_magnet(workloads, device) -> float:
    flows, _ = magnet_mapper(workloads, device, tuning_budget=20)
    return evaluate_network(workloads, flows, device, pipeline=False).edp


if __name__ == "__main__":
    from ..obs.console import experiment_main

    raise SystemExit(experiment_main(run))
