"""Fig. 6 — InstantNet-generated systems vs SOTA IoT baselines.

The end-to-end experiment: accuracy *and* Energy-Delay-Product of full
systems (network + training scheme + dataflow) on CIFAR-10/100 under two
bit sets.  Systems compared (the paper's baselines are unnamed "SOTA IoT
systems"; DESIGN.md records this concrete instantiation):

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

from typing import Dict, List

from .. import rng as rng_mod
from ..baselines.dataflows import eyeriss_row_stationary, magnet_mapper
from ..baselines.spnets import train_adabits, train_cdt, train_sp
from ..core.automapper import AutoMapper, AutoMapperConfig
from ..core.spnas import SPNASConfig, build_derived, search_spnas, tiny_search_space
from ..core.trainer import TrainConfig
from ..data.synthetic import cifar10_like, cifar100_like
from ..hardware import edge_asic, evaluate_network, extract_workloads
from ..nn.models import mobilenet_v2
from ..obs.wallclock import wall_clock_s
from ..quant.layers import normalize_bits
from .common import ExperimentResult, get_scale

__all__ = ["run", "PAPER_FIG6"]

PAPER_FIG6 = {
    "edp_reduction_lowest_bit_pct": (62.5, 84.67),
    "accuracy_gain_lowest_bit_pct": (0.91, 5.25),
    "headline": "-84.67% EDP with +1.44% accuracy on CIFAR-100, bit set "
                "[4, 8, 12, 16, 32]",
}


def _bit_sets_for(scale) -> List[list]:
    if scale.name == "smoke":
        return [[4, 32]]
    if scale.name == "default":
        return [[4, 8, 32]]
    return [[4, 8, 12, 16, 32], [4, 5, 6, 8]]


def _edp_at_bits(model, input_size, device, mapper=None, mapper_flows=None,
                 bits=8) -> float:
    """EDP of one network executed at one bit-width on the device."""
    w_bits, _ = normalize_bits(bits)
    workloads = extract_workloads(model, input_size, bits=w_bits)
    if mapper is not None:
        res = mapper.search_network(workloads, pipeline=False)
        return res.network_cost.edp
    flows = [mapper_flows(w, device) for w in workloads]
    return evaluate_network(workloads, flows, device, pipeline=False).edp


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

        for bit_set in _bit_sets_for(scale):
            # --- InstantNet: search + CDT + AutoMapper -----------------
            rng_mod.set_seed(seed)
            space = tiny_search_space(scale.image_size)
            search = search_spnas(
                space, bit_set, num_classes, train_set,
                SPNASConfig(epochs=scale.nas_epochs,
                            batch_size=min(32, scale.batch_size),
                            flops_target=0.4 * _max_flops(space),
                            lambda_eff=1.0),
            )
            rng_mod.set_seed(seed)
            instantnet = train_cdt(
                build_derived(search, num_classes), bit_set, train_set,
                test_set, config,
            )
            # --- Baseline systems ---------------------------------------
            rng_mod.set_seed(seed)
            sys1 = train_sp(mbv2_builder, bit_set, train_set, test_set, config)
            rng_mod.set_seed(seed)
            sys2 = train_adabits(mbv2_builder, bit_set, train_set, test_set,
                                 config)

            mapper = AutoMapper(
                device,
                AutoMapperConfig(generations=scale.mapper_generations,
                                 metric="edp",
                                 seed_key=f"fig6-{ds_name}-{seed}"),
            )
            for bits in bit_set:
                edp_instant = _edp_at_bits(
                    instantnet.sp_net.model, scale.image_size, device,
                    mapper=mapper, bits=bits,
                )
                edp_sys1 = _edp_at_bits(
                    sys1.sp_net.model, scale.image_size, device,
                    mapper_flows=eyeriss_row_stationary, bits=bits,
                )
                edp_sys2 = _edp_magnet(
                    sys2.sp_net.model, scale.image_size, device, bits
                )
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
        "unnamed baselines, see DESIGN.md)"
    )
    result.seconds = wall_clock_s() - start
    return result


def _max_flops(space) -> float:
    from ..core.spnas.space import candidate_flops

    return sum(
        max(candidate_flops(c, *cfg[:4]) for c in space.candidates)
        for cfg in space.layer_configs()
    )


def _edp_magnet(model, input_size, device, bits) -> float:
    from ..quant.layers import normalize_bits

    w_bits, _ = normalize_bits(bits)
    workloads = extract_workloads(model, input_size, bits=w_bits)
    flows, _ = magnet_mapper(workloads, device, tuning_budget=20)
    return evaluate_network(workloads, flows, device, pipeline=False).edp


if __name__ == "__main__":
    from ..obs.console import experiment_main

    raise SystemExit(experiment_main(run))
