"""Fig. 5 — AutoMapper vs expert-crafted / tool-generated dataflows.

Three comparison groups, as in the paper's bar chart:

* **FPGA vs DNNBuilder** on AlexNet / VGG16 (paper: -9.20% / -9.98%),
* **ASIC vs Eyeriss row-stationary** on AlexNet / VGG16 / ResNet50 /
  MobileNetV2 (paper: -65.76% / -85.74% / -14.30% / -4.60% EDP),
* **ASIC vs MAGNet** on ResNet50 (paper: roughly -9.3% energy).

CHaiDNN is included as the second FPGA baseline (the paper lists it in
the setup).  All mappers are priced on the same analytical cost model,
batch 1, 16-bit operands.
"""

from __future__ import annotations

from typing import Dict

from .. import rng as rng_mod
from ..baselines.dataflows import baseline_mapper
from ..core.automapper import AutoMapper, AutoMapperConfig
from ..hardware import eyeriss_like_asic, network_by_name, zc706_like_fpga
from ..obs.wallclock import wall_clock_s
from .common import ExperimentResult, get_scale

__all__ = ["run", "PAPER_FIG5"]

# Paper's reported reductions (%): positive = AutoMapper better.
PAPER_FIG5 = {
    ("dnnbuilder", "alexnet"): 9.20,
    ("dnnbuilder", "vgg16"): 9.98,
    ("eyeriss", "alexnet"): 65.76,
    ("eyeriss", "vgg16"): 85.74,
    ("eyeriss", "resnet50"): 14.30,
    ("eyeriss", "mobilenetv2"): 4.60,
    ("magnet", "resnet50"): 9.3,
}

# (baseline, networks, device kind, metric) per comparison group.
_GROUPS = (
    ("dnnbuilder", ("alexnet", "vgg16"), "fpga", "edp"),
    ("chaidnn", ("alexnet", "vgg16"), "fpga", "edp"),
    ("eyeriss", ("alexnet", "vgg16", "resnet50", "mobilenetv2"), "asic", "edp"),
    ("magnet", ("resnet50",), "asic", "energy"),
)


def _metric_value(cost, metric: str) -> float:
    return cost.edp if metric == "edp" else cost.energy_pj


def run(scale="default", seed: int = 0) -> ExperimentResult:
    """Regenerate Fig. 5 at the requested scale."""
    scale = get_scale(scale)
    rng_mod.set_seed(seed)
    start = wall_clock_s()
    result = ExperimentResult(
        experiment="fig5",
        title="AutoMapper vs expert dataflows (normalized hardware cost)",
        paper_reference={f"{b}/{n}": v for (b, n), v in PAPER_FIG5.items()},
        scale=scale.name,
    )
    devices = {"asic": eyeriss_like_asic(), "fpga": zc706_like_fpga()}
    networks = (
        {"alexnet": network_by_name("alexnet")}
        if scale.name == "smoke"
        else {
            name: network_by_name(name)
            for name in ("alexnet", "vgg16", "resnet50", "mobilenetv2")
        }
    )
    mappers: Dict[tuple, AutoMapper] = {}
    for group, nets, platform, metric in _GROUPS:
        device = devices[platform]
        for net_name in nets:
            if net_name not in networks:
                continue
            workloads = networks[net_name]
            key = (platform, metric)
            if key not in mappers:
                mappers[key] = AutoMapper(
                    device,
                    AutoMapperConfig(
                        generations=scale.mapper_generations,
                        metric=metric,
                        seed_key=f"fig5-{platform}-{metric}-{seed}",
                    ),
                )
            ours = mappers[key].search_network(
                workloads, pipeline=None if platform == "fpga" else False
            )
            base = baseline_mapper(group, workloads, device)
            ours_val = _metric_value(ours.network_cost, metric)
            base_val = _metric_value(base, metric)
            reduction = 100.0 * (1.0 - ours_val / base_val)
            result.add_row(
                baseline=group,
                network=net_name,
                platform=platform,
                metric=metric,
                automapper=ours_val,
                baseline_cost=base_val,
                reduction_pct=round(reduction, 2),
                paper_reduction_pct=PAPER_FIG5.get((group, net_name), ""),
            )
    result.notes = (
        "batch 1, 16-bit; all mappers priced on the shared analytical "
        "cost model (DESIGN.md substitution for HLS/ASIC measurement)"
    )
    result.seconds = wall_clock_s() - start
    return result


if __name__ == "__main__":
    from ..obs.console import experiment_main

    raise SystemExit(experiment_main(run))
