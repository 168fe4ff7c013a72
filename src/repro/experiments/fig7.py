"""Fig. 7 — InstantNet vs a SOTA FPGA IoT system on ImageNet.

Bit set [4, 5, 6, 8] on the ZC706-class FPGA.  The paper reports the
InstantNet-generated system reaching **1.86x the FPS** of the baseline
FPGA system (a DNNBuilder-style pipelined accelerator running an expert
network) at comparable accuracy (-0.05%), and 1.16x at another operating
point.

Here both systems are trained switchable on the ImageNet stand-in and
mapped to the FPGA: the baseline with DNNBuilder's pipelined dataflow,
InstantNet with AutoMapper searching the full space (pipeline axis
included) for latency.
"""

from __future__ import annotations


from .. import rng as rng_mod
from ..baselines.dataflows import dnnbuilder_mapper
from ..baselines.spnets import train_adabits, train_cdt
from ..core.automapper import AutoMapper, AutoMapperConfig
from ..core.spnas import SPNASConfig, build_derived, search_spnas, tiny_search_space
from ..core.trainer import TrainConfig
from ..data.synthetic import imagenet_like
from ..hardware import evaluate_network, extract_workloads, zc706_like_fpga
from ..nn.models import mobilenet_v2
from ..obs.wallclock import wall_clock_s
from ..quant.layers import normalize_bits
from .common import ExperimentResult, get_scale

__all__ = ["run", "BIT_SET", "PAPER_FIG7"]

BIT_SET = [4, 5, 6, 8]

PAPER_FIG7 = {
    "fps_gain": 1.86,
    "fps_gain_secondary": 1.16,
    "accuracy_delta_pct": -0.05,
}


def run(scale="default", seed: int = 0) -> ExperimentResult:
    """Regenerate Fig. 7 at the requested scale."""
    scale = get_scale(scale)
    rng_mod.set_seed(seed)
    start = wall_clock_s()
    bit_set = [4, 8] if scale.name == "smoke" else BIT_SET
    result = ExperimentResult(
        experiment="fig7",
        title="InstantNet vs SOTA FPGA IoT system (ImageNet-like, FPS)",
        paper_reference=PAPER_FIG7,
        scale=scale.name,
    )
    device = zc706_like_fpga()
    image_size = min(24, scale.image_size + 8)
    train_set, test_set = imagenet_like(
        num_train=scale.train_samples, num_test=scale.test_samples,
        image_size=image_size, num_classes=scale.num_classes,
        difficulty=scale.difficulty * 0.8,
    )
    config = TrainConfig(epochs=scale.epochs, batch_size=scale.batch_size)

    # --- InstantNet: SP-NAS + CDT + AutoMapper(latency) ----------------
    space = tiny_search_space(image_size)
    search = search_spnas(
        space, bit_set, scale.num_classes, train_set,
        SPNASConfig(epochs=scale.nas_epochs,
                    batch_size=min(32, scale.batch_size),
                    flops_target=0.4 * _max_flops(space), lambda_eff=1.0),
    )
    rng_mod.set_seed(seed)
    instantnet = train_cdt(
        build_derived(search, scale.num_classes), bit_set, train_set,
        test_set, config,
    )

    # --- Baseline Sys.3: expert network + DNNBuilder pipeline ----------
    def mbv2_builder(factory):
        return mobilenet_v2(
            num_classes=scale.num_classes, factory=factory,
            width_mult=scale.width_mult, setting="tiny",
        )

    rng_mod.set_seed(seed)
    baseline = train_adabits(mbv2_builder, bit_set, train_set, test_set,
                             config)

    mapper = AutoMapper(
        device,
        AutoMapperConfig(generations=scale.mapper_generations,
                         metric="latency", seed_key=f"fig7-{seed}"),
    )
    for bits in bit_set:
        w_bits, _ = normalize_bits(bits)
        inst_workloads = extract_workloads(
            instantnet.sp_net.model, image_size, bits=w_bits
        )
        inst = mapper.search_network(inst_workloads, pipeline=None)
        base_workloads = extract_workloads(
            baseline.sp_net.model, image_size, bits=w_bits
        )
        total_macs = float(sum(w.macs for w in base_workloads)) or 1.0
        base_flows = []
        for w in base_workloads:
            share = max(w.macs / total_macs, 1.0 / (4 * len(base_workloads)))
            base_flows.append(
                dnnbuilder_mapper(w, device, buffer_fraction=share,
                                  pe_fraction=share)
            )
        base_cost = evaluate_network(
            base_workloads, base_flows, device, pipeline=True
        )
        fps_gain = inst.fps / base_cost.fps if base_cost.fps > 0 else float("inf")
        result.add_row(
            bits=bits,
            acc_instantnet=round(100 * instantnet.accuracies[bits], 2),
            acc_baseline=round(100 * baseline.accuracies[bits], 2),
            fps_instantnet=round(inst.fps, 1),
            fps_baseline=round(base_cost.fps, 1),
            fps_gain=round(fps_gain, 2),
            pipeline_chosen=inst.pipeline,
        )
    result.notes = (
        "baseline = AdaBits-trained MobileNetV2 on a DNNBuilder pipelined "
        "FPGA accelerator; ImageNet stand-in per DESIGN.md"
    )
    result.seconds = wall_clock_s() - start
    return result


def _max_flops(space) -> float:
    from ..core.spnas.space import candidate_flops

    return sum(
        max(candidate_flops(c, *cfg[:4]) for c in space.candidates)
        for cfg in space.layer_configs()
    )


if __name__ == "__main__":
    from ..obs.console import experiment_main

    raise SystemExit(experiment_main(run))
