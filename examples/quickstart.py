"""Quickstart: the whole InstantNet flow through the pipeline facade.

One :class:`repro.api.PipelineConfig` drives all four stages — SP-NAS
architecture generation, Cascade Distillation Training (one weight set
accurate at every bit-width), per-bit-width dataflow deployment, and a
traffic-replay serving simulation — chained through artifacts in a run
directory.  The same config, saved as JSON, runs identically via::

    python -m repro pipeline run --config examples/pipeline_smoke.json

Run:
    python examples/quickstart.py
"""

import json

from repro.api import (
    DeployConfig,
    ModelConfig,
    PipelineConfig,
    SearchConfig,
    ServeConfig,
    TrainConfig,
    run_pipeline,
)


def main():
    config = PipelineConfig(
        name="quickstart",
        seed=0,
        # The network every stage shares (the same class the checkpoint
        # embeds): SP-NAS will derive the topology; one weight set serves
        # bit-widths 4 and 8 with per-bit batch-norm.
        model=ModelConfig(
            model="derived", bit_widths=[4, 8], num_classes=10,
            image_size=16, quantizer="sbm",
        ),
        # generate: bi-level SP-NAS over the tiny search space.
        search=SearchConfig(space="tiny", epochs=2, batch_size=32,
                            samples=512, flops_target=4e5),
        # train: cascade distillation (Eq. 1) — every bit-width distils
        # from all higher ones, with stop-gradient.
        train=TrainConfig(method="cdt", epochs=4, batch_size=64,
                          train_samples=1024, test_samples=256),
        # deploy: evolutionary dataflow search per bit-width on the IoT
        # accelerator model.
        deploy=DeployConfig(device="edge", metric="edp", generations=12),
        # serve: replay a bursty arrival trace under the SLO-adaptive
        # precision policy — the instantaneous-switching payoff.
        serve=ServeConfig(scenario="bursty", policy="slo",
                          num_requests=192, max_batch=8),
    )

    result = run_pipeline(config, run_dir="runs/quickstart")

    print("\n=== artifacts ===")
    for stage in result.stages_run:
        print(f"  {stage:<9} {result.artifacts[stage]}")

    train = result.reports["train"]
    print("\nTest accuracy per bit-width (one network, shared weights):")
    for entry in train["accuracies"]:
        print(f"  {str(entry['bits']):>7}-bit: {100 * entry['accuracy']:5.2f}%")

    deploy = result.reports["deploy"]
    print("\nDeployment menu (switch instantly as the budget changes):")
    for mapping in deploy["mappings"]:
        print(f"  {str(mapping['bits']):>7}-bit: "
              f"EDP {mapping['edp']:.3e} J*s, "
              f"latency {mapping['per_image_latency_s'] * 1e3:.3f} ms/image")

    serve = result.reports["serve"]
    report = serve["reports"][0]
    print(f"\nServing under '{report['scenario']}' traffic "
          f"({report['policy']} policy): "
          f"p95 {report['latency_p95_s'] * 1e3:.2f} ms, "
          f"{report['throughput_rps']:.0f} req/s, "
          f"accuracy {report['accuracy']:.3f}")
    print(f"per-bit occupancy: {json.dumps(report['occupancy'])}")


if __name__ == "__main__":
    main()
