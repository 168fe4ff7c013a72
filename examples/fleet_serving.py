"""Replica-fleet serving through the library API.

Scales the single-engine serving quickstart to a *fleet*: one trained
switchable-precision checkpoint, N engine replicas each materializing a
private copy of it via :class:`repro.serve.ModelRegistry`, a routing
layer balancing a bursty arrival trace across them.

The same fleet is reachable without code via::

    python -m repro serve-sim --replicas 4 --router least_queue

or from a pipeline JSON (``serve.replicas`` / ``serve.router``).

Run:
    python examples/fleet_serving.py
"""

from repro.serve import (
    ModelRegistry,
    ServeScale,
    SPNetConfig,
    build_fleet_report,
    build_sp_net,
    format_fleet_reports,
    make_fleet,
    prepare_simulation,
    simulate_fleet,
)


def main():
    # One checkpoint: a small switchable-precision MobileNetV2 persisted
    # under a registry root, exactly as the pipeline's train stage would
    # leave it.
    config = SPNetConfig(
        model="mobilenet_v2", bit_widths=(4, 8, 16), num_classes=5,
        width_mult=0.25, image_size=12,
    )
    registry = ModelRegistry("runs/fleet-example")
    registry.register("checkpoint", build_sp_net(config), config,
                      persist=True)

    # The scale serves that same config: price the model once
    # (AutoMapper latency table) and generate the bursty trace the fleet
    # replays.
    scale = ServeScale(
        name="fleet-example", num_requests=240, model=config,
        max_batch=8, mapper_generations=3,
    )
    fixture = prepare_simulation("bursty", scale)

    # A 4-replica fleet behind the join-shortest-queue router.
    # Every replica materializes its own model instance from the one
    # checkpoint — private weight cache, private bit-switching state.
    fleet = make_fleet(
        fixture, "slo", replicas=4, router="least_queue",
        registry=registry, model_name="checkpoint",
    )
    end_s = simulate_fleet(fleet, fixture.requests)
    report = build_fleet_report(
        "bursty", "slo", scale, fleet, end_s, fixture.slo_s
    )

    print(format_fleet_reports([report]))
    print()
    print(f"4-replica fleet: {report.throughput_rps:8.1f} req/s, "
          f"p95 {report.latency_p95_s * 1e3:.3f} ms")


if __name__ == "__main__":
    main()
