"""Telemetry-plane walkthrough: trace a fleet, verify, inspect.

Demonstrates the three observability moves:

1. **Record** — run a deterministic fleet simulation with a live
   :class:`repro.obs.Tracer` (span events on the simulation clock);
2. **Verify** — re-run the identical simulation untraced and check the
   fleet report is *byte-identical*: telemetry is observational, never
   behavioural;
3. **Inspect** — write the trace into a run directory's ``obs/``
   sidecar and render the run-dir report (per-replica timeline,
   bit-occupancy Gantt, queue-depth/p95 series, slowest requests) —
   the same view ``python -m repro obs <run-dir>`` prints.

The same flows are reachable without code via::

    python -m repro serve-sim --scenario bursty --obs-dir runs/demo
    python -m repro obs runs/demo

Run:
    python examples/observability_tour.py
"""

import json
import tempfile

from repro import rng
from repro.obs import (
    NULL_TRACER,
    Tracer,
    render_run_dir,
    write_obs_artifacts,
)
from repro.serve import (
    ServeScale,
    SPNetConfig,
    build_fleet_report,
    make_fleet,
    prepare_simulation,
    simulate_fleet,
)

SCALE = ServeScale(
    name="obs-demo", num_requests=96,
    model=SPNetConfig(
        bit_widths=(4, 8, 16), num_classes=4, width_mult=0.25, image_size=10,
    ),
    max_batch=8, mapper_generations=2,
)


def run_fleet(tracer):
    """One bursty two-replica simulation; identical modulo the tracer."""
    rng.set_seed(0)
    fixture = prepare_simulation("bursty", SCALE)
    fleet = make_fleet(
        fixture, "slo", replicas=2, router="least_queue", tracer=tracer
    )
    end_s = simulate_fleet(fleet, fixture.requests)
    return build_fleet_report(
        "bursty", "slo", fixture.scale, fleet, end_s, fixture.slo_s
    )


def main():
    # 1. Record: span events accumulate in the tracer.
    tracer = Tracer()
    traced_report = run_fleet(tracer.bind(scenario="bursty", policy="slo"))
    print(f"recorded {len(tracer)} span events")
    kinds = {}
    for event in tracer.events:
        kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
    print("  " + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())))

    # 2. Verify: the untraced run (the shared NULL_TRACER) must agree
    #    byte for byte — tracing observes, it never steers.
    untraced_report = run_fleet(NULL_TRACER)
    traced_json = json.dumps(traced_report.to_json_dict(), sort_keys=True)
    untraced_json = json.dumps(untraced_report.to_json_dict(), sort_keys=True)
    assert traced_json == untraced_json, "tracing changed the report!"
    print("traced and untraced reports are byte-identical")

    # 3. Inspect: write the sidecar and render it with the same renderer
    #    as `python -m repro obs <run-dir>`.
    with tempfile.TemporaryDirectory() as run_dir:
        paths = write_obs_artifacts(run_dir, tracer)
        print(f"wrote trace: {paths['trace']}")
        print()
        print(render_run_dir(run_dir, buckets=8, width=40))


if __name__ == "__main__":
    main()
