"""``repro serve-real``: run the real plane, replay a trace, validate.

Orchestrates the whole serving plane for one command:

1. prepare the simulation fixture (model + AutoMapper-priced latency
   oracle + arrival schedule) exactly as ``serve-sim`` would, or adopt
   a previously recorded ``--trace``;
2. checkpoint the model once and spawn ``--workers`` real processes
   from it (mmap-shared weights), behind the asyncio gateway;
3. replay the workload trace over HTTP on the shared virtual clock,
   scrape ``/metrics``, drain gracefully, and aggregate the responses
   into a :class:`~repro.serve.cluster.FleetReport` per policy;
4. with ``--compare``, run the discrete-event fleet simulator over the
   *same* trace as the oracle and assert the real plane preserves its
   policy latency ordering and per-bit occupancy within tolerance
   (``--strict`` turns a failed comparison into exit code 1).

``--serve`` flips from the replay harness to a long-lived server:
endpoints are printed, SIGTERM triggers the graceful drain, and the
report is written at exit.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
from typing import List, Optional

from ..api.registry import choices
from ..obs.console import error, info

__all__ = ["add_arguments", "run_from_args"]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="bursty",
                        choices=choices("scenarios"))
    parser.add_argument("--policy", default="all",
                        choices=("all",) + choices("policies"))
    parser.add_argument("--scale", default="smoke",
                        choices=choices("serve_scales"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes, each holding a resident engine",
    )
    parser.add_argument(
        "--router", default="least_queue", choices=choices("routers"),
        help="registry router assigning requests to workers",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="replay this recorded trace (repro serve-sim "
             "--record-trace) instead of generating the scenario's",
    )
    parser.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="replay only the first N requests of the trace",
    )
    parser.add_argument(
        "--time-scale", type=float, default=None, metavar="X",
        help="virtual-clock stretch factor (default: auto from the "
             "measured forward pass, with safety margin)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=256, metavar="N",
        help="admission bound: outstanding requests before 429",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="gateway bind address",
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="gateway port (0: ephemeral)",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="also run the fleet simulator over the same trace and "
             "check latency ordering + bit occupancy against it",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when the --compare verdict fails",
    )
    parser.add_argument(
        "--occupancy-tolerance", type=float, default=None, metavar="D",
        help="max per-policy L1 distance between normalised sim and "
             "real bit-occupancy histograms (default: 0.35)",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="serve until SIGTERM instead of replaying the trace "
             "(requires a concrete --policy, not 'all')",
    )
    parser.add_argument(
        "--output-dir", default=None, metavar="DIR",
        help="artifact directory (default: "
             "runs/serve-real-<scenario>-<scale>)",
    )


def _prepare(args):
    """(fixture, trace, scenario) — from --trace or a fresh scenario."""
    from .. import rng as rng_mod
    from ..serve.simulator import prepare_simulation
    from ..workload.trace import Trace, record_trace

    if args.trace:
        trace = Trace.load(args.trace)
        scenario = trace.meta.get("scenario", args.scenario)
        scale = trace.meta.get("scale", args.scale)
        seed = int(trace.meta.get("seed", args.seed))
        rng_mod.set_seed(seed)
        fixture = prepare_simulation(scenario, scale)
    else:
        scenario = args.scenario
        rng_mod.set_seed(args.seed)
        fixture = prepare_simulation(scenario, args.scale)
        trace = record_trace(fixture, scenario, args.seed)
    if args.max_requests is not None and args.max_requests < len(trace):
        kept = sorted(
            trace.events, key=lambda e: (e.arrival_s, e.request_id)
        )[: args.max_requests]
        trace = trace.derive(
            f"{trace.name}[:{args.max_requests}]", kept,
            step={"transform": "head", "n": args.max_requests},
        )
    return fixture, trace, scenario


async def _run_replay(gateway, pool, trace, args, obs_dir):
    """Serve + replay + scrape + drain, all on one event loop."""
    from .replay import http_request_json, replay_trace

    await gateway.start()
    try:
        gateway.install_signal_handlers()
    except (NotImplementedError, RuntimeError, ValueError):
        pass          # non-main thread / non-unix: drain via HTTP only
    outcome = await replay_trace(
        trace, gateway.host, gateway.port, pool.time_scale,
    )
    # Scrape the live exporter exactly the way Prometheus would, while
    # the plane is still up — this snapshot lands in the artifacts and
    # is what the CI gate greps for nonzero request counters.
    _, health = await http_request_json(
        gateway.host, gateway.port, "GET", "/healthz"
    )
    status, _ = await http_request_json(
        gateway.host, gateway.port, "GET", "/metrics"
    )
    scrape = None
    if status == 200 and gateway.metrics is not None:
        scrape = gateway.metrics.to_prometheus()
    await http_request_json(
        gateway.host, gateway.port, "POST", "/admin/drain"
    )
    drained = await gateway.wait_drained(timeout_s=120.0)
    await gateway.close()
    return outcome, scrape, health, drained


async def _run_server(gateway, args):
    """--serve mode: run until SIGTERM/SIGINT initiates the drain."""
    await gateway.start()
    try:
        gateway.install_signal_handlers()
    except (NotImplementedError, RuntimeError, ValueError):
        pass
    info(f"serving on http://{gateway.host}:{gateway.port}  "
         f"(policy={gateway.pool.policy}, "
         f"workers={gateway.pool.num_workers}, "
         f"time_scale={gateway.pool.time_scale:g}; "
         f"SIGTERM drains gracefully)")
    info(f"  POST /infer    GET /metrics    GET /healthz    "
         f"GET /stats    POST /admin/drain")
    drained = await gateway.wait_drained(timeout_s=None)
    await gateway.close()
    return drained


def _run_policy(args, fixture, trace, scenario, checkpoint, policy,
                tracer, metrics, obs_dir):
    """One policy's full real-plane pass; returns (report, summary)."""
    from .gateway import Gateway
    from .pool import WorkerPool, build_pool_report

    pool = WorkerPool(
        checkpoint,
        policy,
        fixture.latency_model,
        bit_widths=fixture.sp_net.bit_widths,
        workers=args.workers,
        router=args.router,
        max_batch=fixture.scale.max_batch,
        slo_s=fixture.slo_s,
        time_scale=args.time_scale,
        max_pending=args.max_pending,
        warmup_shape=(3, fixture.scale.image_size, fixture.scale.image_size),
        tracer=tracer.bind(scenario=scenario, policy=policy,
                           router=args.router, replicas=args.workers),
    )
    pool.start()
    info(f"  policy={policy}: {args.workers} workers ready, "
         f"time_scale={pool.time_scale:g} "
         f"(slowest forward "
         f"{max(w.forward_wall_s for w in pool._workers) * 1e3:.1f}ms)")
    gateway = Gateway(pool, host=args.host, port=args.port,
                      metrics=metrics)
    try:
        if args.serve:
            asyncio.run(_run_server(gateway, args))
            outcome, scrape, health, drained = None, None, None, True
        else:
            outcome, scrape, health, drained = asyncio.run(
                _run_replay(gateway, pool, trace, args, obs_dir)
            )
    finally:
        pool.stop()
    if not drained:
        info(f"  policy={policy}: WARNING drain timed out")
    report = build_pool_report(
        pool, scenario, fixture.scale.name, fixture.slo_s
    )
    summary = {
        "policy": policy,
        "time_scale": pool.time_scale,
        "drained": drained,
        "health": health,
    }
    if outcome is not None:
        summary.update({
            "attempted": outcome.attempted,
            "completed": len(outcome.completed),
            "rejected_429": outcome.rejected,
            "failed": outcome.failed,
        })
    return report, summary, scrape


def run_from_args(args: argparse.Namespace) -> int:
    from ..api.registry import POLICIES
    from ..obs.artifacts import write_obs_artifacts
    from ..obs.metrics import MetricsRecorder, MetricsRegistry
    from ..obs.tracer import Tracer
    from ..serve.checkpoint import save_checkpoint
    from ..serve.cluster import format_fleet_reports

    if args.workers < 1:
        error(f"--workers {args.workers} must be >= 1")
        return 2
    policies: List[str] = (
        list(POLICIES.names()) if args.policy == "all" else [args.policy]
    )
    if args.serve and len(policies) != 1:
        error("--serve requires a concrete --policy (not 'all')")
        return 2

    fixture, trace, scenario = _prepare(args)
    out_dir = args.output_dir or (
        f"runs/serve-real-{scenario}-{fixture.scale.name}"
    )
    os.makedirs(out_dir, exist_ok=True)
    trace.save(os.path.join(out_dir, "trace.jsonl"))
    checkpoint, _ = save_checkpoint(
        fixture.sp_net, fixture.config, os.path.join(out_dir, "model")
    )
    info(f"serve-real scenario={scenario} scale={fixture.scale.name} "
         f"requests={len(trace)} workers={args.workers} "
         f"router={args.router}")

    metrics = MetricsRegistry()
    tracer = Tracer(sinks=(MetricsRecorder(metrics),))

    reports, summaries, last_scrape = [], [], None
    for policy in policies:
        report, summary, scrape = _run_policy(
            args, fixture, trace, scenario, checkpoint, policy,
            tracer, metrics, out_dir,
        )
        reports.append(report)
        summaries.append(summary)
        if scrape is not None:
            last_scrape = scrape

    info("")
    info(format_fleet_reports(reports))

    report_path = os.path.join(out_dir, "serve_real_report.json")
    with open(report_path, "w") as handle:
        json.dump(
            {
                "plane": "real",
                "scenario": scenario,
                "scale": fixture.scale.name,
                "workers": args.workers,
                "router": args.router,
                "reports": [r.to_json_dict() for r in reports],
                "replay": summaries,
            },
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    info(f"\nwrote {report_path}")
    if last_scrape is not None:
        scrape_path = os.path.join(out_dir, "metrics_scrape.prom")
        with open(scrape_path, "w") as handle:
            handle.write(last_scrape)
        info(f"wrote {scrape_path} (live /metrics snapshot)")
    paths = write_obs_artifacts(out_dir, tracer=tracer, metrics=metrics)
    info(f"recorded {len(tracer)} span events -> {paths['trace']} "
         f"(inspect with `repro obs {out_dir}`)")

    if not args.compare:
        return 0

    from ..serve.cluster import run_fleet_sim
    from .compare import (
        DEFAULT_OCCUPANCY_TOLERANCE,
        compare_reports,
        format_verdict,
    )

    # The oracle: the deterministic fleet simulator over the *same*
    # trace (bit-identical payload regeneration), same worker count and
    # router, one run per policy.
    sim_fixture = dataclasses.replace(
        fixture, requests=tuple(trace.materialize())
    )
    sim_reports = []
    for policy in policies:
        sim_reports.extend(run_fleet_sim(
            scenario=scenario, policy=policy, scale=fixture.scale,
            seed=args.seed, replicas=args.workers, router=args.router,
            fixture=sim_fixture,
        ))
    verdict = compare_reports(
        sim_reports, reports,
        occupancy_tolerance=(
            args.occupancy_tolerance
            if args.occupancy_tolerance is not None
            else DEFAULT_OCCUPANCY_TOLERANCE
        ),
    )
    info("")
    info(format_verdict(verdict))
    compare_path = os.path.join(out_dir, "sim_vs_real.json")
    with open(compare_path, "w") as handle:
        json.dump(
            {
                "verdict": verdict,
                "sim_reports": [r.to_json_dict() for r in sim_reports],
            },
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    info(f"wrote {compare_path}")
    if args.strict and not verdict["ok"]:
        error("sim-vs-real comparison failed (--strict)")
        return 1
    return 0
