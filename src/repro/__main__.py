"""Command-line entry point: experiments, serving, pipeline.

Usage::

    python -m repro list
    python -m repro run table1 --scale smoke --seed 0
    python -m repro run all --scale default
    python -m repro serve-sim --scenario bursty --policy all --scale smoke
    python -m repro serve-sim --replicas 4 --router least_queue --obs-dir runs/fleet
    python -m repro obs runs/fleet
    python -m repro pipeline validate --config examples/pipeline_smoke.json
    python -m repro pipeline run --config examples/pipeline_smoke.json

All user-facing output flows through :mod:`repro.obs.console` (one seam
for quiet mode / teeing instead of scattered ``print`` calls).

Every ``choices=`` list below comes from the names declared in
:mod:`repro.api.registry`, so building the parser imports no subsystem
(no model zoo, quantiser, training or serving module) — component name
lists match the name tables by construction, not by hand-copied
literals.
"""

from __future__ import annotations

import argparse

from .api.registry import choices, lookup
from .obs.console import error, info


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="InstantNet reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="table1..table4, fig2..fig7, or all")
    run.add_argument("--scale", default="smoke", choices=choices("scales"))
    run.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve-sim",
        help="simulate the serving runtime under a traffic scenario",
        description=(
            "replay a deterministic arrival scenario against the "
            "micro-batched inference engine and report latency "
            "percentiles, throughput, and the per-bit-width occupancy "
            "histogram for each precision policy; --replicas switches "
            "to a sharded replica fleet behind the chosen router"
        ),
    )
    serve.add_argument("--scenario", default="bursty",
                       choices=choices("scenarios"))
    serve.add_argument("--policy", default="all",
                       choices=("all",) + choices("policies"))
    serve.add_argument("--scale", default="smoke",
                       choices=choices("serve_scales"))
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--replicas", type=int, default=None, metavar="N",
        help="serve through a fleet of N engine replicas "
             "(default: one engine, no fleet layer)",
    )
    serve.add_argument(
        "--router", default="least_queue", choices=choices("routers"),
        help="fleet request router (with --replicas)",
    )
    serve.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the reports as JSON",
    )
    serve.add_argument(
        "--obs-dir", default=None, metavar="DIR",
        help="record span events and write the obs/ sidecar "
             "bundle under DIR (inspect with `repro obs DIR`)",
    )

    obs = sub.add_parser(
        "obs",
        help="inspect a recorded run dir: timeline, Gantt, time "
             "series, profile",
        description=(
            "read the obs/trace_events.jsonl a traced run wrote "
            "(serve-sim --obs-dir, pipeline run --obs) and render "
            "per-replica timelines, a bit-occupancy Gantt summary, "
            "queue-depth/p95 time series, and the slowest-requests "
            "table as markdown"
        ),
    )
    obs.add_argument(
        "run_dir", metavar="RUN_DIR",
        help="run directory (or trace file) to inspect",
    )
    obs.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows in the slowest-requests table (default 10)",
    )
    obs.add_argument(
        "--buckets", type=int, default=12, metavar="N",
        help="time-series buckets across the run span (default 12)",
    )
    obs.add_argument(
        "--width", type=int, default=48, metavar="N",
        help="Gantt columns across the run span (default 48)",
    )
    obs.add_argument(
        "--profile", action="store_true",
        help="render the span-derived profiler tables (per-bit "
             "self-time, queue-wait attribution, pipeline stages) "
             "instead of the timeline views",
    )
    obs.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the rendered output to PATH",
    )

    pipeline = sub.add_parser(
        "pipeline",
        help="config-driven generate -> train -> deploy -> serve flow",
        description=(
            "drive the end-to-end InstantNet pipeline from one JSON "
            "config: SP-NAS generation, switchable-precision training, "
            "per-bit dataflow deployment, and traffic-replay serving, "
            "chained through artifacts in a run directory"
        ),
    )
    pipe_sub = pipeline.add_subparsers(dest="pipeline_command", required=True)
    for name, text in (
        ("run", "execute pipeline stages end-to-end"),
        ("validate", "type-check a pipeline config and exit"),
        ("show", "print the normalised config and stage plan"),
    ):
        cmd = pipe_sub.add_parser(name, help=text, description=text)
        cmd.add_argument(
            "--config", required=True, metavar="PATH",
            help="pipeline config JSON (see examples/pipeline_smoke.json)",
        )
        if name == "run":
            cmd.add_argument(
                "--run-dir", default=None, metavar="DIR",
                help="artifact directory (default: runs/<config name>)",
            )
            cmd.add_argument(
                "--stages", default=None, metavar="S1,S2",
                help="comma-separated subset of generate,train,deploy,serve",
            )
            cmd.add_argument(
                "--seed", type=int, default=None,
                help="override the config's seed",
            )
            cmd.add_argument(
                "--obs", action="store_true",
                help="record stage spans + serve span events into the "
                     "run dir's obs/ sidecar (inspect with `repro obs`)",
            )
    return parser


def _cmd_list() -> int:
    # Experiment names come from the name table: listing must not pay the
    # cost of importing every experiment module.
    for name in choices("experiments"):
        info(name)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.experiment not in ("all",) + choices("experiments"):
        error(f"unknown experiment {args.experiment!r}; "
              f"try `python -m repro list`")
        return 2
    names = (
        choices("experiments") if args.experiment == "all"
        else (args.experiment,)
    )
    for name in names:
        result = lookup("experiments", name)(scale=args.scale, seed=args.seed)
        info(result.to_text())
        info()
    return 0


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    import json

    from .obs.tracer import NULL_TRACER

    tracer = NULL_TRACER
    if args.obs_dir:
        from .obs.tracer import Tracer

        tracer = Tracer()

    if args.replicas is not None:
        from .serve import format_fleet_reports, run_fleet_sim

        if args.replicas < 1:
            error(f"--replicas {args.replicas} must be >= 1")
            return 2
        reports = run_fleet_sim(
            scenario=args.scenario, policy=args.policy,
            scale=args.scale, seed=args.seed,
            replicas=args.replicas, router=args.router, tracer=tracer,
        )
        info(format_fleet_reports(reports))
    else:
        from .serve import format_reports, run_serve_sim

        reports = run_serve_sim(
            scenario=args.scenario, policy=args.policy,
            scale=args.scale, seed=args.seed, tracer=tracer,
        )
        info(format_reports(reports))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(
                [r.to_json_dict() for r in reports], handle,
                indent=2, sort_keys=True,
            )
            handle.write("\n")
        info(f"\nwrote {args.output}")
    if args.obs_dir:
        from .obs.artifacts import write_obs_artifacts

        paths = write_obs_artifacts(args.obs_dir, tracer)
        info(f"recorded {len(tracer)} span events -> {paths['trace']} "
             f"(inspect with `repro obs {args.obs_dir}`)")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    run_dir = args.run_dir
    try:
        if args.profile:
            from .obs.artifacts import load_run_events
            from .obs.profile import profile_events, render_profile

            rendered = render_profile(
                profile_events(load_run_events(run_dir)), top=args.top,
            ).rstrip("\n")
        else:
            from .obs.views import render_run_dir

            rendered = render_run_dir(
                run_dir, top=args.top, buckets=args.buckets,
                width=args.width,
            )
    except FileNotFoundError as exc:
        error(str(exc))
        return 2
    info(rendered)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
        info(f"\nwrote {args.output}")
    return 0


def _load_pipeline_config(path: str):
    """Parse + validate; returns (config, None) or (None, error message)."""
    from .api.config import ConfigError, PipelineConfig

    try:
        return PipelineConfig.load(path), None
    except ConfigError as exc:
        return None, str(exc)


def _cmd_pipeline(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    config, problem = _load_pipeline_config(args.config)
    if problem is not None:
        error(f"invalid pipeline config {args.config}: {problem}")
        return 2

    if args.pipeline_command == "validate":
        info(f"ok: {args.config} is a valid pipeline config "
             f"(name={config.name!r})")
        return 0

    if args.pipeline_command == "show":
        from .api.pipeline import STAGES

        info(json.dumps(config.to_dict(), indent=2, sort_keys=True))
        run_dir = config.run_dir or f"runs/{config.name}"
        info(f"\nrun_dir: {run_dir}")
        info(f"stages:  {' -> '.join(STAGES)}"
             + ("" if config.search else "  (generate: zoo pass-through)"))
        return 0

    # run
    from .api.pipeline import STAGES, PipelineError, run_pipeline

    stages = None
    if args.stages:
        stages = [s.strip() for s in args.stages.split(",") if s.strip()]
        unknown = [s for s in stages if s not in STAGES]
        if not stages or unknown:
            error(
                f"--stages {args.stages!r} names no valid stage; "
                f"available: {list(STAGES)}" if not stages else
                f"unknown stage(s) {unknown}; available: {list(STAGES)}"
            )
            return 2
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    try:
        result = run_pipeline(
            config, run_dir=args.run_dir, stages=stages,
            obs=args.obs,
        )
    except PipelineError as exc:
        error(f"pipeline failed: {exc}")
        return 1
    info(f"pipeline {config.name!r}: "
         f"{' -> '.join(result.stages_run)} in {result.seconds:.1f}s")
    for stage in result.stages_run:
        info(f"  {stage:<9} {result.artifacts[stage]}")
    train_report = result.reports.get("train")
    if train_report:
        accs = "  ".join(
            f"{entry['bits']}: {100 * entry['accuracy']:.1f}%"
            for entry in train_report["accuracies"]
        )
        info(f"  accuracy  {accs}")
    if args.obs:
        info(f"  telemetry {result.run_dir}/obs "
             f"(inspect with `repro obs {result.run_dir}`)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "serve-sim":
        return _cmd_serve_sim(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "pipeline":
        return _cmd_pipeline(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
