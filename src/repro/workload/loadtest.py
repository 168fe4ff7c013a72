"""Grid load-test harness: sweep, price, and Pareto-rank fleet configs.

``repro loadtest --config cfg.json`` drives this module: one
:class:`~repro.api.config.LoadTestConfig` describes a grid of
``scenarios x policies x routers x replicas`` cells; every cell runs
the same deterministic fleet simulation the pipeline serve stage uses
(same fixture machinery, same routers, same autoscaler), optionally
with the config's fault plan injected, and lands in one
``loadtest_report.json``:

* per-cell p50/p95/p99, throughput, SLO violations, switching and
  autoscale activity, accuracy proxy, and **energy-per-request priced
  from the AutoMapper cost model at each batch's served bit-width** —
  the accuracy-vs-efficiency axis InstantNet optimizes, finally visible
  in a serving report;
* the **latency / accuracy / energy Pareto frontier** across the grid
  (minimise p95 and energy, maximise accuracy), because "which
  policy+router+fleet should I deploy" is exactly a multi-objective
  question;
* a rendered markdown summary table (``loadtest_report.md``).

Everything is a pure function of the config: the model is built once
under ``config.seed``, every scenario's traffic comes from keyed RNG
streams, and the report contains no wall-clock timestamps — two runs of
the same config produce byte-identical artifacts (the CI gate asserts
this).  Setting ``record_traces`` additionally saves each scenario's
arrival schedule as a replayable ``trace_<scenario>.jsonl``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from .. import rng as rng_mod
from ..api.config import LoadTestConfig, ObsConfig
from ..obs.artifacts import write_obs_artifacts
from ..obs.metrics import MetricsRecorder, MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from ..serve.cluster import build_fleet_report, make_fleet, simulate_fleet
from ..serve.simulator import get_serve_scale, prepare_simulation
from .faults import resolve_fault_plan
from .trace import Trace, record_trace

__all__ = [
    "run_loadtest",
    "pareto_frontier",
    "render_markdown",
    "write_loadtest_artifacts",
]

REPORT_NAME = "loadtest_report.json"
SUMMARY_NAME = "loadtest_report.md"


def _prepare_fixtures(config: LoadTestConfig) -> Dict[str, object]:
    """One fixture per scenario, sharing one model + latency pricing.

    The first scenario builds (and AutoMapper-prices) the model; the
    rest adopt it, so an 8-scenario grid pays for one cost-model search.
    """
    import dataclasses

    scale = get_serve_scale(config.scale)
    if config.num_requests:
        scale = dataclasses.replace(scale, num_requests=config.num_requests)
    rng_mod.set_seed(config.seed)
    fixtures: Dict[str, object] = {}
    first = None
    for scenario in config.scenarios:
        if first is None:
            first = prepare_simulation(scenario, scale)
            fixtures[scenario] = first
        else:
            fixtures[scenario] = prepare_simulation(
                scenario, scale,
                sp_net=first.sp_net, config=first.config,
                latency_model=first.latency_model,
            )
    return fixtures


def _cell_entry(report, fault_schedule_len: int) -> Dict:
    """The grid row the report stores for one simulated cell."""
    return {
        "scenario": report.scenario,
        "policy": report.policy,
        "router": report.router,
        "replicas": report.replicas,
        "max_replicas": report.max_replicas,
        "autoscaled": report.autoscaled,
        "num_requests": report.num_requests,
        "throughput_rps": report.throughput_rps,
        "latency_p50_s": report.latency_p50_s,
        "latency_p95_s": report.latency_p95_s,
        "latency_p99_s": report.latency_p99_s,
        "slo_s": report.slo_s,
        "slo_violations": report.slo_violations,
        "accuracy": report.accuracy,
        "energy_pj": report.energy_pj,
        "energy_per_request_pj": report.energy_per_request_pj,
        "occupancy": dict(report.occupancy),
        "switches": report.switches,
        "scale_events": len(report.scale_events),
        "fault_events": list(report.fault_events),
        "faults_scheduled": fault_schedule_len,
        "pareto": False,           # filled in by pareto_frontier
    }


def pareto_frontier(cells: List[Dict]) -> List[int]:
    """Indices of the latency/accuracy/energy-optimal cells.

    A cell is dominated when another cell is at least as good on all
    three axes (p95 latency down, energy-per-request down, accuracy up)
    and strictly better on one.  Cells missing an axis (no labels, no
    energy pricing) cannot be ranked and never enter the frontier.
    """
    def axes(cell) -> Optional[Tuple[float, float, float]]:
        if cell["accuracy"] is None or cell["energy_per_request_pj"] is None:
            return None
        return (
            cell["latency_p95_s"],
            cell["energy_per_request_pj"],
            -cell["accuracy"],
        )

    ranked = [(i, axes(c)) for i, c in enumerate(cells)]
    frontier = []
    for i, a in ranked:
        if a is None:
            continue
        dominated = False
        for j, b in ranked:
            if j == i or b is None:
                continue
            if all(bv <= av for bv, av in zip(b, a)) and b != a:
                dominated = True
                break
        if not dominated:
            frontier.append(i)
    return frontier


def run_loadtest(
    config: LoadTestConfig,
    obs: Optional[ObsConfig] = None,
) -> Dict:
    """Sweep the grid; returns the ``loadtest_report.json`` payload.

    ``obs`` enables the telemetry plane for the sweep: one tracer spans
    the whole grid (each cell binds its scenario/policy/router/replicas
    identity onto the shared stream) and a metrics registry folds the
    events into counters/gauges/histograms.  Telemetry is deliberately
    NOT part of :class:`LoadTestConfig` — the config is embedded in the
    report payload, and the CI gate asserts a traced run's
    ``loadtest_report.json`` is byte-identical to an untraced one, so
    enablement must never leak into the report.  The live objects ride
    in the payload under ``_telemetry`` and are stripped (written as
    ``obs/`` sidecars) by :func:`write_loadtest_artifacts`.
    """
    tracer = NULL_TRACER
    registry = None
    if obs is not None and (obs.trace or obs.metrics):
        registry = MetricsRegistry() if obs.metrics else None
        tracer = Tracer(
            sinks=(MetricsRecorder(registry),) if registry is not None else ()
        )
    fixtures = _prepare_fixtures(config)
    cells: List[Dict] = []
    traces: Dict[str, Trace] = {}
    for scenario in config.scenarios:
        fixture = fixtures[scenario]
        span_s = fixture.requests[-1].arrival_s if fixture.requests else 0.0
        if config.record_traces:
            traces[scenario] = record_trace(fixture, scenario, config.seed)
        for policy in config.policies:
            for router in config.routers:
                for replicas in config.replicas:
                    fleet = make_fleet(
                        fixture, policy,
                        replicas=replicas, router=router,
                        autoscale=config.autoscale,
                        tracer=tracer.bind(
                            scenario=scenario, policy=policy,
                            router=router, replicas=replicas,
                        ),
                    )
                    faults = (
                        resolve_fault_plan(config.faults, span_s)
                        if config.faults else None
                    )
                    end_s = simulate_fleet(fleet, fixture.requests, faults)
                    report = build_fleet_report(
                        scenario, policy, fixture.scale, fleet,
                        end_s, fixture.slo_s,
                    )
                    cells.append(
                        _cell_entry(report, len(config.faults))
                    )
    for index in pareto_frontier(cells):
        cells[index]["pareto"] = True
    payload = {
        "name": config.name,
        "seed": config.seed,
        "scale": config.scale,
        "config": config.to_dict(),
        "grid_size": len(cells),
        "grid": cells,
        "pareto": [
            {
                "scenario": c["scenario"],
                "policy": c["policy"],
                "router": c["router"],
                "replicas": c["replicas"],
                "latency_p95_s": c["latency_p95_s"],
                "accuracy": c["accuracy"],
                "energy_per_request_pj": c["energy_per_request_pj"],
            }
            for c in sorted(
                (c for c in cells if c["pareto"]),
                key=lambda c: c["latency_p95_s"],
            )
        ],
    }
    if traces:
        payload["traces"] = {
            scenario: f"trace_{scenario}.jsonl" for scenario in traces
        }
        payload["_trace_objects"] = traces   # stripped before writing
    if obs is not None and (obs.trace or obs.metrics):
        payload["_telemetry"] = {          # stripped before writing
            "tracer": tracer if obs.trace else None,
            "metrics": registry,
        }
    return payload


def _fmt(value, spec: str, scale: float = 1.0) -> str:
    if value is None:
        return "n/a"
    return format(value * scale, spec)


def render_markdown(payload: Dict) -> str:
    """The human half of the report: grid table + Pareto frontier."""
    lines = [
        f"# Loadtest `{payload['name']}` "
        f"(scale={payload['scale']}, seed={payload['seed']})",
        "",
        f"{payload['grid_size']} cells: "
        f"scenarios x policies x routers x replicas.  Energy is priced "
        f"from the AutoMapper cost model at each batch's served "
        f"bit-width; `*` marks the latency/accuracy/energy Pareto "
        f"frontier.",
        "",
        "| scenario | policy | router | replicas | p50 (ms) | p95 (ms) "
        "| p99 (ms) | thru (r/s) | slo-viol | acc | energy (uJ/req) | * |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for c in payload["grid"]:
        replicas = (
            f"{c['replicas']}->{c['max_replicas']}" if c["autoscaled"]
            else f"{c['replicas']}"
        )
        lines.append(
            f"| {c['scenario']} | {c['policy']} | {c['router']} "
            f"| {replicas} "
            f"| {_fmt(c['latency_p50_s'], '.3f', 1e3)} "
            f"| {_fmt(c['latency_p95_s'], '.3f', 1e3)} "
            f"| {_fmt(c['latency_p99_s'], '.3f', 1e3)} "
            f"| {_fmt(c['throughput_rps'], '.1f')} "
            f"| {c['slo_violations']} "
            f"| {_fmt(c['accuracy'], '.3f')} "
            f"| {_fmt(c['energy_per_request_pj'], '.3f', 1e-6)} "
            f"| {'*' if c['pareto'] else ''} |"
        )
    lines.append("")
    if payload["pareto"]:
        lines.append("## Pareto frontier (latency / accuracy / energy)")
        lines.append("")
        for p in payload["pareto"]:
            lines.append(
                f"- `{p['scenario']}` / `{p['policy']}` / `{p['router']}` "
                f"/ {p['replicas']} replica(s): "
                f"p95 {p['latency_p95_s'] * 1e3:.3f} ms, "
                f"accuracy {_fmt(p['accuracy'], '.3f')}, "
                f"{_fmt(p['energy_per_request_pj'], '.3f', 1e-6)} uJ/req"
            )
        lines.append("")
    faults = sum(len(c["fault_events"]) for c in payload["grid"])
    if faults:
        lines.append(
            f"{faults} fault event(s) injected across the grid "
            f"(outages/recoveries/latency spikes; see "
            f"`grid[*].fault_events` in the JSON report)."
        )
        lines.append("")
    return "\n".join(lines)


def write_loadtest_artifacts(payload: Dict, out_dir: str) -> Dict[str, str]:
    """Write report JSON + markdown (+ recorded traces); returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    traces = payload.pop("_trace_objects", {})
    telemetry = payload.pop("_telemetry", None)
    paths = {}
    report_path = os.path.join(out_dir, REPORT_NAME)
    with open(report_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    paths["report"] = report_path
    summary_path = os.path.join(out_dir, SUMMARY_NAME)
    with open(summary_path, "w") as handle:
        handle.write(render_markdown(payload))
    paths["summary"] = summary_path
    for scenario, trace in traces.items():
        trace_path = os.path.join(out_dir, f"trace_{scenario}.jsonl")
        trace.save(trace_path)
        paths[f"trace_{scenario}"] = trace_path
    if telemetry is not None:
        paths.update(write_obs_artifacts(
            out_dir,
            tracer=telemetry.get("tracer"),
            metrics=telemetry.get("metrics"),
        ))
    return paths
