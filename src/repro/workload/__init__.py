"""Workload lab: traces, scenarios, fault injection, grid load tests.

The evaluation layer over the serving stack.  Where :mod:`repro.serve`
answers "how does one engine/fleet behave under one arrival process",
this package makes that question *reproducible and comparative*:

* :mod:`repro.workload.trace` — a canonical request-trace format
  (record from any prepared simulation, JSONL round-trip, bit-identical
  replay) with composable registry-backed transforms;
* :mod:`repro.workload.scenarios` — the scenario library beyond the
  three seed arrival processes (flash crowds, ramps, sawtooths, on/off
  duty cycles, heavy tails), all registered under ``SCENARIOS``;
* :mod:`repro.workload.faults` — deterministic replica outages and
  latency spikes threaded into ``simulate_fleet``;
* :mod:`repro.workload.loadtest` — the ``repro loadtest`` grid harness
  sweeping policy x router x replicas x scenario with energy-aware
  Pareto reports.
"""

from .faults import FAULT_KINDS, FaultEvent, FaultSchedule, resolve_fault_plan
from .loadtest import (
    pareto_frontier,
    render_markdown,
    run_loadtest,
    write_loadtest_artifacts,
)
from .scenarios import (
    flash_crowd_gaps,
    on_off_gaps,
    pareto_heavy_tail_gaps,
    ramp_gaps,
    sawtooth_gaps,
)
from .trace import (
    Trace,
    TraceEvent,
    TraceSource,
    amplitude_modulate,
    apply_transforms,
    record_trace,
    splice,
    tenant_mix,
    time_scale,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "resolve_fault_plan",
    "pareto_frontier",
    "render_markdown",
    "run_loadtest",
    "write_loadtest_artifacts",
    "flash_crowd_gaps",
    "on_off_gaps",
    "pareto_heavy_tail_gaps",
    "ramp_gaps",
    "sawtooth_gaps",
    "Trace",
    "TraceEvent",
    "TraceSource",
    "amplitude_modulate",
    "apply_transforms",
    "record_trace",
    "splice",
    "tenant_mix",
    "time_scale",
]
