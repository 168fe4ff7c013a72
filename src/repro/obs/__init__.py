"""Telemetry plane: tracing and the views that render a run.

Stdlib-only by design — ``repro.obs`` is imported by the CLI front-end
before any heavy dependency loads, and the parser-build import test
pins that property.  The package splits into:

* :mod:`~repro.obs.tracer` — per-request span/event tracing on the
  simulation clock, with a zero-cost :data:`NULL_TRACER` disabled path;
* :mod:`~repro.obs.artifacts` — the ``<run_dir>/obs/`` sidecar bundle;
* :mod:`~repro.obs.views` — ``repro obs`` markdown rendering;
* :mod:`~repro.obs.profile` — span-derived per-bit / queue-wait /
  stage profiling tables (``repro obs --profile``);
* :mod:`~repro.obs.console` — the single CLI output seam.
"""

from .artifacts import (
    OBS_DIRNAME,
    TRACE_FILENAME,
    find_trace_file,
    load_run_events,
    write_obs_artifacts,
)
from .profile import profile_events, render_profile
from .tracer import (
    EVENT_KINDS,
    NULL_TRACER,
    BoundTracer,
    NullTracer,
    Tracer,
    bits_label,
    load_events_jsonl,
)
from .views import render_events, render_run_dir

__all__ = [
    "EVENT_KINDS",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "BoundTracer",
    "bits_label",
    "load_events_jsonl",
    "OBS_DIRNAME",
    "TRACE_FILENAME",
    "write_obs_artifacts",
    "find_trace_file",
    "load_run_events",
    "render_events",
    "render_run_dir",
    "profile_events",
    "render_profile",
]
