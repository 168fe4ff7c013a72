"""Telemetry sidecar layout inside a run directory.

Telemetry never lands in the deterministic report files — the CI gate
asserts a traced serve-sim report is byte-identical to an untraced
one.  Instead every producer (``repro serve-sim --obs-dir``,
``repro pipeline run --obs``) writes the same sidecar bundle under
``<run_dir>/obs/``:

========================  =============================================
``trace_events.jsonl``    span/event log (one JSON object per line)
========================  =============================================

``repro obs <run_dir>`` consumes this layout (:mod:`repro.obs.views`,
and :mod:`repro.obs.profile` with ``--profile``).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from .tracer import Tracer, load_events_jsonl

__all__ = [
    "OBS_DIRNAME",
    "TRACE_FILENAME",
    "write_obs_artifacts",
    "find_trace_file",
    "load_run_events",
]

OBS_DIRNAME = "obs"
TRACE_FILENAME = "trace_events.jsonl"


def write_obs_artifacts(run_dir: str, tracer: Tracer) -> Dict[str, str]:
    """Write the sidecar bundle under ``run_dir/obs/``; returns paths."""
    obs_dir = os.path.join(run_dir, OBS_DIRNAME)
    os.makedirs(obs_dir, exist_ok=True)
    return {
        "trace": tracer.save_jsonl(os.path.join(obs_dir, TRACE_FILENAME)),
    }


def find_trace_file(path: str) -> Optional[str]:
    """Locate the trace log for ``path`` (run dir, obs dir, or file)."""
    if os.path.isfile(path):
        return path
    for candidate in (
        os.path.join(path, OBS_DIRNAME, TRACE_FILENAME),
        os.path.join(path, TRACE_FILENAME),
    ):
        if os.path.isfile(candidate):
            return candidate
    return None


def load_run_events(path: str) -> List[Dict]:
    """Events from a run dir; raises FileNotFoundError with guidance."""
    trace_path = find_trace_file(path)
    if trace_path is None:
        raise FileNotFoundError(
            f"no {TRACE_FILENAME} under {path!r} — record one with "
            f"`repro serve-sim --obs-dir` or `repro pipeline run --obs`"
        )
    return load_events_jsonl(trace_path)
