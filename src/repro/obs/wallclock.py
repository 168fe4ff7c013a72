"""The one sanctioned wall-clock seam for deterministic planes.

Stage banners, ``seconds=...`` report fields, and run-dir metadata all
want real elapsed time — but the modules that write them (pipeline,
trainer, experiments) are otherwise deterministic, and the
determinism invariant (``tests/test_invariants.py``) bans direct
``time.time`` references there so a wall clock can never leak into
*computed results*.  Those
modules call :func:`wall_clock_s` instead: a single, greppable,
monkeypatchable point where wall time enters.

The strict virtual-clock plane (``repro.serve``) may not use even this
seam — it takes the time as a parameter (see
``InferenceEngine.dispatch(now)``).
"""

from __future__ import annotations

import time

__all__ = ["wall_clock_s"]


def wall_clock_s() -> float:
    """Wall time in seconds (``time.time``), for telemetry only.

    Never feed this into anything that lands in a deterministic report
    body — durations derived from it belong in ``seconds``-style
    fields that tests explicitly ignore.
    """
    return time.time()
