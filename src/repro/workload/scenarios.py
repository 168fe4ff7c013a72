"""Workload-lab scenario library: five more arrival processes.

The seed simulator shipped three scenarios (``constant`` / ``bursty`` /
``diurnal``); this module grows the gallery with the load shapes a
production fleet actually meets.  Every generator follows the registry
contract — ``fn(n, capacity_rps, rng) -> gaps`` registered under
:data:`repro.api.registry.SCENARIOS` — and anchors its rates to the
engine's highest-precision capacity, so a scenario stresses any model
the same way.  Because each is declared in :mod:`repro.api.registry`
like the built-ins, ``repro serve-sim --scenario flash_crowd``,
``ServeConfig``, the pipeline, and ``repro loadtest`` all pick them up
by name with no parser edits.

* ``flash_crowd`` — one unannounced 8x-capacity spike in the middle of
  an otherwise calm stream: the thundering-herd / breaking-news case;
* ``ramp`` — rate climbs linearly from 0.2x to 1.5x capacity: a launch
  ramp, ending past what the highest precision can sustain;
* ``sawtooth`` — repeating linear climb from 0.3x to 1.3x with an
  instant reset: periodic batch-job interference;
* ``on_off`` — a two-state Markov-style square wave (idle 0.15x /
  busy 2.5x): interactive tenants with hard duty cycles;
* ``pareto_heavy_tail`` — Poisson thinning with Pareto-distributed
  inter-arrival bursts: self-similar traffic whose variance never
  averages out (the classic heavy-tail web-trace shape).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "flash_crowd_gaps",
    "ramp_gaps",
    "sawtooth_gaps",
    "on_off_gaps",
    "pareto_heavy_tail_gaps",
]


def flash_crowd_gaps(
    n: int, capacity_rps: float, rng: np.random.Generator
) -> np.ndarray:
    """Calm 0.4x baseline with one 8x-capacity crowd in the middle.

    The middle fifth of the stream arrives at 8x the highest-precision
    capacity — far beyond anything a fixed-precision deployment can
    absorb, and exactly the event InstantNet's instantaneous
    down-switching is designed to survive.
    """
    idx = np.arange(n)
    in_crowd = (idx >= 2 * n // 5) & (idx < 3 * n // 5)
    rates = np.where(in_crowd, 8.0 * capacity_rps, 0.4 * capacity_rps)
    return rng.exponential(1.0, size=n) / rates


def ramp_gaps(
    n: int, capacity_rps: float, rng: np.random.Generator
) -> np.ndarray:
    """Linear climb from 0.2x to 1.5x capacity across the stream."""
    frac = np.arange(n) / max(n - 1, 1)
    rates = capacity_rps * (0.2 + 1.3 * frac)
    return rng.exponential(1.0, size=n) / rates


def sawtooth_gaps(
    n: int, capacity_rps: float, rng: np.random.Generator
) -> np.ndarray:
    """Four teeth per stream: climb 0.3x -> 1.3x, then instant reset."""
    teeth = 4
    period = max(n // teeth, 1)
    phase = (np.arange(n) % period) / period
    rates = capacity_rps * (0.3 + 1.0 * phase)
    return rng.exponential(1.0, size=n) / rates


def on_off_gaps(
    n: int, capacity_rps: float, rng: np.random.Generator
) -> np.ndarray:
    """Square-wave duty cycle: 32 requests idle (0.15x), 32 busy (2.5x)."""
    period = 32
    busy = (np.arange(n) // period) % 2 == 1
    rates = np.where(busy, 2.5 * capacity_rps, 0.15 * capacity_rps)
    return rng.exponential(1.0, size=n) / rates


def pareto_heavy_tail_gaps(
    n: int, capacity_rps: float, rng: np.random.Generator
) -> np.ndarray:
    """Pareto inter-arrivals (alpha=1.5): bursts at every time scale.

    Gaps are drawn from a Pareto distribution with tail index 1.5 —
    finite mean, infinite variance — and normalised so the *mean* rate
    is ~0.7x capacity.  Most gaps are tiny (dense bursts); occasionally
    one is enormous (a lull), which is what makes tail percentiles hard
    for any controller that only tracks averages.
    """
    alpha = 1.5
    mean_gap = alpha / (alpha - 1.0)     # of the (1 + Pareto) variate
    raw = 1.0 + rng.pareto(alpha, size=n)
    return raw / mean_gap / (0.7 * capacity_rps)
