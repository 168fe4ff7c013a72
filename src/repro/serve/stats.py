"""Shared latency-statistics helpers for the serving layer.

Before this module existed, the engine, the fleet, and both report
builders each carried a private ``np.percentile`` wrapper with its own
(and in one case missing) empty-input guard.  Every percentile a
serving report prints now flows through :func:`percentile_s` /
:func:`optional_percentile_s`, so the empty-stream convention is stated
exactly once:

* :func:`percentile_s` — report-level statistics: an empty input is a
  *result* ("no requests completed") and comes back as ``nan`` so it
  still formats and serialises;
* :func:`optional_percentile_s` — control-loop signals (SLO
  feedback): an empty window is the *absence* of a signal and comes
  back as ``None`` so callers branch instead of comparing against nan
  (a comparison that is always False and silently disables the signal).

:class:`LatencySummary` bundles the p50/p95/p99/mean/max block every
report repeats, and :func:`merge_engine_stats` is the one aggregation
of per-replica engine stats behind every serving report: the
single-engine report (one replica) and the simulated fleet, which also
lists :func:`replica_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..obs.tracer import bits_label

__all__ = [
    "percentile_s",
    "optional_percentile_s",
    "LatencySummary",
    "merge_engine_stats",
    "replica_rows",
]


def percentile_s(values, q: float) -> float:
    """``np.percentile`` with an explicit empty guard -> ``nan``."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, q))


def optional_percentile_s(values, q: float) -> Optional[float]:
    """``np.percentile`` with an explicit empty guard -> ``None``.

    For sliding-window feedback signals, where "no data yet" must be
    distinguishable from any real latency value.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return None
    return float(np.percentile(arr, q))


@dataclass(frozen=True)
class LatencySummary:
    """The p50/p95/p99/mean/max block shared by every serving report."""

    p50_s: float
    p95_s: float
    p99_s: float
    mean_s: float
    max_s: float
    count: int

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "LatencySummary":
        arr = np.asarray(list(values), dtype=np.float64)
        if arr.size == 0:
            nan = float("nan")
            return cls(
                p50_s=nan, p95_s=nan, p99_s=nan, mean_s=nan, max_s=nan,
                count=0,
            )
        return cls(
            p50_s=float(np.percentile(arr, 50)),
            p95_s=float(np.percentile(arr, 95)),
            p99_s=float(np.percentile(arr, 99)),
            mean_s=float(arr.mean()),
            max_s=float(arr.max()),
            count=int(arr.size),
        )


def merge_engine_stats(stats: Sequence, end_s: float, slo_s: float) -> Dict:
    """Report fields shared by every serving report, over replica stats.

    ``stats`` holds one :class:`~repro.serve.engine.EngineStats` per
    replica (a single engine is a one-replica sequence); ``end_s`` is
    the virtual completion time of the run.  The returned dict holds
    keyword arguments for a report dataclass.
    """
    bit_widths = stats[0].bit_widths
    latencies = np.asarray([lat for s in stats for lat in s.latencies_s])
    summary = LatencySummary.from_values(latencies)
    completed = sum(s.completed for s in stats)
    batches = sum(s.batches for s in stats)
    labelled = sum(s.labelled for s in stats)
    energy_pj = float(sum(s.energy_pj for s in stats))
    energy_priced = sum(s.energy_priced for s in stats)
    duration = max(end_s, 1e-12)
    return dict(
        num_requests=completed,
        duration_s=float(end_s),
        throughput_rps=completed / duration,
        latency_p50_s=summary.p50_s,
        latency_p95_s=summary.p95_s,
        latency_p99_s=summary.p99_s,
        latency_mean_s=summary.mean_s,
        latency_max_s=summary.max_s,
        slo_s=slo_s,
        slo_violations=int((latencies > slo_s).sum()),
        occupancy={
            bits_label(b): sum(s.requests_per_bit[b] for s in stats)
            for b in bit_widths
        },
        batches=batches,
        mean_batch_size=(completed / batches) if batches else 0.0,
        switches=sum(s.switches for s in stats),
        accuracy=(
            sum(s.correct for s in stats) / labelled if labelled else None
        ),
        energy_pj=energy_pj,
        energy_per_request_pj=(
            energy_pj / energy_priced if energy_priced else None
        ),
    )


def replica_rows(stats: Sequence, end_s: float) -> List[Dict]:
    """One ``per_replica`` report row per replica's engine stats."""
    duration = max(end_s, 1e-12)
    rows = []
    for idx, s in enumerate(stats):
        busy_s = float(sum(s.busy_s_per_bit.values()))
        rows.append({
            "replica": idx,
            "requests": s.completed,
            "batches": s.batches,
            "mean_batch_size": s.mean_batch_size(),
            "switches": s.switches,
            "busy_s": busy_s,
            "utilization": busy_s / duration,
            "occupancy": {
                bits_label(b): s.requests_per_bit[b] for b in s.bit_widths
            },
        })
    return rows
