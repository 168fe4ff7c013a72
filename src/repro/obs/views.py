"""Run-dir inspection: render a recorded trace as markdown views.

``repro obs <run-dir>`` reads the ``obs/trace_events.jsonl`` sidecar a
traced run wrote and answers the timeline questions the aggregated
reports cannot:

* **per-replica timeline** — contiguous same-bit batch segments per
  replica, so "which replica flapped bits during the burst?" is one
  glance;
* **bit-occupancy Gantt** — an ASCII lane per replica across the run's
  virtual span, one glyph per time slice showing the bit-width that
  dominated it (``.`` = idle);
* **queue-depth / p95 time series** — bucketed arrivals, completions,
  peak backlog and p95 latency with sparklines, so "why did p99 spike
  at t=42s?" points at the bucket where the backlog built;
* **slowest-requests table** — the tail, decomposed into queue wait vs
  service time at the served bit-width;
* pipeline stage spans when present.

A serve-sim binds cell identity (scenario/policy, plus router/replicas
for a fleet) onto every event; views group by cell so one trace file
yields one report section per simulated cell.  Everything here is
read-only over plain event dicts — the renderer never touches the
serving stack.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from .artifacts import load_run_events
from .tracer import bits_label, cell_key

__all__ = [
    "render_run_dir",
    "render_events",
]

_SPARK = "▁▂▃▄▅▆▇█"
_GANTT_IDLE = "."
_GANTT_CHARS = "12345678abcdefghijklmnopqrstuvwxyz"


def _cell_title(key: Tuple[Tuple[str, object], ...]) -> str:
    if not key:
        return "run"
    return " / ".join(f"{k}={v}" for k, v in key)


def _fmt_ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "n/a"
    return f"{seconds * 1e3:.3f}"


def _sparkline(values: Sequence[float]) -> str:
    peak = max(values, default=0.0)
    if peak <= 0:
        return " " * len(values)
    chars = []
    for value in values:
        if value <= 0:
            chars.append(" ")
        else:
            idx = min(
                len(_SPARK) - 1,
                int(value / peak * (len(_SPARK) - 1) + 0.5),
            )
            chars.append(_SPARK[idx])
    return "".join(chars)


def _span(events: List[Dict]) -> Tuple[float, float]:
    times = [e["time_s"] for e in events]
    finishes = [e["finish_s"] for e in events if "finish_s" in e]
    if not times:
        return 0.0, 0.0
    return min(times), max(times + finishes)


# ----------------------------------------------------------------------
# Per-cell views
# ----------------------------------------------------------------------
def _timeline_section(
    batches: List[Dict], max_segments: int = 24
) -> List[str]:
    """Contiguous same-bit batch runs per replica."""
    lines = ["### Per-replica timeline", ""]
    if not batches:
        return lines + ["(no batches dispatched)", ""]
    per_replica: Dict[int, List[Dict]] = defaultdict(list)
    for event in batches:
        per_replica[int(event.get("replica", 0))].append(event)
    lines.append(
        "| replica | window (s) | bits | batches | requests | busy (ms) |"
    )
    lines.append("|---|---|---|---|---|---|")
    for replica in sorted(per_replica):
        segments: List[Dict] = []
        for event in sorted(per_replica[replica], key=lambda e: e["time_s"]):
            bits = bits_label(event.get("bits"))
            if segments and segments[-1]["bits"] == bits:
                seg = segments[-1]
                seg["end"] = event["finish_s"]
                seg["batches"] += 1
                seg["requests"] += event["size"]
                seg["busy_s"] += event["service_s"]
            else:
                segments.append({
                    "bits": bits, "start": event["time_s"],
                    "end": event["finish_s"], "batches": 1,
                    "requests": event["size"],
                    "busy_s": event["service_s"],
                })
        shown = segments[:max_segments]
        for seg in shown:
            lines.append(
                f"| {replica} | {seg['start']:.4f} – {seg['end']:.4f} "
                f"| {seg['bits']} | {seg['batches']} | {seg['requests']} "
                f"| {seg['busy_s'] * 1e3:.3f} |"
            )
        if len(segments) > max_segments:
            lines.append(
                f"| {replica} | … | … | "
                f"({len(segments) - max_segments} more segments) | … | … |"
            )
    lines.append("")
    return lines


def _gantt_section(
    batches: List[Dict], start: float, end: float, width: int = 48
) -> List[str]:
    """One ASCII lane per replica; glyph = dominant bits per time slice."""
    lines = ["### Bit-occupancy Gantt", ""]
    if not batches or end <= start:
        return lines + ["(no batches dispatched)", ""]
    labels = sorted(
        {bits_label(e.get("bits")) for e in batches},
        key=lambda s: (len(s), s),
    )
    glyph = {
        label: _GANTT_CHARS[i % len(_GANTT_CHARS)]
        for i, label in enumerate(labels)
    }
    slice_s = (end - start) / width
    per_replica: Dict[int, List[Dict]] = defaultdict(list)
    for event in batches:
        per_replica[int(event.get("replica", 0))].append(event)
    lines.append(
        "legend: " + "  ".join(f"`{glyph[l]}`={l}" for l in labels)
        + f"  `.`=idle   (one column ≈ {slice_s * 1e3:.3f} ms)"
    )
    lines.append("")
    lines.append("```")
    for replica in sorted(per_replica):
        # busy virtual time per (slice, bits); dominant bits win the glyph
        occupancy: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for event in per_replica[replica]:
            label = bits_label(event.get("bits"))
            lo = max(event["time_s"], start)
            hi = min(event["finish_s"], end)
            first = int((lo - start) / slice_s)
            last = min(int((hi - start) / slice_s), width - 1)
            for col in range(first, last + 1):
                col_lo = start + col * slice_s
                col_hi = col_lo + slice_s
                overlap = min(hi, col_hi) - max(lo, col_lo)
                if overlap > 0:
                    occupancy[col][label] += overlap
        row = []
        for col in range(width):
            if col in occupancy:
                dominant = max(
                    sorted(occupancy[col]), key=lambda l: occupancy[col][l]
                )
                row.append(glyph[dominant])
            else:
                row.append(_GANTT_IDLE)
        lines.append(f"replica {replica} |{''.join(row)}|")
    lines.append("```")
    lines.append("")
    return lines


def _series_section(
    events: List[Dict], start: float, end: float, buckets: int = 12
) -> List[str]:
    """Bucketed arrivals/completions, peak queue depth, p95 latency."""
    from ..serve.stats import percentile_s

    lines = ["### Queue depth / p95 time series", ""]
    if end <= start:
        return lines + ["(empty span)", ""]
    step = (end - start) / buckets

    def bucket_of(t: float) -> int:
        return min(int((t - start) / step), buckets - 1)

    arrivals = [0] * buckets
    completions = [0] * buckets
    peak_depth = [0] * buckets
    latencies: List[List[float]] = [[] for _ in range(buckets)]
    depth = 0
    # Emit order, not time order: a batch dispatched at an arrival
    # instant was emitted after that arrival's enqueue, and sorting by
    # (time, kind) would drain it first.
    for event in events:
        kind = event["kind"]
        if kind == "enqueue":
            depth += 1
            b = bucket_of(event["time_s"])
            arrivals[b] += 1
            peak_depth[b] = max(peak_depth[b], depth)
        elif kind == "batch":
            depth = max(depth - int(event["size"]), 0)
        elif kind == "complete":
            b = bucket_of(event["time_s"])
            completions[b] += 1
            latencies[b].append(event["latency_s"])
    p95 = [
        percentile_s(series, 95) if series else None for series in latencies
    ]
    lines.append(
        "| t (s) | arrivals | completed | peak queue | p95 (ms) |"
    )
    lines.append("|---|---|---|---|---|")
    for b in range(buckets):
        lines.append(
            f"| {start + b * step:.4f} | {arrivals[b]} | {completions[b]} "
            f"| {peak_depth[b]} | {_fmt_ms(p95[b])} |"
        )
    lines.append("")
    lines.append(f"queue depth: `{_sparkline(peak_depth)}`")
    lines.append(
        "p95 latency: `"
        + _sparkline([v if v is not None else 0.0 for v in p95])
        + "`"
    )
    lines.append("")
    return lines


def _slowest_section(completes: List[Dict], top: int = 10) -> List[str]:
    """The latency tail, decomposed into queue wait vs service time."""
    lines = [f"### Slowest requests (top {top})", ""]
    if not completes:
        return lines + ["(no completed requests)", ""]
    ranked = sorted(
        completes, key=lambda e: (-e["latency_s"], e.get("request_id", 0))
    )[:top]
    lines.append(
        "| request | replica | bits | arrival (s) | wait (ms) "
        "| service (ms) | latency (ms) |"
    )
    lines.append("|---|---|---|---|---|---|---|")
    for event in ranked:
        wait_s = event["start_s"] - event["arrival_s"]
        service_s = event["finish_s"] - event["start_s"]
        lines.append(
            f"| {event.get('request_id', '?')} "
            f"| {event.get('replica', 0)} "
            f"| {bits_label(event.get('bits'))} "
            f"| {event['arrival_s']:.4f} "
            f"| {_fmt_ms(wait_s)} | {_fmt_ms(service_s)} "
            f"| {_fmt_ms(event['latency_s'])} |"
        )
    lines.append("")
    return lines


def _stage_section(stages: List[Dict]) -> List[str]:
    lines = ["## Pipeline stages", ""]
    lines.append("| stage | wall (s) |")
    lines.append("|---|---|")
    for event in stages:
        lines.append(f"| {event['stage']} | {event.get('seconds', 0.0):.3f} |")
    lines.append("")
    return lines


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def render_events(
    events: List[Dict],
    title: str = "run",
    top: int = 10,
    buckets: int = 12,
    width: int = 48,
) -> str:
    """Markdown report over an in-memory event list."""
    lines = [f"# Observability report: {title}", ""]
    if not events:
        return "\n".join(lines + ["(no events recorded)", ""])
    counts: Dict[str, int] = defaultdict(int)
    for event in events:
        counts[event["kind"]] += 1
    lines.append(
        f"{len(events)} events: "
        + ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
    )
    # Stage events sit on the wall clock; the virtual span covers only
    # the simulation-clock events, as each cell's span does.
    stages = [e for e in events if e["kind"] == "stage"]
    simulated = [e for e in events if e["kind"] != "stage"]
    start, end = _span(simulated)
    lines.append(
        f"virtual span: {start:.4f}s – {end:.4f}s"
    )
    lines.append("")

    if stages:
        lines.extend(_stage_section(stages))

    cells: Dict[Tuple, List[Dict]] = defaultdict(list)
    for event in simulated:
        cells[cell_key(event)].append(event)
    for key in sorted(cells, key=lambda k: tuple(str(i) for i in k)):
        cell_events = cells[key]
        batches = [e for e in cell_events if e["kind"] == "batch"]
        completes = [e for e in cell_events if e["kind"] == "complete"]
        c_start, c_end = _span(cell_events)
        lines.append(f"## Cell: {_cell_title(key)}")
        lines.append("")
        switches = sum(1 for e in cell_events if e["kind"] == "bit_switch")
        lines.append(
            f"{len(completes)} requests over {len(batches)} batches, "
            f"{switches} bit switches, span "
            f"{c_start:.4f}s – {c_end:.4f}s"
        )
        lines.append("")
        lines.extend(_timeline_section(batches))
        lines.extend(_gantt_section(batches, c_start, c_end, width=width))
        lines.extend(_series_section(cell_events, c_start, c_end,
                                     buckets=buckets))
        lines.extend(_slowest_section(completes, top=top))
    return "\n".join(lines)


def render_run_dir(
    path: str, top: int = 10, buckets: int = 12, width: int = 48
) -> str:
    """Markdown report for a recorded run directory."""
    return render_events(
        load_run_events(path), title=path, top=top, buckets=buckets,
        width=width,
    )
