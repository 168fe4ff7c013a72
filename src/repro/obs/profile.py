"""A span-derived profiler: where did the time actually go?

The trace already holds every duration a profiler needs — batch spans
(``start_s..finish_s`` at a bit-width), request completions (arrival,
start, finish), pipeline stage spans — so profiling is a fold, not an
instrument: no sampling, no sys.setprofile, no dependencies, and the
tables are as deterministic as the run that produced them.

Three attribution tables per cell:

* **per-bit self-time** — busy seconds, batches, and requests served at
  each bit-width, from ``batch`` spans.  This is the InstantNet
  question in profiler form: how much of the fleet's time bought W4A8
  throughput vs W8A8 accuracy?
* **queue-wait attribution** — for each bit-width (and in the fleet,
  each replica): time requests spent *waiting* vs *in service*, from
  ``complete`` events (``wait = start - arrival``).  A policy that
  looks fast in p50 but queues everything at low bits shows up here.
* **pipeline stages** — wall-clock self-time per stage from ``stage``
  spans, for the generate/train/deploy pipeline.

``repro obs RUN_DIR --profile`` renders these as markdown tables next
to the existing views.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .tracer import bits_label, cell_key

__all__ = [
    "profile_events",
    "render_profile",
]


def _per_bit_table(events: List[Dict]) -> List[Dict]:
    """Self-time per bit-width from batch spans."""
    rows: Dict[str, Dict] = {}
    for e in events:
        if e["kind"] != "batch":
            continue
        label = bits_label(e["bits"])
        row = rows.setdefault(label, {
            "bits": label, "busy_s": 0.0, "batches": 0, "requests": 0,
            "energy_pj": 0.0,
        })
        row["busy_s"] += e["finish_s"] - e["start_s"]
        row["batches"] += 1
        row["requests"] += int(e["size"])
        if e.get("energy_pj") is not None:
            row["energy_pj"] += e["energy_pj"]
    total = sum(r["busy_s"] for r in rows.values())
    out = []
    for label in sorted(rows):
        row = rows[label]
        row["busy_s"] = round(row["busy_s"], 6)
        row["energy_pj"] = round(row["energy_pj"], 3)
        row["share"] = round(row["busy_s"] / total, 4) if total else 0.0
        out.append(row)
    return out


def _queue_wait_table(events: List[Dict], group: str) -> List[Dict]:
    """Wait-vs-service attribution from complete events.

    ``group`` is the attribution axis: ``"bits"`` (which rung of the
    ladder queued) or ``"replica"`` (which engine queued).
    """
    rows: Dict[str, Dict] = {}
    for e in events:
        if e["kind"] != "complete" or "arrival_s" not in e:
            continue
        if group == "bits":
            key = bits_label(e["bits"]) if "bits" in e else "?"
        else:
            key = str(e.get("replica", 0))
        row = rows.setdefault(key, {
            group: key, "requests": 0, "wait_s": 0.0, "service_s": 0.0,
        })
        row["requests"] += 1
        row["wait_s"] += max(e["start_s"] - e["arrival_s"], 0.0)
        row["service_s"] += max(e["finish_s"] - e["start_s"], 0.0)
    out = []
    for key in sorted(rows):
        row = rows[key]
        spent = row["wait_s"] + row["service_s"]
        row["wait_s"] = round(row["wait_s"], 6)
        row["service_s"] = round(row["service_s"], 6)
        row["wait_share"] = (
            round(row["wait_s"] / spent, 4) if spent else 0.0
        )
        out.append(row)
    return out


def _stage_table(events: List[Dict]) -> List[Dict]:
    """Wall-clock self-time per pipeline stage, in execution order."""
    rows: List[Dict] = []
    for e in events:
        if e["kind"] == "stage":
            rows.append({
                "stage": e["stage"],
                "start_s": e["time_s"],
                "seconds": e.get("seconds", 0.0),
            })
    return rows


def profile_events(events: List[Dict]) -> Dict:
    """Fold a trace into the profiler payload, grouped per cell."""
    by_cell: Dict[Tuple, List[Dict]] = {}
    stages: List[Dict] = []
    for event in events:
        if event["kind"] == "stage":
            stages.append(event)
        else:
            by_cell.setdefault(cell_key(event), []).append(event)
    cells = []
    for key in sorted(by_cell, key=lambda k: tuple(str(i) for i in k)):
        cell_events = by_cell[key]
        cells.append({
            "cell": dict(key),
            "per_bit": _per_bit_table(cell_events),
            "queue_wait_by_bits": _queue_wait_table(cell_events, "bits"),
            "queue_wait_by_replica": _queue_wait_table(
                cell_events, "replica"
            ),
        })
    return {"cells": cells, "stages": _stage_table(stages)}


def _markdown_table(rows: List[Dict], columns: List[str]) -> List[str]:
    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(str(row.get(c, "")) for c in columns) + " |"
        )
    return lines


def render_profile(payload: Dict, top: Optional[int] = None) -> str:
    """Markdown rendering of the profiler tables."""
    lines = ["# Span profile", ""]
    for cell in payload["cells"]:
        title = " / ".join(
            f"{k}={v}" for k, v in cell["cell"].items()
        ) or "run"
        lines += [f"## {title}", ""]
        if cell["per_bit"]:
            lines.append("### Self-time by bit-width")
            lines += _markdown_table(
                cell["per_bit"][:top],
                ["bits", "busy_s", "share", "batches", "requests",
                 "energy_pj"],
            )
            lines.append("")
        if cell["queue_wait_by_bits"]:
            lines.append("### Queue wait by bit-width")
            lines += _markdown_table(
                cell["queue_wait_by_bits"][:top],
                ["bits", "requests", "wait_s", "service_s", "wait_share"],
            )
            lines.append("")
        if cell["queue_wait_by_replica"]:
            lines.append("### Queue wait by replica")
            lines += _markdown_table(
                cell["queue_wait_by_replica"][:top],
                ["replica", "requests", "wait_s", "service_s",
                 "wait_share"],
            )
            lines.append("")
    if payload["stages"]:
        lines.append("## Pipeline stages")
        lines += _markdown_table(
            payload["stages"], ["stage", "start_s", "seconds"]
        )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
