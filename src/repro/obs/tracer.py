"""Per-request span/event tracing on the simulation clock.

The serving plane's only window used to be the end-of-run report — one
aggregated scalar block per (scenario, policy) cell.  The tracer turns a
run into a *timeline*: every request's lifecycle
(``enqueue -> bit_switch -> batch -> complete``) plus the pipeline
``stage`` spans around it is recorded as one event on the virtual
clock, so "why did p99 spike at t=42s?" and "which replica flapped bits
during the burst?" become greppable questions instead of folklore.

Design constraints, in order:

1. **Tracing must never change a result.**  Every event carries only
   values the simulation already computed; emitting is strictly
   observational.  ``tests/test_obs.py`` pins report byte-identity
   between traced and untraced runs.
2. **Disabled tracing must cost nothing.**  The default tracer is the
   shared :data:`NULL_TRACER` whose ``enabled`` is ``False``;
   instrumentation sites guard with ``if tracer.enabled:`` so the
   disabled path allocates no event dicts, no kwargs, nothing — the
   deterministic reports and the hot-loop wall-clock stay exactly as
   they were before the telemetry plane existed.
3. **Events are plain JSON.**  An event is a dict with ``kind`` and
   ``time_s`` plus kind-specific fields; :meth:`Tracer.save_jsonl`
   writes one object per line (sorted keys, no timestamps), so a trace
   file from a deterministic run is itself byte-identical across runs.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

__all__ = [
    "EVENT_KINDS",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "BoundTracer",
    "CELL_KEYS",
    "bits_label",
    "cell_key",
    "load_events_jsonl",
]

# The event vocabulary.  Request lifecycle first, pipeline stages after.
EVENT_KINDS = (
    "enqueue",          # request landed in a replica's FIFO
    "bit_switch",       # the chosen bits differ from the replica's current
    "batch",            # the dispatched micro-batch span (start..finish)
    "complete",         # one request finished (latency decomposition)
    "stage",            # pipeline stage span (wall clock, not sim clock)
)

# Labels a serve-sim binds onto events; together they name one cell.
CELL_KEYS = ("scenario", "policy", "router", "replicas")


def bits_label(bits) -> str:
    """Canonical string form of a bit-width for labels and rendering.

    Accepts the in-memory tuple form ``(w, a)``, the JSON list form it
    round-trips through, or a plain int.
    """
    if isinstance(bits, (tuple, list)):
        return f"W{bits[0]}A{bits[1]}"
    return str(bits)


def cell_key(event: Dict) -> Tuple[Tuple[str, object], ...]:
    """The (label, value) pairs naming the simulated cell of ``event``."""
    return tuple((k, event[k]) for k in CELL_KEYS if k in event)


class NullTracer:
    """The zero-cost disabled tracer.

    ``enabled`` is ``False`` and every method is a no-op returning a
    trivial value, so instrumentation can hold a ``NullTracer`` and
    guard each emit site with one attribute read.  :meth:`bind` returns
    ``self`` — binding labels onto nothing is still nothing — which
    lets call sites bind unconditionally without branching.
    """

    __slots__ = ()
    enabled = False

    def emit(self, kind: str, time_s: float, **fields) -> None:
        return None

    def bind(self, **fields) -> "NullTracer":
        return self

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_TRACER = NullTracer()


class Tracer:
    """Collects events in order.

    One tracer spans one run (a serve-sim or a pipeline execution); the
    run's (scenario, policy) cells share it through :meth:`bind`, which
    stamps cell identity onto every event without the instrumented
    component knowing it is one cell of several.
    """

    __slots__ = ("events",)
    enabled = True

    def __init__(self):
        self.events: List[Dict] = []

    def emit(self, kind: str, time_s: float, **fields) -> Dict:
        """Record one event; returns the stored dict."""
        event = {"kind": kind, "time_s": float(time_s)}
        event.update(fields)
        self.events.append(event)
        return event

    def bind(self, **fields) -> "BoundTracer":
        """A view of this tracer that stamps ``fields`` on every event."""
        return BoundTracer(self, fields)

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per line, keys sorted — deterministic bytes."""
        return "".join(
            json.dumps(event, sort_keys=True) + "\n" for event in self.events
        )

    def save_jsonl(self, path: str) -> str:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())
        return path


class BoundTracer:
    """A label-stamping view over a live :class:`Tracer`.

    Binding is how simulated cells (``scenario``/``policy``/``router``/
    ``replicas``) tag their events while sharing one event stream.
    Bind again to add more labels; explicit fields at the emit site win
    over bound ones.
    """

    __slots__ = ("base", "fields")
    enabled = True

    def __init__(self, base: Tracer, fields: Dict):
        self.base = base
        self.fields = dict(fields)

    def emit(self, kind: str, time_s: float, **fields) -> Dict:
        merged = dict(self.fields)
        merged.update(fields)
        return self.base.emit(kind, time_s, **merged)

    def bind(self, **fields) -> "BoundTracer":
        merged = dict(self.fields)
        merged.update(fields)
        return BoundTracer(self.base, merged)


def load_events_jsonl(path: str) -> List[Dict]:
    """Read a ``trace_events.jsonl`` file back into event dicts."""
    events: List[Dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
