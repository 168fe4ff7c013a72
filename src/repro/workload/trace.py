"""Canonical request-trace format: record, transform, replay.

A :class:`Trace` is the workload lab's unit of reproducibility: the
complete arrival schedule of one serving simulation, decoupled from the
model and fleet that served it.  Because every image in this repo is
procedurally generated, a trace does not store pixels — it stores the
*recipe* (:class:`TraceSource`: synthetic spec + split key + size +
seed) plus per-request events referencing a source index, so a saved
trace is a few KB yet replays **bit-identically**: materialising it
regenerates the exact arrays the original run served.

Round-trip: ``Trace.save(path)`` writes JSONL (one header line, one
compact line per event); ``Trace.load(path)`` restores an equal trace.
JSON floats round-trip exactly (shortest-repr), so arrival times
survive to the last ULP and a replayed simulation reproduces the
original report byte-for-byte.

Transforms are **composable and registry-backed**: each is a pure
``fn(trace, **kwargs) -> Trace`` registered under
:data:`repro.api.registry.TRACE_TRANSFORMS`, and records its lineage in
``meta["lineage"]`` so a derived trace documents how it was made.

* ``time_scale`` — compress/stretch the schedule (rate *= 1/factor);
* ``splice`` — cut one trace at a time point and graft another on;
* ``tenant_mix`` — interleave traces as tenants of one shared fleet;
* ``amplitude_modulate`` — sinusoidally modulate inter-arrival gaps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import rng as rng_mod
from ..api.registry import TRACE_TRANSFORMS
from ..data.synthetic import SyntheticSpec, make_synthetic
from ..serve.engine import InferenceRequest

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceSource",
    "TraceEvent",
    "Trace",
    "record_trace",
    "time_scale",
    "splice",
    "tenant_mix",
    "amplitude_modulate",
    "apply_transforms",
]

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


@dataclass(frozen=True)
class TraceSource:
    """Recipe for regenerating one tenant's request payloads.

    ``seed`` is the global RNG seed the dataset was generated under;
    ``size`` is the full dataset length (instance noise is drawn
    sequentially, so index ``i`` is only reproducible by regenerating
    ``0..size-1``).
    """

    name: str
    num_classes: int
    image_size: int
    difficulty: float
    split: str
    size: int
    seed: int

    def spec(self) -> SyntheticSpec:
        return SyntheticSpec(
            name=self.name,
            num_classes=self.num_classes,
            image_size=self.image_size,
            difficulty=self.difficulty,
        )

    def to_json_dict(self) -> Dict:
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "TraceSource":
        return cls(**payload)


@dataclass(frozen=True)
class TraceEvent:
    """One recorded arrival: when, which payload, which tenant."""

    request_id: int
    arrival_s: float
    label: Optional[int]
    source: int                # index into Trace.sources (the tenant)
    data_index: int            # index into that source's dataset


@dataclass(frozen=True)
class Trace:
    """An ordered arrival schedule plus the recipes to rebuild payloads."""

    name: str
    sources: Tuple[TraceSource, ...]
    events: Tuple[TraceEvent, ...]
    meta: Dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def duration_s(self) -> float:
        return self.events[-1].arrival_s if self.events else 0.0

    def _check(self) -> None:
        for event in self.events:
            if not 0 <= event.source < len(self.sources):
                raise ValueError(
                    f"event {event.request_id} references source "
                    f"{event.source}, but the trace has "
                    f"{len(self.sources)} source(s)"
                )
            if not 0 <= event.data_index < self.sources[event.source].size:
                raise ValueError(
                    f"event {event.request_id} references data index "
                    f"{event.data_index} outside source size "
                    f"{self.sources[event.source].size}"
                )

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def materialize(self) -> List[InferenceRequest]:
        """Regenerate the request stream, payloads included, bit-exactly.

        Each source's dataset is rebuilt under its recorded seed; the
        caller's global RNG state (seed and stream position) is
        restored afterwards, so materialising a trace does not perturb
        surrounding randomness.
        """
        self._check()
        restore_state = rng_mod.get_state()
        datasets = []
        try:
            for source in self.sources:
                rng_mod.set_seed(source.seed)
                datasets.append(
                    make_synthetic(source.spec(), source.size, source.split)
                )
        finally:
            rng_mod.set_state(restore_state)
        return [
            InferenceRequest(
                request_id=event.request_id,
                arrival_s=event.arrival_s,
                image=datasets[event.source].images[event.data_index],
                label=event.label,
            )
            for event in self.events
        ]

    # ------------------------------------------------------------------
    # JSONL round-trip
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        header = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "name": self.name,
            "meta": self.meta,
            "sources": [s.to_json_dict() for s in self.sources],
            "num_events": len(self.events),
        }
        lines = [json.dumps(header, sort_keys=True)]
        for e in self.events:
            lines.append(json.dumps(
                [e.request_id, e.arrival_s, e.label, e.source, e.data_index]
            ))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty trace file")
        header = json.loads(lines[0])
        if header.get("format") != TRACE_FORMAT:
            raise ValueError(
                f"not a {TRACE_FORMAT} file (format="
                f"{header.get('format')!r})"
            )
        if header.get("version") != TRACE_VERSION:
            raise ValueError(
                f"unsupported trace version {header.get('version')!r}; "
                f"this build reads version {TRACE_VERSION}"
            )
        events = []
        for line in lines[1:]:
            request_id, arrival_s, label, source, data_index = json.loads(line)
            events.append(TraceEvent(
                request_id=int(request_id),
                arrival_s=float(arrival_s),
                label=None if label is None else int(label),
                source=int(source),
                data_index=int(data_index),
            ))
        if len(events) != header.get("num_events"):
            raise ValueError(
                f"trace truncated: header promises "
                f"{header.get('num_events')} events, file has {len(events)}"
            )
        trace = cls(
            name=header["name"],
            sources=tuple(
                TraceSource.from_json_dict(s) for s in header["sources"]
            ),
            events=tuple(events),
            meta=dict(header.get("meta", {})),
        )
        trace._check()
        return trace

    def save(self, path: str) -> str:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())
        return path

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path) as handle:
            return cls.from_jsonl(handle.read())

    # ------------------------------------------------------------------
    # Lineage helper for transforms
    # ------------------------------------------------------------------
    def derive(self, name: str, events, sources=None, step=None) -> "Trace":
        meta = dict(self.meta)
        if step is not None:
            meta["lineage"] = list(self.meta.get("lineage", ())) + [step]
        return Trace(
            name=name,
            sources=tuple(sources if sources is not None else self.sources),
            events=tuple(events),
            meta=meta,
        )


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def record_trace(
    fixture,
    scenario: str,
    seed: int,
    name: Optional[str] = None,
) -> Trace:
    """Capture the arrival schedule of a prepared simulation fixture.

    The fixture's request payloads came from
    :func:`~repro.serve.simulator.generate_requests`, whose dataset
    recipe is a pure function of ``(seed, scenario, scale)`` — exactly
    what :class:`TraceSource` stores, so the recording is lossless.
    """
    scale = fixture.scale
    source = TraceSource(
        name="serve",
        num_classes=scale.num_classes,
        image_size=scale.image_size,
        difficulty=scale.difficulty,
        split=f"traffic-{scenario}",
        size=scale.num_requests,
        seed=int(seed),
    )
    events = tuple(
        TraceEvent(
            request_id=r.request_id,
            arrival_s=r.arrival_s,
            label=r.label,
            source=0,
            data_index=r.request_id,
        )
        for r in fixture.requests
    )
    return Trace(
        name=name or f"{scenario}-{scale.name}",
        sources=(source,),
        events=events,
        meta={
            "scenario": scenario,
            "scale": scale.name,
            "seed": int(seed),
            "slo_s": fixture.slo_s,
        },
    )


# ----------------------------------------------------------------------
# Transforms (registry-backed, composable)
# ----------------------------------------------------------------------
def _renumber(events: Sequence[TraceEvent]) -> List[TraceEvent]:
    """Sort by arrival and reassign contiguous request ids."""
    ordered = sorted(events, key=lambda e: (e.arrival_s, e.request_id))
    return [
        dc_replace(e, request_id=i) for i, e in enumerate(ordered)
    ]


def time_scale(trace: Trace, factor: float) -> Trace:
    """Stretch (``factor > 1``) or compress (``< 1``) the schedule.

    Compressing by 2x doubles the offered rate without touching the
    arrival *pattern* — the cheapest way to re-run a recorded workload
    "but heavier".
    """
    if factor <= 0:
        raise ValueError(f"time_scale factor must be > 0, got {factor!r}")
    events = [
        dc_replace(e, arrival_s=e.arrival_s * factor) for e in trace.events
    ]
    return trace.derive(
        f"{trace.name}*t{factor:g}", events,
        step={"transform": "time_scale", "factor": factor},
    )


def splice(trace: Trace, other: Trace, at_s: float) -> Trace:
    """Cut ``trace`` at ``at_s`` and graft ``other`` on after it.

    Events of ``trace`` strictly before ``at_s`` are kept; every event
    of ``other`` is shifted by ``at_s``.  Sources are concatenated, so
    the graft may come from a completely different scenario or scale.
    """
    if at_s < 0:
        raise ValueError(f"splice point must be >= 0, got {at_s!r}")
    offset = len(trace.sources)
    kept = [e for e in trace.events if e.arrival_s < at_s]
    grafted = [
        dc_replace(e, arrival_s=e.arrival_s + at_s, source=e.source + offset)
        for e in other.events
    ]
    return trace.derive(
        f"{trace.name}+{other.name}@{at_s:g}",
        _renumber(kept + grafted),
        sources=trace.sources + other.sources,
        step={"transform": "splice", "other": other.name, "at_s": at_s},
    )


def tenant_mix(trace: Trace, *others: Trace) -> Trace:
    """Interleave traces as tenants sharing one fleet.

    Arrival times are kept as-is and the merged stream is re-sorted, so
    each tenant's load shape survives; the event's ``source`` index
    identifies its tenant in the merged trace.
    """
    if not others:
        raise ValueError("tenant_mix needs at least two traces")
    sources = list(trace.sources)
    events = list(trace.events)
    for other in others:
        offset = len(sources)
        sources.extend(other.sources)
        events.extend(
            dc_replace(e, source=e.source + offset) for e in other.events
        )
    return trace.derive(
        "+".join([trace.name] + [o.name for o in others]),
        _renumber(events),
        sources=sources,
        step={
            "transform": "tenant_mix",
            "tenants": [trace.name] + [o.name for o in others],
        },
    )


def amplitude_modulate(
    trace: Trace, cycles: float = 2.0, depth: float = 0.5
) -> Trace:
    """Sinusoidally modulate inter-arrival gaps (rate swings +/-depth).

    Turns any flat recording into a diurnal-style swell without
    re-drawing randomness: gap ``i`` is scaled by
    ``1 + depth * sin(2*pi*cycles*i/n)``, so the total pattern of the
    underlying process is preserved inside the modulation envelope.
    """
    if not 0 <= depth < 1:
        raise ValueError(f"depth must be in [0, 1), got {depth!r}")
    ordered = sorted(trace.events, key=lambda e: (e.arrival_s, e.request_id))
    n = len(ordered)
    arrivals = np.asarray([e.arrival_s for e in ordered])
    gaps = np.diff(np.concatenate([[0.0], arrivals]))
    phase = 2.0 * math.pi * cycles * np.arange(n) / max(n, 1)
    warped = np.cumsum(gaps * (1.0 + depth * np.sin(phase)))
    events = [
        dc_replace(e, arrival_s=float(warped[i]))
        for i, e in enumerate(ordered)
    ]
    return trace.derive(
        f"{trace.name}~am{cycles:g}x{depth:g}", events,
        step={
            "transform": "amplitude_modulate",
            "cycles": cycles, "depth": depth,
        },
    )


def apply_transforms(trace: Trace, steps: Sequence[Dict]) -> Trace:
    """Run a pipeline of registered transforms over ``trace``.

    ``steps`` is a list of ``{"transform": name, **kwargs}`` dicts —
    the JSON-friendly composition form used by configs and saved
    lineage (a trace's ``meta["lineage"]`` is itself a valid ``steps``
    list for single-input transforms).
    """
    for step in steps:
        step = dict(step)
        name = step.pop("transform", None)
        if name is None:
            raise ValueError(f"transform step missing 'transform': {step!r}")
        trace = TRACE_TRANSFORMS.get(name)(trace, **step)
    return trace
