"""Metrics registry: counters, gauges, fixed-bucket histograms.

A deliberately small re-statement of the Prometheus data model, so the
simulator's telemetry speaks the lingua franca of serving fleets while
staying stdlib + deterministic:

* :class:`Counter` — monotone totals (requests, batches, bit switches);
* :class:`Gauge` — last-written values (queue depth, active replicas);
* :class:`Histogram` — fixed bucket bounds declared at creation
  (latency, batch size).  Bounds never adapt to the data: two runs of
  the same workload produce the same buckets, and cross-run /
  cross-policy comparisons line up bucket-for-bucket.

Every metric family supports labels (``inc(1, replica="0", bits="8")``);
a (name, label-set) pair is one sample.  :meth:`MetricsRegistry.snapshot`
enumerates samples deterministically — family name, then label items —
and the two exporters serialise that snapshot as:

* :meth:`MetricsRegistry.to_prometheus` — the text exposition format a
  Prometheus scrape endpoint would serve (``# HELP``/``# TYPE`` plus
  ``name{labels} value`` lines, histogram ``_bucket``/``_sum``/``_count``
  conventions);
* :meth:`MetricsRegistry.to_jsonl` — one JSON object per sample, the
  grep/jq-friendly sidecar the ``repro obs`` run-dir inspector and any
  downstream notebook can consume without a Prometheus server.

:class:`MetricsRecorder` bridges the two halves of the obs plane: it is
a :class:`~repro.obs.tracer.Tracer` sink that folds the live event
stream into this registry, so components instrument *once* (emit an
event) and both the span log and the metrics fall out.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from .tracer import bits_label

__all__ = [
    "LATENCY_BUCKETS_S",
    "BATCH_SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsRecorder",
]

# Fixed histogram bounds (seconds).  Spanning sub-millisecond cost-model
# service times up to multi-second backlog drains; chosen once so every
# run, scale, and policy lands in comparable buckets.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# Micro-batch occupancy: max_batch is 8-16 across the serve scales.
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _fmt_value(value: float) -> str:
    """Deterministic number formatting: ints stay ints, floats repr()."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition spec.

    Backslash first (so the other escapes aren't double-escaped), then
    double-quote and newline — the three characters the format reserves.
    """
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    items = list(key) + list(extra)
    if not items:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in items
    )
    return "{" + body + "}"


class _Metric:
    """Shared naming/help plumbing for the three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help

    def _keys(self) -> List[LabelKey]:
        raise NotImplementedError

    def samples(self) -> List[Dict]:
        """Deterministic flat sample dicts (JSONL rows)."""
        raise NotImplementedError

    def exposition(self) -> List[str]:
        """Prometheus text lines for this family."""
        raise NotImplementedError

    def _header(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Metric):
    """Monotonically increasing total per label-set."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc {amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def _keys(self) -> List[LabelKey]:
        return sorted(self._values)

    def samples(self) -> List[Dict]:
        return [
            {"name": self.name, "kind": self.kind,
             "labels": dict(key), "value": self._values[key]}
            for key in self._keys()
        ]

    def exposition(self) -> List[str]:
        lines = self._header()
        for key in self._keys():
            lines.append(
                f"{self.name}{_fmt_labels(key)} "
                f"{_fmt_value(self._values[key])}"
            )
        return lines


class Gauge(_Metric):
    """Last-written value per label-set (queue depth, active replicas)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(labels)] = float(value)

    def value(self, **labels) -> Optional[float]:
        return self._values.get(_label_key(labels))

    def _keys(self) -> List[LabelKey]:
        return sorted(self._values)

    def samples(self) -> List[Dict]:
        return [
            {"name": self.name, "kind": self.kind,
             "labels": dict(key), "value": self._values[key]}
            for key in self._keys()
        ]

    def exposition(self) -> List[str]:
        lines = self._header()
        for key in self._keys():
            lines.append(
                f"{self.name}{_fmt_labels(key)} "
                f"{_fmt_value(self._values[key])}"
            )
        return lines


class Histogram(_Metric):
    """Cumulative-bucket histogram with bounds fixed at creation."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
    ):
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name} buckets must be non-empty, strictly "
                f"increasing; got {buckets!r}"
            )
        self.bounds = bounds
        # label-set -> (per-bound counts, +Inf overflow, sum, count)
        self._series: Dict[LabelKey, Dict] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = {
                "counts": [0] * len(self.bounds),
                "overflow": 0, "sum": 0.0, "count": 0,
            }
            self._series[key] = series
        value = float(value)
        placed = False
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                series["counts"][i] += 1
                placed = True
                break
        if not placed:
            series["overflow"] += 1
        series["sum"] += value
        series["count"] += 1

    def count(self, **labels) -> int:
        series = self._series.get(_label_key(labels))
        return series["count"] if series else 0

    def _keys(self) -> List[LabelKey]:
        return sorted(self._series)

    def _cumulative(self, series: Dict) -> List[int]:
        out, running = [], 0
        for count in series["counts"]:
            running += count
            out.append(running)
        return out

    def samples(self) -> List[Dict]:
        rows = []
        for key in self._keys():
            series = self._series[key]
            rows.append({
                "name": self.name, "kind": self.kind, "labels": dict(key),
                "buckets": {
                    _fmt_value(bound): cum
                    for bound, cum in zip(
                        self.bounds, self._cumulative(series)
                    )
                },
                "sum": series["sum"],
                "count": series["count"],
            })
        return rows

    def exposition(self) -> List[str]:
        lines = self._header()
        for key in self._keys():
            series = self._series[key]
            for bound, cum in zip(self.bounds, self._cumulative(series)):
                lines.append(
                    f"{self.name}_bucket"
                    f"{_fmt_labels(key, [('le', _fmt_value(bound))])} {cum}"
                )
            lines.append(
                f"{self.name}_bucket{_fmt_labels(key, [('le', '+Inf')])} "
                f"{series['count']}"
            )
            lines.append(
                f"{self.name}_sum{_fmt_labels(key)} "
                f"{_fmt_value(series['sum'])}"
            )
            lines.append(
                f"{self.name}_count{_fmt_labels(key)} {series['count']}"
            )
        return lines


class MetricsRegistry:
    """Named metric families, snapshotted and exported deterministically."""

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Snapshot + exporters
    # ------------------------------------------------------------------
    def snapshot(self) -> List[Dict]:
        """Every sample of every family, in deterministic order."""
        rows: List[Dict] = []
        for name in self.names():
            rows.extend(self._metrics[name].samples())
        return rows

    def to_prometheus(self) -> str:
        """Prometheus text exposition (what a /metrics scrape returns)."""
        lines: List[str] = []
        for name in self.names():
            lines.extend(self._metrics[name].exposition())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_jsonl(self) -> str:
        """One JSON object per sample line (sorted keys)."""
        return "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in self.snapshot()
        )


class MetricsRecorder:
    """Tracer sink folding the event stream into a metrics registry.

    The single point where event vocabulary maps to metric families —
    components emit events and never touch the registry, so adding a
    metric is a change *here*, not another thread through the engine.
    Cell labels bound onto events (``scenario``/``policy``/...) are NOT
    copied onto every metric to keep cardinality sane; the high-value
    dimensions (replica, bits, stage) are.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._enqueued = registry.counter(
            "repro_requests_enqueued_total",
            "requests admitted into a replica queue",
        )
        self._routed = registry.counter(
            "repro_requests_routed_total",
            "requests routed by the fleet router",
        )
        self._completed = registry.counter(
            "repro_requests_completed_total",
            "requests completed, by replica and served bit-width",
        )
        self._batches = registry.counter(
            "repro_batches_total",
            "micro-batches dispatched, by replica and bit-width",
        )
        self._switches = registry.counter(
            "repro_bit_switches_total",
            "runtime precision switches, by replica",
        )
        self._decisions = registry.counter(
            "repro_policy_decisions_total",
            "precision-policy decisions, by chosen bit-width",
        )
        self._busy = registry.counter(
            "repro_busy_seconds_total",
            "virtual seconds spent serving batches, by replica",
        )
        self._forwards = registry.counter(
            "repro_forwards_total",
            "switched forward passes executed, by replica and bit-width",
        )
        self._stages = registry.counter(
            "repro_pipeline_stage_seconds_total",
            "wall-clock seconds per pipeline stage",
        )
        self._queue_depth = registry.gauge(
            "repro_queue_depth",
            "queued requests per replica after the last dispatch",
        )
        self._latency = registry.histogram(
            "repro_request_latency_seconds",
            "end-to-end request latency (queue wait + service)",
            buckets=LATENCY_BUCKETS_S,
        )
        self._batch_size = registry.histogram(
            "repro_batch_size",
            "requests coalesced per dispatched micro-batch",
            buckets=BATCH_SIZE_BUCKETS,
        )

    def __call__(self, event: Dict) -> None:
        kind = event["kind"]
        if kind == "enqueue":
            self._enqueued.inc(replica=event.get("replica", 0))
        elif kind == "route":
            self._routed.inc(replica=event.get("replica", 0))
        elif kind == "complete":
            self._completed.inc(
                replica=event.get("replica", 0),
                bits=bits_label(event.get("bits")),
            )
            self._latency.observe(event["latency_s"])
        elif kind == "batch":
            replica = event.get("replica", 0)
            self._batches.inc(
                replica=replica, bits=bits_label(event.get("bits"))
            )
            self._busy.inc(event["service_s"], replica=replica)
            self._batch_size.observe(event["size"])
            self._queue_depth.set(event["queue_depth"], replica=replica)
        elif kind == "forward":
            self._forwards.inc(
                replica=event.get("replica", 0),
                bits=bits_label(event.get("bits")),
            )
        elif kind == "bit_switch":
            self._switches.inc(replica=event.get("replica", 0))
        elif kind == "policy_decision":
            self._decisions.inc(bits=bits_label(event.get("bits")))
        elif kind == "stage":
            self._stages.inc(event.get("seconds", 0.0), stage=event["stage"])
