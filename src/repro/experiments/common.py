"""Shared experiment infrastructure: scale presets and result tables.

Every experiment module exposes ``run(scale=..., seed=...) -> ExperimentResult``
and seeds the library RNG itself, so a run is a function of its arguments.
Three scales trade fidelity for wall-clock (the substitution in DESIGN.md):

* ``smoke``   — seconds; exercises every code path (used by tests),
* ``default`` — minutes; enough training for the paper's *orderings* to
  emerge (``python -m repro run <exp> --scale default``),
* ``full``    — tens of minutes per experiment; closest CPU-feasible
  match to the paper's settings.

``ExperimentResult`` carries measured rows plus the paper's reference
values so the printed tables show paper-vs-measured side by side (the
data recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["Scale", "SCALES", "get_scale", "ExperimentResult", "format_table"]


@dataclass(frozen=True)
class Scale:
    """Knobs shared by the training-side experiments."""

    name: str
    train_samples: int
    test_samples: int
    image_size: int
    num_classes: int          # stand-in class count for CIFAR-100-like data
    epochs: int
    batch_size: int
    width_mult: float         # model width scaling
    nas_epochs: int
    mapper_generations: int   # AutoMapper evolution budget
    difficulty: float = 3.0


SCALES: Dict[str, Scale] = {
    "smoke": Scale(
        name="smoke", train_samples=256, test_samples=128, image_size=12,
        num_classes=5, epochs=2, batch_size=32, width_mult=0.25,
        nas_epochs=1, mapper_generations=6, difficulty=2.0,
    ),
    "default": Scale(
        name="default", train_samples=1536, test_samples=384, image_size=16,
        num_classes=20, epochs=8, batch_size=64, width_mult=1.0,
        nas_epochs=3, mapper_generations=40, difficulty=3.0,
    ),
    "full": Scale(
        name="full", train_samples=4096, test_samples=1024, image_size=16,
        num_classes=20, epochs=20, batch_size=64, width_mult=1.0,
        nas_epochs=8, mapper_generations=80, difficulty=3.0,
    ),
}


def get_scale(scale) -> Scale:
    """Resolve a scale by name or pass through a custom :class:`Scale`.

    Names resolve through :data:`repro.api.registry.SCALES` (for which
    the ``SCALES`` dict above provides the built-ins), so scale presets
    registered by downstream code are addressable everywhere a scale
    name is accepted.
    """
    if isinstance(scale, Scale):
        return scale
    if scale in SCALES:
        return SCALES[scale]
    from ..api.registry import SCALES as scale_registry

    try:
        resolved = scale_registry.get(scale)
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; available: "
            f"{list(scale_registry.names())}"
        ) from None
    if not isinstance(resolved, Scale):
        raise ValueError(
            f"registered scale {scale!r} is not a Scale: {resolved!r}"
        )
    return resolved


@dataclass
class ExperimentResult:
    """Measured rows + paper reference for one table/figure."""

    experiment: str                      # e.g. "table1"
    title: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    paper_reference: Dict[str, Any] = field(default_factory=dict)
    notes: str = ""
    scale: str = "default"
    seconds: float = 0.0

    def add_row(self, **kwargs) -> None:
        self.rows.append(dict(kwargs))

    def column(self, key: str) -> List[Any]:
        return [row.get(key) for row in self.rows]

    def to_text(self) -> str:
        header = f"== {self.experiment}: {self.title} (scale={self.scale}) =="
        body = format_table(self.rows)
        parts = [header, body]
        if self.notes:
            parts.append(f"notes: {self.notes}")
        parts.append(f"wall time: {self.seconds:.1f}s")
        return "\n".join(parts)


def format_table(rows: Sequence[Dict[str, Any]]) -> str:
    """Render dict rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered))
        for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(col.ljust(w) for col, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
