"""Experiment harness: one module per paper table/figure (system S14).

Each module exposes ``run(scale="smoke"|"default"|"full", seed=0)`` and
prints a paper-style table when executed as a script::

    python -m repro.experiments.table1
    python -m repro.experiments.fig5
"""

from .common import SCALES, ExperimentResult, Scale, format_table, get_scale
from . import fig2, fig4, fig5, fig6, fig7, table1, table2, table3, table4

__all__ = [
    "SCALES",
    "ExperimentResult",
    "Scale",
    "format_table",
    "get_scale",
    "table1",
    "table2",
    "table3",
    "table4",
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
]
