"""Shared engine for the CDT ablation tables (Tables I-IV).

All four tables have the same skeleton — train a model family on a
dataset under several training methods and report per-bit-width test
accuracy — differing only in model, dataset, candidate bit sets and the
baseline list.  :func:`run_cdt_comparison` implements the skeleton once;
the per-table modules configure it and attach the paper's reference
numbers.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from .. import rng as rng_mod
from ..baselines.spnets import train_method
from ..core.trainer import TrainConfig
from ..obs.wallclock import wall_clock_s
from .common import ExperimentResult, Scale

__all__ = ["run_cdt_comparison"]


def run_cdt_comparison(
    experiment: str,
    title: str,
    model_builder_factory: Callable[[Scale], Callable],
    dataset_factory: Callable[[Scale], tuple],
    bit_sets: Sequence[Sequence],
    methods: Sequence[str],
    scale: Scale,
    seed: int = 0,
    paper_reference: Optional[dict] = None,
) -> ExperimentResult:
    """Train every method on every bit set; emit one row per (set, bits).

    ``methods`` name entries of :data:`repro.baselines.spnets.METHODS`,
    each trained with its paired quantiser.

    Each row carries ``acc_<method>`` columns, mirroring the paper's
    table layout (bit-width rows x method columns).
    """
    start = wall_clock_s()
    rng_mod.set_seed(seed)  # the datasets derive from the global seed
    result = ExperimentResult(
        experiment=experiment,
        title=title,
        paper_reference=paper_reference or {},
        scale=scale.name,
    )
    config = TrainConfig(epochs=scale.epochs, batch_size=scale.batch_size)
    builder = model_builder_factory(scale)
    train_set, test_set = dataset_factory(scale)

    for bit_set in bit_sets:
        bit_set = list(bit_set)
        accuracies: Dict[str, Dict] = {}
        for method in methods:
            rng_mod.set_seed(seed)  # identical init / data order per method
            trained = train_method(method, builder, bit_set, train_set,
                                   test_set, config)
            accuracies[method] = trained.accuracies
        for bits in sorted(
            accuracies[methods[0]], key=lambda b: (sum(b) if isinstance(b, tuple) else b)
        ):
            row = {"bit_set": _fmt_bits(bit_set), "bits": _fmt_bits([bits])[1:-1]}
            for method in methods:
                row[f"acc_{method}"] = round(
                    100.0 * accuracies[method][bits], 2
                )
            result.add_row(**row)
    result.seconds = wall_clock_s() - start
    return result


def _fmt_bits(bit_set) -> str:
    parts = []
    for b in bit_set:
        if isinstance(b, tuple):
            parts.append(f"W{b[0]}A{b[1]}")
        else:
            parts.append(str(b))
    return "[" + ",".join(parts) + "]"
