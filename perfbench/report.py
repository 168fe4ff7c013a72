"""Metric definitions and how each is computed from a run.

Every workload prints every metric, so one definition covers all four.
End-to-end metrics come from the timed (untraced) operations.  Per-layer
metrics come from the traced operations: a layer's self time divided by
the steps the traced operations ran (``s/step``; a pipeline step is a
whole run), or, with the ``eval.`` prefix, by the evaluation passes
(``s/eval``).  A layer a workload never calls reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

# name, unit, better, bound (share of the parent's median)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("op_s", "s", "lower", 0.25),
    ("step_p50_ms", "ms", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
]

# Self time per step of one span: (metric, span, per) with per "step"
# or "eval".  Counts use the same span with ``.calls``.
SELF_TIMES: List[Tuple[str, str, str]] = [
    ("tensor.conv2d.fwd_s", "tensor.conv2d.fwd", "step"),
    ("tensor.batch_norm2d.fwd_s", "tensor.batch_norm2d.fwd", "step"),
    ("tensor.relu6.fwd_s", "tensor.relu6.fwd", "step"),
    ("tensor.backward_s", "tensor.backward", "step"),
    ("quant.quantize_activation_s", "quant.quantize_activation", "step"),
    ("quant.weight_values_s", "quant.weight_values", "step"),
    ("quant.spnet_forward_s", "quant.spnet_forward", "step"),
    ("optim.sgd_step_s", "optim.sgd_step", "step"),
    ("optim.adam_step_s", "optim.adam_step", "step"),
    ("optim.zero_grad_s", "optim.zero_grad", "step"),
    ("core.loss_s", "core.loss", "step"),
    ("data.loader_wait_s", "data.loader_wait", "step"),
    ("eval.tensor.conv2d.fwd_s", "eval.tensor.conv2d.fwd", "eval"),
    ("eval.tensor.batch_norm2d.fwd_s", "eval.tensor.batch_norm2d.fwd", "eval"),
    ("eval.tensor.relu6.fwd_s", "eval.tensor.relu6.fwd", "eval"),
    ("eval.quant.quantize_activation_s", "eval.quant.quantize_activation", "eval"),
    ("eval.quant.weight_values_s", "eval.quant.weight_values", "eval"),
    ("eval.quant.spnet_forward_s", "eval.quant.spnet_forward", "eval"),
    ("eval.data.loader_wait_s", "eval.data.loader_wait", "eval"),
    ("hardware.evaluate_layer_s", "hardware.evaluate_layer", "step"),
    ("hardware.make_valid_s", "hardware.make_valid", "step"),
    ("hardware.random_dataflow_s", "hardware.random_dataflow", "step"),
    ("hardware.perturb_dataflow_s", "hardware.perturb_dataflow", "step"),
    ("hardware.evaluate_network_s", "hardware.evaluate_network", "step"),
    ("automapper.search_layer.self_s", "automapper.search_layer", "step"),
    ("automapper.search_network.self_s", "automapper.search_network", "step"),
    ("serve.dispatch.self_s", "serve.dispatch", "step"),
    ("serve.choose_bits_s", "serve.choose_bits", "step"),
    ("serve.route_s", "serve.route", "step"),
    ("serve.record_batch_s", "serve.record_batch", "step"),
    ("serve.loop.simulate.self_s", "serve.loop.simulate", "step"),
    ("serve.loop.simulate_fleet.self_s", "serve.loop.simulate_fleet", "step"),
    ("serve.build_s", "serve.build", "step"),
    ("serve.report_s", "serve.report", "step"),
    ("spnas.supernet_forward_s", "spnas.supernet_forward", "step"),
    ("spnas.resample_s", "spnas.resample", "step"),
    ("spnas.expected_flops_s", "spnas.expected_flops", "step"),
    ("serve.checkpoint_save_s", "serve.checkpoint_save", "step"),
    ("serve.checkpoint_load_s", "serve.checkpoint_load", "step"),
]

CALLS: List[Tuple[str, str, str]] = [
    ("tensor.conv2d.calls", "tensor.conv2d.fwd", "step"),
    ("quant.weight_values.calls", "quant.weight_values", "step"),
    ("quant.spnet_forward.calls", "quant.spnet_forward", "step"),
    ("eval.tensor.conv2d.calls", "eval.tensor.conv2d.fwd", "eval"),
    ("eval.quant.weight_values.calls", "eval.quant.weight_values", "eval"),
    ("hardware.evaluate_layer.calls", "hardware.evaluate_layer", "step"),
    ("hardware.make_valid.calls", "hardware.make_valid", "step"),
]

# Whole-stage time (span duration, not self time) per pipeline run.
STAGES = ("generate", "train", "deploy", "serve")

# Metrics computed from several spans or from the operations.
DERIVED: List[Tuple[str, str, str]] = [
    ("attributed_share", "ratio", "higher"),
    ("eval.attributed_share", "ratio", "higher"),
    ("tracing_overhead", "ratio", "lower"),
    ("quant.weight_cache_hit_ratio", "ratio", "higher"),
    ("automapper.evaluations", "count/op", "lower"),
    ("automapper.cost_cache_hit_ratio", "ratio", "higher"),
    ("serve.batch_size_mean", "req/batch", "higher"),
    ("serve.bit_switches", "count/op", "lower"),
    ("serve.forward_after_switch_ms", "ms", "lower"),
    ("serve.forward_same_bits_ms", "ms", "lower"),
    ("serve.prepare_simulation_s", "s", "lower"),
]


def per_layer_definitions() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    rows = [(m, f"s/{per}", "lower") for m, _, per in SELF_TIMES]
    rows += [(m, f"count/{per}", "lower") for m, _, per in CALLS]
    rows += [(f"stage.{s}_s", "s/step", "lower") for s in STAGES]
    return rows + DERIVED


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(setup_s: float, peak_rss_mb: float, ops, scales) -> Dict[str, float]:
    """End-to-end metrics; ``scales`` take each operation to reference speed."""
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "op_s": _median(op.wall_s * k for op, k in zip(ops, scales)),
        "step_p50_ms": _median(
            s * k for op, k in zip(ops, scales) for s in op.steps_s
        ) * 1e3,
        "items_per_s": _median(op.items / (op.busy_s * k) for op, k in zip(ops, scales)),
    }


def _tail_percentile(samples: int) -> int:
    """Highest whole percentile that leaves at least ten samples beyond it."""
    return int(100 * (samples - 10) / samples) if samples > 10 else 0


def named(workload: str, metrics: Dict[str, float], ops, scales) -> Dict[str, Tuple[float, str]]:
    """The workload's own figures under workload-specific names.

    Printed for people; the gated metrics are the shared ones above.
    """
    steps = [s * k for op, k in zip(ops, scales) for s in op.steps_s]
    values: Dict[str, Tuple[float, str]] = {
        "setup_s": (metrics["setup_s"], "s"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
    }
    tail = _tail_percentile(len(steps))
    if workload == "train_cdt":
        values["train_samples_per_s"] = (metrics["items_per_s"], "1/s")
        values["train_step_p50_s"] = (metrics["step_p50_ms"] / 1e3, "s")
        if tail:
            q = min(tail, 90)
            values[f"train_step_p{q}_s"] = (_percentile(steps, q), "s")
        values["eval_images_per_s"] = (_median(
            op.facts["eval_images"] / (op.facts["eval_s"] * k)
            for op, k in zip(ops, scales)
        ), "1/s")
    elif workload == "deploy_mapper":
        values["deploy_s"] = (metrics["op_s"], "s")
    elif workload == "serve_bursty":
        values["serve_requests_per_s"] = (metrics["items_per_s"], "1/s")
        values["serve_batch_p50_ms"] = (metrics["step_p50_ms"], "ms")
        if tail >= 99:
            values["serve_batch_p99_ms"] = (_percentile(steps, 99) * 1e3, "ms")
    elif workload == "pipeline_smoke":
        values["pipeline_s"] = (metrics["op_s"], "s")
    values["samples"] = (len(steps), "steps")
    return values


def _percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(recorder, traced, traced_scales, untraced, untraced_scales,
              prepare_s: float) -> Dict[str, float]:
    """Per-layer metrics from the spans of the ``traced`` operations.

    Times are taken to reference speed with the traced operations'
    median scale.
    """
    k = _median(traced_scales)
    count = {
        "step": sum(len(op.steps_s) for op in traced),
        "eval": sum(op.facts.get("eval_passes", 0) for op in traced),
    }
    values: Dict[str, float] = {}
    for metric, span, per in SELF_TIMES:
        values[metric] = k * _ratio(recorder.self_s.get(span, 0.0), count[per])
    for metric, span, per in CALLS:
        values[metric] = _ratio(recorder.calls.get(span, 0), count[per])
    for stage in STAGES:
        values[f"stage.{stage}_s"] = k * _ratio(
            recorder.total_s.get(f"stage.{stage}", 0.0), count["step"]
        )

    def fact(key):
        return sum(op.facts.get(key, 0) for op in traced)

    ops = len(traced)
    calls = recorder.calls
    mapper = recorder.mapper_totals
    lookups = (mapper["cost_cache_hits"] + calls.get("hardware.evaluate_layer", 0)
               + calls.get("hardware.make_valid", 0))
    values.update({
        "attributed_share": _ratio(recorder.phase_self_s(""), fact("window_s")),
        "eval.attributed_share": _ratio(recorder.phase_self_s("eval."),
                                        fact("eval_s")),
        "tracing_overhead": _ratio(
            _median(op.wall_s * s for op, s in zip(traced, traced_scales)),
            _median(op.wall_s * s for op, s in zip(untraced, untraced_scales)),
        ),
        "quant.weight_cache_hit_ratio": _ratio(
            calls.get("quant.quantize_activation", 0)
            - calls.get("quant.weight_values", 0),
            calls.get("quant.quantize_activation", 0),
        ),
        "automapper.evaluations": _ratio(mapper["evaluations"], ops),
        "automapper.cost_cache_hit_ratio": _ratio(mapper["cost_cache_hits"], lookups),
        "serve.batch_size_mean": _ratio(fact("requests"), fact("batches")),
        "serve.bit_switches": _ratio(fact("bit_switches"), ops),
        "serve.forward_after_switch_ms": k * _median(recorder.forward_ms["switch"]),
        "serve.forward_same_bits_ms": k * _median(recorder.forward_ms["same"]),
        "serve.prepare_simulation_s": prepare_s,
    })
    return values
