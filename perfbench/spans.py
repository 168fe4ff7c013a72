"""Outside-in span recording for the traced run.

The traced run swaps public functions and methods of each layer for
timing wrappers, by name, where the program looks them up: the module a
function is called through (``repro.quant.layers.conv2d``) or the class
that owns a method (``Tensor.backward``).  Every original is put back
when the run ends, so the timed runs execute the program untouched.

Spans are kept in memory and written once, when the run ends.  A span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Tuple

_DONE = object()


class SpanRecorder:
    """Nested spans with per-name self time and call counts.

    ``phase`` prefixes every span opened while it is set, so one run can
    keep, for example, training and evaluation apart (``eval.`` prefix).
    """

    def __init__(self) -> None:
        self.phase = ""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        # (span id, parent id, name, start, end); parent -1 is the root.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._stack: List[list] = []
        self._next_id = 0
        # Inclusive SP-Net forward times, split by whether the network
        # switched bit-width since its previous forward.
        self.forward_ms: Dict[str, List[float]] = {"switch": [], "same": []}
        # AutoMapper counters, summed as deltas per mapper instance.
        self.mapper_totals = {"evaluations": 0, "cost_cache_hits": 0}
        self._mapper_seen = weakref.WeakKeyDictionary()

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, parent, self.phase + name, 0.0, time.perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list, counted: bool = True) -> float:
        """End ``frame``; an uncounted span adds time but not a call."""
        end = time.perf_counter()
        span_id, parent, name, child_s, start = frame
        duration = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][3] += duration
        self.self_s[name] += duration - child_s
        self.total_s[name] += duration
        self.calls[name] += counted
        self.spans.append((span_id, parent, name, start, end))
        return duration

    def phase_self_s(self, phase: str) -> float:
        """Self time summed over the spans of ``phase`` ("" or "eval.")."""
        return sum(
            v for k, v in self.self_s.items()
            if (k.startswith(phase) if phase else not k.startswith("eval."))
        )

    def note_mapper(self, mapper) -> None:
        now = (mapper.evaluations, mapper.cost_cache_hits)
        before = self._mapper_seen.get(mapper, (0, 0))
        self.mapper_totals["evaluations"] += now[0] - before[0]
        self.mapper_totals["cost_cache_hits"] += now[1] - before[1]
        self._mapper_seen[mapper] = now

    def write(self, path: str) -> None:
        """Write the aggregate table and every span as JSON."""
        names = sorted({span[2] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "self_s": dict(sorted(self.self_s.items())),
            "calls": dict(sorted(self.calls.items())),
            "span_names": names,
            "spans_columns": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [
                [s, p, index[n], round(a, 7), round(b, 7)]
                for s, p, n, a, b in self.spans
            ],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _timed(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(frame)

    return wrapper


def _timed_iter(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    """One span per ``next`` on the iterator ``fn`` returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        while True:
            frame = recorder.open(name)
            item = _DONE
            try:
                item = next(iterator, _DONE)
            finally:
                # The call that finds the iterator exhausted is not a step.
                recorder.close(frame, counted=item is not _DONE)
            if item is _DONE:
                return
            yield item

    return wrapper


def _spnet_forward(recorder: SpanRecorder, fn: Callable, bits_of) -> Callable:
    """SP-Net forward span that also files its time by switch status."""
    last_bits = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def wrapper(self, x, bits=None):
        current = bits if bits is not None else bits_of.get(self)
        frame = recorder.open("quant.spnet_forward")
        try:
            return fn(self, x, bits)
        finally:
            duration = recorder.close(frame)
            previous = last_bits.get(self)
            if previous is not None:
                kind = "same" if previous == current else "switch"
                recorder.forward_ms[kind].append(duration * 1e3)
            last_bits[self] = current

    return wrapper


def _bits_hook(fn: Callable, bits_of) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, bits):
        fn(self, bits)
        bits_of[self] = bits

    return wrapper


def _mapper_span(recorder: SpanRecorder, fn: Callable) -> Callable:
    timed = _timed(recorder, "automapper.search_network", fn)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        try:
            return timed(self, *args, **kwargs)
        finally:
            recorder.note_mapper(self)

    return wrapper


# ----------------------------------------------------------------------
# What the traced run wraps
# ----------------------------------------------------------------------
# (module the program calls the function through, attribute, span name)
FUNCTIONS = (
    ("repro.quant.layers", "conv2d", "tensor.conv2d.fwd"),
    ("repro.nn.layers", "conv2d", "tensor.conv2d.fwd"),
    ("repro.nn.layers", "batch_norm2d", "tensor.batch_norm2d.fwd"),
    ("repro.nn.layers", "relu6", "tensor.relu6.fwd"),
    ("repro.core.cdt", "cross_entropy", "core.loss"),
    ("repro.core.cdt", "mse_loss", "core.loss"),
    ("repro.core.spnas.search", "cross_entropy", "core.loss"),
    ("repro.core.automapper.engine", "evaluate_layer", "hardware.evaluate_layer"),
    ("repro.core.automapper.engine", "make_valid", "hardware.make_valid"),
    ("repro.core.automapper.engine", "random_dataflow", "hardware.random_dataflow"),
    ("repro.core.automapper.engine", "perturb_dataflow", "hardware.perturb_dataflow"),
    ("repro.core.automapper.engine", "evaluate_network", "hardware.evaluate_network"),
    ("repro.serve.simulator", "simulate", "serve.loop.simulate"),
    ("repro.serve.cluster", "simulate_fleet", "serve.loop.simulate_fleet"),
    ("repro.serve.simulator", "make_engine", "serve.build"),
    ("repro.serve.cluster", "make_fleet", "serve.build"),
    ("repro.serve.simulator", "build_report", "serve.report"),
    ("repro.serve.cluster", "build_fleet_report", "serve.report"),
    ("repro.serve.checkpoint", "save_checkpoint", "serve.checkpoint_save"),
    ("repro.serve.checkpoint", "load_checkpoint", "serve.checkpoint_load"),
)

# (module, class, method, span name)
METHODS = (
    ("repro.tensor.autograd", "Tensor", "backward", "tensor.backward"),
    ("repro.optim.optimizers", "SGD", "step", "optim.sgd_step"),
    ("repro.optim.optimizers", "Adam", "step", "optim.adam_step"),
    ("repro.optim.optimizers", "Optimizer", "zero_grad", "optim.zero_grad"),
    ("repro.core.automapper.engine", "AutoMapper", "search_layer", "automapper.search_layer"),
    ("repro.serve.engine", "InferenceEngine", "dispatch", "serve.dispatch"),
    ("repro.serve.engine", "EngineStats", "record_batch", "serve.record_batch"),
    ("repro.api.pipeline", "Pipeline", "generate", "stage.generate"),
    ("repro.api.pipeline", "Pipeline", "train", "stage.train"),
    ("repro.api.pipeline", "Pipeline", "deploy", "stage.deploy"),
    ("repro.api.pipeline", "Pipeline", "serve", "stage.serve"),
    ("repro.core.spnas.supernet", "Supernet", "forward", "spnas.supernet_forward"),
    ("repro.core.spnas.supernet", "Supernet", "resample", "spnas.resample"),
    ("repro.core.spnas.supernet", "Supernet", "expected_flops", "spnas.expected_flops"),
)

# (module, base class, method, span name): every subclass defining it.
SUBCLASS_METHODS = (
    ("repro.quant.quantizers", "Quantizer", "weight_values", "quant.weight_values"),
    ("repro.quant.quantizers", "Quantizer", "quantize_activation", "quant.quantize_activation"),
    ("repro.serve.policies", "PrecisionController", "choose_bits", "serve.choose_bits"),
    ("repro.serve.routing", "Router", "route", "serve.route"),
)


def _subclasses(module, base_name: str):
    base = getattr(module, base_name)
    return [
        cls for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, base) and cls is not base
    ]


@contextlib.contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every wrapper for the duration of the block."""
    swaps = []  # (owner, attribute, wrapper)
    for module_name, attr, span in FUNCTIONS:
        module = importlib.import_module(module_name)
        swaps.append((module, attr, _timed(recorder, span, getattr(module, attr))))
    for module_name, cls_name, method, span in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        swaps.append((cls, method, _timed(recorder, span, cls.__dict__[method])))
    for module_name, base_name, method, span in SUBCLASS_METHODS:
        module = importlib.import_module(module_name)
        for cls in _subclasses(module, base_name):
            if method in cls.__dict__:
                swaps.append((cls, method, _timed(recorder, span, cls.__dict__[method])))

    from repro.core.automapper.engine import AutoMapper
    from repro.data.loader import DataLoader
    from repro.quant.network import SwitchablePrecisionNetwork as SPNet

    bits_of = weakref.WeakKeyDictionary()
    swaps += [
        (DataLoader, "__iter__",
         _timed_iter(recorder, "data.loader_wait", DataLoader.__iter__)),
        (SPNet, "forward_all",
         _timed_iter(recorder, "quant.spnet_forward", SPNet.forward_all)),
        (SPNet, "forward", _spnet_forward(recorder, SPNet.forward, bits_of)),
        (SPNet, "set_bitwidth", _bits_hook(SPNet.set_bitwidth, bits_of)),
        (AutoMapper, "search_network",
         _mapper_span(recorder, AutoMapper.search_network)),
    ]

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in swaps]
    try:
        for owner, attr, wrapper in swaps:
            setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
