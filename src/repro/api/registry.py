"""Component name tables: the one declaration of every built-in name.

Every component family the reproduction picks by name — models,
quantisers, precision policies, routers, traffic scenarios, SP-NAS
search spaces, accelerator devices, Fig. 5 workload networks, training
strategies, experiments and scale presets — is enumerated here, and
only here, as a fixed table of ``"module:attr"`` strings
(``"module:dict[key]"`` for entries of a dict the defining module
owns).  Importing this module imports no
subsystem: :func:`choices` lists a kind's names from the strings alone,
so the CLI renders ``--help`` choices and ``repro pipeline validate``
checks names without loading the model zoo, the quantisers or the
serving stack.  :func:`lookup` imports one entry and returns it; an
unknown name raises :class:`ConfigError` listing the choices.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Tuple

__all__ = ["ConfigError", "choices", "lookup"]


class ConfigError(ValueError):
    """Unknown key, wrong type, or invalid value in a config payload,
    or an unknown component name."""


# kind -> (the kind's name in error messages, {name: "module:attr"}).
# tests/test_api_registry.py asserts every entry resolves and matches
# the defining module's own surface, so these cannot silently drift.
_TABLES: Dict[str, Tuple[str, Dict[str, str]]] = {
    "models": ("model", {
        "mobilenet_v2": "repro.nn.models:mobilenet_v2",
        "resnet8": "repro.nn.models:resnet8",
        "resnet18": "repro.nn.models:resnet18",
        "resnet38": "repro.nn.models:resnet38",
        "resnet74": "repro.nn.models:resnet74",
    }),
    "quantizers": ("quantizer", {
        "dorefa": "repro.quant.quantizers:DoReFaQuantizer",
        "sbm": "repro.quant.quantizers:SBMQuantizer",
    }),
    "policies": ("policy", {
        "static": "repro.serve.policies:StaticPolicy",
        "slo": "repro.serve.policies:LatencySLOPolicy",
        "queue": "repro.serve.policies:QueueDepthPolicy",
    }),
    "routers": ("router", {
        "round_robin": "repro.serve.routing:RoundRobinRouter",
        "least_queue": "repro.serve.routing:LeastQueueRouter",
        "latency_aware": "repro.serve.routing:LatencyAwareRouter",
    }),
    "scenarios": ("scenario", {
        "constant": "repro.serve.simulator:constant_gaps",
        "bursty": "repro.serve.simulator:bursty_gaps",
        "diurnal": "repro.serve.simulator:diurnal_gaps",
    }),
    "search_spaces": ("search space", {
        "cifar": "repro.core.spnas.space:cifar_search_space",
        "tiny": "repro.core.spnas.space:tiny_search_space",
    }),
    "devices": ("device", {
        "eyeriss": "repro.hardware.hierarchy:eyeriss_like_asic",
        "edge": "repro.hardware.hierarchy:edge_asic",
        "zc706": "repro.hardware.hierarchy:zc706_like_fpga",
    }),
    "networks": ("network", {
        "alexnet": "repro.hardware.networks:alexnet_workloads",
        "vgg16": "repro.hardware.networks:vgg16_workloads",
        "resnet50": "repro.hardware.networks:resnet50_workloads",
        "mobilenetv2": "repro.hardware.networks:mobilenetv2_workloads",
    }),
    # The switchable entries of the method table; "sbm" trains one net
    # per bit-width, which a single pipeline checkpoint cannot hold.
    "strategies": ("training strategy", {
        "cdt": "repro.baselines.spnets:METHODS[cdt]",
        "sp": "repro.baselines.spnets:METHODS[sp]",
        "adabits": "repro.baselines.spnets:METHODS[adabits]",
    }),
    "experiments": ("experiment", {
        "table1": "repro.experiments.table1:run",
        "table2": "repro.experiments.table2:run",
        "table3": "repro.experiments.table3:run",
        "table4": "repro.experiments.table4:run",
        "fig2": "repro.experiments.fig2:run",
        "fig4": "repro.experiments.fig4:run",
        "fig5": "repro.experiments.fig5:run",
        "fig6": "repro.experiments.fig6:run",
        "fig7": "repro.experiments.fig7:run",
    }),
    "scales": ("scale", {
        "smoke": "repro.experiments.common:SCALES[smoke]",
        "default": "repro.experiments.common:SCALES[default]",
        "full": "repro.experiments.common:SCALES[full]",
    }),
    "serve_scales": ("serve scale", {
        "smoke": "repro.serve.simulator:SERVE_SCALES[smoke]",
        "default": "repro.serve.simulator:SERVE_SCALES[default]",
    }),
}


def choices(kind: str) -> Tuple[str, ...]:
    """The names of one kind (e.g. ``"policies"``), in table order."""
    return tuple(_TABLES[kind][1])


def lookup(kind: str, name: str) -> Any:
    """Import and return the ``kind`` entry called ``name``."""
    label, table = _TABLES[kind]
    if name not in table:
        raise ConfigError(
            f"unknown {label} {name!r}; available: {list(table)}"
        )
    module, _, attr = table[name].partition(":")
    attr, _, key = attr.partition("[")
    obj = getattr(importlib.import_module(module), attr)
    return obj[key[:-1]] if key else obj
