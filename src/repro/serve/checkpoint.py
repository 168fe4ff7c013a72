"""Checkpoint I/O for switchable-precision networks.

A checkpoint is two sibling files sharing one base path:

* ``<base>.npz``  — every parameter and buffer of the wrapped model,
  saved under its dotted ``state_dict`` name;
* ``<base>.json`` — metadata: a ``schema_version``, array and
  parameter counts, and under ``config`` the model description needed
  to rebuild an identical topology: a
  :class:`~repro.api.config.ModelConfig` (exported here as
  ``SPNetConfig``, the same class) in its ``to_dict()`` form.

``load_checkpoint`` parses the JSON config with
``ModelConfig.from_dict``, so an unknown key, a wrong-typed value or a
bad name fails there with a :class:`~repro.api.config.ConfigError`
naming the key.  It then rebuilds the model, loads the arrays, and
returns a :class:`~repro.quant.SwitchablePrecisionNetwork`
whose outputs match the saved network bit-for-bit at every candidate
bit-width — the property the serving layer depends on to swap models in
and out of memory without re-validation.

Versioning: checkpoints written by this build carry
``schema_version == 2``.  Version 1 (the previous ``"schema"`` key) and
unversioned pre-release checkpoints still load — the latter with a
:class:`UserWarning` — while a version from the future raises
:class:`CheckpointVersionError` instead of mis-parsing silently.

Model names resolve through :func:`repro.api.registry.lookup`, plus the
special name ``"derived"``: an SP-NAS-searched architecture embedded in
the config's ``arch`` payload (search-space name, input size, per-layer
block specs), which makes pipeline checkpoints self-contained;
:func:`build_sp_net` rejects a derived config whose payload is absent
or malformed.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Dict, Optional, Tuple

import numpy as np

from ..api.config import ConfigError, ModelConfig
from ..api.registry import lookup
from ..quant import SwitchableFactory, SwitchablePrecisionNetwork

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "CheckpointVersionError",
    "SPNetConfig",
    "build_sp_net",
    "save_checkpoint",
    "load_checkpoint",
    "load_state_arrays",
    "make_controller",
    "build_engine",
    "materialize_engine",
]

CHECKPOINT_SCHEMA_VERSION = 2
SUPPORTED_SCHEMA_VERSIONS = (1, 2)


class CheckpointVersionError(ValueError):
    """The checkpoint's schema_version is newer than this build supports."""


SPNetConfig = ModelConfig


def _build_derived_model(config: SPNetConfig, factory):
    """Rebuild an SP-NAS architecture from its embedded arch payload."""
    from ..core.spnas.derive import DerivedNetwork
    from ..core.spnas.space import BlockSpec

    arch = config.arch or {}
    missing = {"space", "input_size", "specs"} - set(arch)
    if missing:
        raise ConfigError(
            f"model 'derived' requires an arch payload {{'space', "
            f"'input_size', 'specs'}}; missing keys {sorted(missing)}"
        )
    space = lookup("search_spaces", arch["space"])(int(arch["input_size"]))
    specs = [
        BlockSpec(
            kind=s["kind"],
            expansion=int(s.get("expansion", 1)),
            kernel_size=int(s.get("kernel_size", 3)),
        )
        for s in arch["specs"]
    ]
    return DerivedNetwork(space, specs, factory, config.num_classes)


def build_sp_net(config: SPNetConfig) -> SwitchablePrecisionNetwork:
    """Construct a freshly initialised SP-Net matching ``config``."""
    factory = SwitchableFactory(
        config.bit_widths,
        quantizer=config.quantizer,
        switchable_bn=config.switchable_bn,
        activation=config.activation,
    )
    if config.model == "derived":
        model = _build_derived_model(config, factory)
    else:
        builder = lookup("models", config.model)
        kwargs = dict(
            num_classes=config.num_classes,
            factory=factory,
            width_mult=config.width_mult,
        )
        if config.model == "mobilenet_v2":
            kwargs["setting"] = config.setting
        model = builder(**kwargs)
    return SwitchablePrecisionNetwork(model, list(config.bit_widths))


def _base_path(path: str) -> str:
    """Strip a trailing .npz/.json so both spellings address one ckpt."""
    for suffix in (".npz", ".json"):
        if path.endswith(suffix):
            return path[: -len(suffix)]
    return path


def save_checkpoint(
    sp_net: SwitchablePrecisionNetwork, config: SPNetConfig, path: str
) -> Tuple[str, str]:
    """Write ``<base>.npz`` + ``<base>.json``; returns both paths."""
    base = _base_path(path)
    directory = os.path.dirname(base)
    if directory:
        os.makedirs(directory, exist_ok=True)
    state = sp_net.state_dict()
    npz_path, json_path = base + ".npz", base + ".json"
    np.savez(npz_path, **state)
    meta = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config": config.to_dict(),
        "num_arrays": len(state),
        "num_parameters": sp_net.num_parameters(),
    }
    with open(json_path, "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return npz_path, json_path


def _check_schema_version(meta: Dict, json_path: str) -> None:
    # v1 wrote the version under "schema"; v2+ use "schema_version".
    version = meta.get("schema_version", meta.get("schema"))
    if version is None:
        warnings.warn(
            f"checkpoint {json_path} has no schema_version; assuming a "
            f"pre-versioning (v1) layout",
            UserWarning,
            stacklevel=3,
        )
        return
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise CheckpointVersionError(
            f"checkpoint {json_path} has schema_version {version!r}; this "
            f"build supports {list(SUPPORTED_SCHEMA_VERSIONS)} — upgrade "
            f"the library or re-export the checkpoint"
        )


def load_state_arrays(npz_path: str) -> Dict[str, np.ndarray]:
    """The checkpoint's raw state dict."""
    with np.load(npz_path) as arrays:
        return {name: arrays[name] for name in arrays.files}


def load_checkpoint(
    path: str,
) -> Tuple[SwitchablePrecisionNetwork, SPNetConfig]:
    """Rebuild the model named by ``<base>.json`` and load ``<base>.npz``."""
    base = _base_path(path)
    json_path, npz_path = base + ".json", base + ".npz"
    with open(json_path) as handle:
        meta = json.load(handle)
    _check_schema_version(meta, json_path)
    config = SPNetConfig.from_dict(meta["config"])
    sp_net = build_sp_net(config)
    sp_net.load_state_dict(load_state_arrays(npz_path))
    return sp_net, config


# ----------------------------------------------------------------------
# Checkpoint -> engine materialization
# ----------------------------------------------------------------------
def make_controller(policy: str, slo_s: Optional[float] = None):
    """Instantiate a precision policy, wiring the SLO where it applies.

    The one place the "``slo`` needs ``slo_s``, everything else takes no
    arguments" convention lives; previously copied into every engine
    construction site.
    """
    from .policies import make_policy

    if policy == "slo":
        if slo_s is None:
            raise ValueError("policy 'slo' requires slo_s")
        return make_policy(policy, slo_s=slo_s)
    return make_policy(policy)


def build_engine(
    sp_net: SwitchablePrecisionNetwork,
    policy: str,
    latency_model,
    *,
    max_batch: int,
    slo_s: Optional[float] = None,
    batch_timeout_s: Optional[float] = None,
    tracer=None,
):
    """One engine + controller over an already-materialized network."""
    from ..obs.tracer import NULL_TRACER
    from .engine import InferenceEngine

    return InferenceEngine(
        sp_net,
        make_controller(policy, slo_s=slo_s),
        latency_model,
        max_batch=max_batch,
        batch_timeout_s=batch_timeout_s,
        tracer=NULL_TRACER if tracer is None else tracer,
    )


def materialize_engine(
    checkpoint: str,
    policy: str,
    latency_model,
    *,
    max_batch: int,
    slo_s: Optional[float] = None,
    batch_timeout_s: Optional[float] = None,
    tracer=None,
):
    """Checkpoint -> private network -> engine.

    :func:`repro.serve.cluster.make_fleet`'s registry-backed replica
    factory routes through here.  Each call loads a fresh,
    independently-owned network (the
    :meth:`~repro.serve.registry.ModelRegistry.materialize` contract).
    """
    sp_net, _ = load_checkpoint(checkpoint)
    return build_engine(
        sp_net,
        policy,
        latency_model,
        max_batch=max_batch,
        slo_s=slo_s,
        batch_timeout_s=batch_timeout_s,
        tracer=tracer,
    )
