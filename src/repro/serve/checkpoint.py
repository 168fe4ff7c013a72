"""Checkpoint I/O for switchable-precision networks.

A checkpoint is two sibling files sharing one base path:

* ``<base>.npz``  — every parameter and buffer of the wrapped model,
  saved under its dotted ``state_dict`` name;
* ``<base>.json`` — metadata: a ``schema_version``, the candidate
  bit-width set, and the model factory configuration needed to rebuild
  an identical topology (:class:`SPNetConfig`).

``load_checkpoint`` rebuilds the model from the JSON config, loads the
arrays, and returns a :class:`~repro.quant.SwitchablePrecisionNetwork`
whose outputs match the saved network bit-for-bit at every candidate
bit-width — the property the serving layer depends on to swap models in
and out of memory without re-validation.

Versioning: checkpoints written by this build carry
``schema_version == 2``.  Version 1 (the previous ``"schema"`` key) and
unversioned pre-release checkpoints still load — the latter with a
:class:`UserWarning` — while a version from the future raises
:class:`CheckpointVersionError` instead of mis-parsing silently.

Model names resolve through :data:`repro.api.registry.MODELS`, plus the
special name ``"derived"``: an SP-NAS-searched architecture embedded in
the config's ``arch`` payload (search-space name, input size, per-layer
block specs), which makes pipeline checkpoints self-contained.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..api.registry import MODELS, SEARCH_SPACES
from ..quant import SwitchableFactory, SwitchablePrecisionNetwork
from ..quant.layers import BitSpec

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


@dataclass(frozen=True)
class SPNetConfig:
    """Everything needed to rebuild an SP-Net topology from scratch.

    ``bit_widths`` entries are ints or ``(weight_bits, activation_bits)``
    pairs, exactly as the quantisation layer accepts them.  ``model``
    names a registry entry, or ``"derived"`` with the searched
    architecture in ``arch`` (``{"space", "input_size", "specs"}``).
    """

    model: str = "mobilenet_v2"
    bit_widths: Tuple[BitSpec, ...] = (4, 8, 16)
    num_classes: int = 10
    width_mult: float = 1.0
    image_size: int = 16
    setting: str = "cifar"          # mobilenet_v2 only
    quantizer: str = "sbm"
    switchable_bn: bool = True
    activation: str = "relu6"
    arch: Optional[Dict] = None     # "derived" models only

    def __post_init__(self):
        if self.model == "derived":
            if not isinstance(self.arch, dict):
                raise ValueError(
                    "model 'derived' requires an arch payload "
                    "{'space', 'input_size', 'specs'}"
                )
            missing = {"space", "input_size", "specs"} - set(self.arch)
            if missing:
                raise ValueError(
                    f"derived arch payload missing keys {sorted(missing)}"
                )
            if self.arch["space"] not in SEARCH_SPACES:
                raise ValueError(
                    f"unknown search space {self.arch['space']!r}; "
                    f"available: {list(SEARCH_SPACES.names())}"
                )
        elif self.model not in MODELS:
            raise ValueError(
                f"unknown model {self.model!r}; available: "
                f"{list(MODELS.names()) + ['derived']}"
            )
        elif self.arch is not None:
            raise ValueError(
                f"arch payload is only valid with model 'derived', "
                f"got model {self.model!r}"
            )
        # Normalise list-of-lists (JSON round-trip) to the tuple forms
        # the quant layers key their candidate sets on.
        object.__setattr__(
            self, "bit_widths", _normalize_bit_widths(self.bit_widths)
        )

    def to_json_dict(self) -> Dict:
        payload = asdict(self)
        payload["bit_widths"] = [
            list(b) if isinstance(b, tuple) else b for b in self.bit_widths
        ]
        if payload["arch"] is None:
            del payload["arch"]
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "SPNetConfig":
        return cls(**payload)


def _normalize_bit_widths(bit_widths) -> Tuple[BitSpec, ...]:
    normalized = []
    for bits in bit_widths:
        if isinstance(bits, (list, tuple)):
            normalized.append((int(bits[0]), int(bits[1])))
        else:
            normalized.append(int(bits))
    return tuple(normalized)


def _build_derived_model(config: "SPNetConfig", factory):
    """Rebuild an SP-NAS architecture from its embedded arch payload."""
    from ..core.spnas.derive import DerivedNetwork
    from ..core.spnas.space import BlockSpec

    arch = config.arch
    space = SEARCH_SPACES.get(arch["space"])(int(arch["input_size"]))
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
        builder = MODELS.get(config.model)
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
        "config": config.to_json_dict(),
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
    config = SPNetConfig.from_json_dict(meta["config"])
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
