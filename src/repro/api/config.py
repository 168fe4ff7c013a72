"""Typed, validated configuration for the InstantNet pipeline.

One frozen dataclass per pipeline stage — :class:`ModelConfig`,
:class:`SearchConfig`, :class:`TrainConfig`, :class:`DeployConfig`,
:class:`ServeConfig` — composed into :class:`PipelineConfig`, the single
JSON-serialisable object behind ``repro pipeline run --config cfg.json``.

:class:`ModelConfig` is the one description of a switchable-precision
network: the pipeline's ``model`` section, the config embedded in every
checkpoint (``repro.serve.SPNetConfig`` is the same class) and the
model a serve scale simulates.

Every class round-trips losslessly: ``C.from_dict(c.to_dict()) == c``
and likewise through JSON text/files.  ``from_dict`` rejects unknown
keys (typo protection) and wrong-typed values with a
:class:`ConfigError` naming the config class, the offending key, and
the valid alternatives; name-valued fields (model, quantizer, policy,
scenario, device, search space, strategy) are validated against the
name tables of :mod:`repro.api.registry`, so a bad name fails at
*load* time, not three stages into a run.

This module stays stdlib-only so ``repro pipeline validate`` is cheap.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple, Union

from .registry import ConfigError, choices

__all__ = [
    "ConfigError",
    "ModelConfig",
    "SearchConfig",
    "TrainConfig",
    "DeployConfig",
    "ServeConfig",
    "PipelineConfig",
]

BitWidths = Tuple[Union[int, Tuple[int, int]], ...]


def _normalize_bit_widths(value: Any, owner: str) -> BitWidths:
    """Lists from JSON -> the tuple forms the quant layers key on."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(
            f"{owner}.bit_widths must be a non-empty list of ints or "
            f"[weight_bits, activation_bits] pairs, got {value!r}"
        )
    normalized = []
    for bits in value:
        if isinstance(bits, (list, tuple)):
            if len(bits) != 2:
                raise ConfigError(
                    f"{owner}.bit_widths pair must have exactly 2 entries, "
                    f"got {bits!r}"
                )
            normalized.append((int(bits[0]), int(bits[1])))
        elif isinstance(bits, bool) or not isinstance(bits, int):
            raise ConfigError(
                f"{owner}.bit_widths entries must be ints or pairs, "
                f"got {bits!r}"
            )
        else:
            normalized.append(int(bits))
    return tuple(normalized)


def _coerce(name: str, value: Any, default: Any, owner: str) -> Any:
    """Coerce a payload value to the field's type, inferred from its default."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(
                f"{owner}.{name} must be a bool, got {value!r}"
            )
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(
                f"{owner}.{name} must be an int, got {value!r}"
            )
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(
                f"{owner}.{name} must be a number, got {value!r}"
            )
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(
                f"{owner}.{name} must be a string, got {value!r}"
            )
        return value
    return value


class _StageConfig:
    """Shared to_dict/from_dict/JSON plumbing for the stage dataclasses.

    Subclasses declare ``_CHOICES`` (field name -> component kind) for
    name-valued fields, ``_EXTRA_CHOICES`` (field name -> names) for
    values a field accepts beyond its kind's table, and may override
    ``_validate`` for cross-field checks; all run in ``__post_init__``.
    ``_SECTIONS`` maps a field to the config class of its nested JSON
    section, and a section's ``_SECTION_KEYS`` renames its fields there
    (``None`` leaves one out).
    """

    _CHOICES: Dict[str, str] = {}
    _EXTRA_CHOICES: Dict[str, Tuple[str, ...]] = {}
    _SECTIONS: Dict[str, type] = {}
    _SECTION_KEYS: Dict[str, Optional[str]] = {}

    def __post_init__(self):
        cls = type(self).__name__
        if "bit_widths" in {f.name for f in fields(self)}:
            object.__setattr__(
                self, "bit_widths",
                _normalize_bit_widths(self.bit_widths, cls),
            )
        for name, family in self._CHOICES.items():
            value = getattr(self, name)
            valid = choices(family) + self._EXTRA_CHOICES.get(name, ())
            if value not in valid:
                raise ConfigError(
                    f"{cls}.{name}: unknown value {value!r}; "
                    f"available: {list(valid)}"
                )
        self._validate()

    def _validate(self) -> None:
        """Subclass hook for value-range and cross-field checks."""

    def _require_positive(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) <= 0:
                raise ConfigError(
                    f"{type(self).__name__}.{name} must be positive, "
                    f"got {getattr(self, name)!r}"
                )

    # -- serialisation -------------------------------------------------
    @classmethod
    def _keys(cls, section: bool) -> Dict[str, Any]:
        """JSON key -> field, standalone or as a section of a parent."""
        renames = cls._SECTION_KEYS if section else {}
        keys = {renames.get(f.name, f.name): f for f in fields(cls)}
        keys.pop(None, None)        # fields left out of the section
        return keys

    def to_dict(self, section: bool = False) -> Dict[str, Any]:
        """JSON-safe dict: tuples become lists, nested configs recurse."""
        payload: Dict[str, Any] = {}
        for key, f in self._keys(section).items():
            value = getattr(self, f.name)
            if isinstance(value, _StageConfig):
                value = value.to_dict(section=True)
            elif f.name == "bit_widths":
                value = [list(b) if isinstance(b, tuple) else b for b in value]
            payload[key] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Any, section: bool = False) -> "_StageConfig":
        if not isinstance(payload, dict):
            raise ConfigError(
                f"{cls.__name__} payload must be an object/dict, "
                f"got {payload!r}"
            )
        known = cls._keys(section)
        unknown = sorted(set(payload) - set(known))
        if unknown:
            raise ConfigError(
                f"{cls.__name__}: unknown key(s) {unknown}; "
                f"valid keys: {sorted(known)}"
            )
        kwargs: Dict[str, Any] = {}
        for key, value in payload.items():
            f = known[key]
            name = f.name
            default = (
                f.default if f.default is not dataclasses.MISSING
                else f.default_factory()
                if f.default_factory is not dataclasses.MISSING
                else None
            )
            if value is None:
                # null is only legal where the field's default is None
                # (optional sections like PipelineConfig.search/run_dir).
                if default is not None:
                    raise ConfigError(
                        f"{cls.__name__}.{key} must not be null"
                    )
                kwargs[name] = None
            elif name == "bit_widths":
                kwargs[name] = value
            elif name in cls._SECTIONS:
                kwargs[name] = cls._SECTIONS[name].from_dict(
                    value, section=True
                )
            else:
                kwargs[name] = _coerce(key, value, default, cls.__name__)
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "_StageConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from None
        return cls.from_dict(payload)

    def save(self, path: str) -> str:
        with open(path, "w") as handle:
            handle.write(self.to_json())
        return path

    @classmethod
    def load(cls, path: str) -> "_StageConfig":
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from None
        return cls.from_json(text)


@dataclass(frozen=True)
class ModelConfig(_StageConfig):
    """One switchable-precision network: topology, precision set, data shape.

    ``model`` is a model-zoo name, or ``"derived"`` for an
    SP-NAS-searched architecture whose ``arch`` payload (``{"space",
    "input_size", "specs"}``) the ``generate`` stage fills in.
    ``bit_widths`` entries are ints or ``(weight_bits, activation_bits)``
    pairs.  ``to_dict()`` is the checkpoint's JSON form (``arch`` only
    when set); the pipeline's ``model`` section spells ``model`` as
    ``name`` and has no ``arch``.
    """

    model: str = "mobilenet_v2"
    bit_widths: BitWidths = (4, 8, 16)
    num_classes: int = 10
    width_mult: float = 1.0
    image_size: int = 16
    setting: str = "cifar"            # mobilenet_v2 only
    quantizer: str = "sbm"
    switchable_bn: bool = True
    activation: str = "relu6"
    arch: Optional[Dict[str, Any]] = None   # "derived" models only

    _CHOICES = {"model": "models", "quantizer": "quantizers"}
    _EXTRA_CHOICES = {"model": ("derived",)}
    _SECTION_KEYS = {"model": "name", "arch": None}

    def _validate(self) -> None:
        self._require_positive("num_classes", "width_mult", "image_size")
        if self.activation not in ("relu", "relu6"):
            raise ConfigError(
                f"ModelConfig.activation must be 'relu' or 'relu6', "
                f"got {self.activation!r}"
            )
        if self.arch is not None and (
            self.model != "derived" or not isinstance(self.arch, dict)
        ):
            raise ConfigError(
                f"ModelConfig.arch is only valid with model 'derived', as "
                f"an object; got {self.arch!r} for model {self.model!r}"
            )

    def to_dict(self, section: bool = False) -> Dict[str, Any]:
        payload = super().to_dict(section)
        if self.arch is None:
            payload.pop("arch", None)
        return payload


@dataclass(frozen=True)
class SearchConfig(_StageConfig):
    """``generate`` stage: SP-NAS over a named search space."""

    space: str = "tiny"
    epochs: int = 1
    batch_size: int = 32
    samples: int = 256                # synthetic search-set size
    flops_target: float = 4e5
    lambda_eff: float = 1.0
    arch_bits: str = "lowest"
    weight_mode: str = "cdt"

    _CHOICES = {"space": "search_spaces"}

    def _validate(self) -> None:
        self._require_positive("epochs", "batch_size", "samples")
        if self.arch_bits not in ("lowest", "highest"):
            raise ConfigError(
                f"SearchConfig.arch_bits must be lowest|highest, "
                f"got {self.arch_bits!r}"
            )
        if self.weight_mode not in ("cdt", "highest", "lowest"):
            raise ConfigError(
                f"SearchConfig.weight_mode must be cdt|highest|lowest, "
                f"got {self.weight_mode!r}"
            )


@dataclass(frozen=True)
class TrainConfig(_StageConfig):
    """``train`` stage: switchable-precision training + evaluation."""

    method: str = "cdt"
    epochs: int = 2
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    beta: float = 1.0                 # distillation weight; adabits has none
    augment: bool = True
    train_samples: int = 256
    test_samples: int = 128
    difficulty: float = 2.0           # synthetic-data separability

    _CHOICES = {"method": "strategies"}

    def _validate(self) -> None:
        self._require_positive(
            "epochs", "batch_size", "lr", "train_samples", "test_samples"
        )


@dataclass(frozen=True)
class DeployConfig(_StageConfig):
    """``deploy`` stage: AutoMapper dataflow search per bit-width."""

    device: str = "eyeriss"
    metric: str = "edp"
    generations: int = 6
    pipeline: bool = False            # layer-pipelined execution style
    warm_start: bool = True
    batch: int = 1

    _CHOICES = {"device": "devices"}

    def _validate(self) -> None:
        self._require_positive("generations", "batch")
        if self.metric not in ("edp", "energy", "latency"):
            raise ConfigError(
                f"DeployConfig.metric must be edp|energy|latency, "
                f"got {self.metric!r}"
            )


@dataclass(frozen=True)
class ServeConfig(_StageConfig):
    """``serve`` stage: traffic replay against the inference engine.

    ``replicas > 1`` serves through a
    :class:`~repro.serve.cluster.ReplicaFleet` — engine replicas
    materialized from the stage's checkpoint behind the named
    ``router`` — instead of a single engine.  With ``replicas == 1``
    the fleet layer is skipped entirely and ``router`` is unused (use
    ``repro serve-sim --replicas 1`` to route through a single-replica
    fleet).
    """

    scenario: str = "bursty"
    policy: str = "all"
    num_requests: int = 240
    max_batch: int = 8
    slo_batches: float = 2.5          # SLO as multiples of one full batch
    mapper_generations: int = 3       # latency pricing when deploy skipped
    replicas: int = 1
    router: str = "least_queue"

    _CHOICES = {
        "scenario": "scenarios", "policy": "policies", "router": "routers",
    }
    _EXTRA_CHOICES = {"policy": ("all",)}

    def _validate(self) -> None:
        self._require_positive(
            "num_requests", "max_batch", "slo_batches", "mapper_generations",
            "replicas",
        )


@dataclass(frozen=True)
class PipelineConfig(_StageConfig):
    """The whole flow, generate -> train -> deploy -> serve, in one object.

    ``search=None`` skips architecture search: ``generate`` simply
    records the zoo model.  ``run_dir=None`` lets the runner derive
    ``runs/<name>``.
    """

    name: str = "pipeline"
    seed: int = 0
    run_dir: Optional[str] = None
    model: ModelConfig = ModelConfig()
    search: Optional[SearchConfig] = None
    train: TrainConfig = TrainConfig()
    deploy: DeployConfig = DeployConfig()
    serve: ServeConfig = ServeConfig()

    _SECTIONS = {
        "model": ModelConfig,
        "search": SearchConfig,
        "train": TrainConfig,
        "deploy": DeployConfig,
        "serve": ServeConfig,
    }

    def _validate(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError(
                f"PipelineConfig.name must be a non-empty string, "
                f"got {self.name!r}"
            )
        if self.run_dir is not None and not isinstance(self.run_dir, str):
            raise ConfigError(
                f"PipelineConfig.run_dir must be a string path or null, "
                f"got {self.run_dir!r}"
            )
        if self.model.model == "derived" and self.search is None:
            raise ConfigError(
                "PipelineConfig: model.name 'derived' requires a 'search' "
                "section (the generate stage produces the architecture)"
            )
        if self.search is not None and self.model.model != "derived":
            raise ConfigError(
                f"PipelineConfig: a 'search' section requires "
                f"model.name 'derived', got {self.model.model!r}"
            )
        if self.model.arch is not None:
            raise ConfigError(
                "PipelineConfig: model.arch is not configurable; the "
                "generate stage produces the architecture"
            )
