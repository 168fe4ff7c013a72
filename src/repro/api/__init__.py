"""Unified library API: typed configs, component name tables, pipeline.

The stable programmatic surface of the reproduction::

    from repro.api import PipelineConfig, run_pipeline

    config = PipelineConfig.load("examples/pipeline_smoke.json")
    result = run_pipeline(config, run_dir="runs/demo")

Three layers:

* :mod:`repro.api.config` — frozen dataclass configs with lossless
  dict/JSON round-trips and helpful unknown-key / bad-value errors;
* :mod:`repro.api.registry` — one fixed name table per component kind
  (models, quantizers, policies, routers, scenarios, search spaces,
  devices, networks, strategies, experiments, scales) of lazy
  ``module:attr`` pointers: :func:`repro.api.registry.choices` lists a
  kind's names without importing any subsystem, and
  :func:`repro.api.registry.lookup` imports one entry;
* :mod:`repro.api.pipeline` — the generate -> train -> deploy -> serve
  orchestrator chaining stages through on-disk artifacts.

Attribute access is lazy (PEP 562): ``import repro.api`` costs nothing,
and the CLI pulls only the name tables until a pipeline actually runs.
"""

from __future__ import annotations

_CONFIG_EXPORTS = {
    "ConfigError", "ModelConfig", "SearchConfig", "TrainConfig",
    "DeployConfig", "ServeConfig", "PipelineConfig",
}
_REGISTRY_EXPORTS = {"choices", "lookup"}
_PIPELINE_EXPORTS = {
    "Pipeline", "PipelineError", "PipelineResult", "STAGES", "run_pipeline",
}

__all__ = sorted(
    _CONFIG_EXPORTS | _REGISTRY_EXPORTS | _PIPELINE_EXPORTS
)


def __getattr__(name: str):
    if name in _CONFIG_EXPORTS:
        from . import config as module
    elif name in _REGISTRY_EXPORTS:
        from . import registry as module
    elif name in _PIPELINE_EXPORTS:
        from . import pipeline as module
    else:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return __all__
