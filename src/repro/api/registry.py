"""Component registries: the one declaration of every built-in name.

Every pluggable component family in the reproduction — models,
quantisers, precision policies, routers, traffic scenarios, SP-NAS
search spaces, accelerator devices, training strategies, experiments
and scale presets — is
enumerated here, and only here.  Built-ins are declared lazily as
``"module:attr"`` strings, so importing this module imports no
subsystem: the CLI renders ``--help`` choices and ``repro pipeline
validate`` checks names without loading the model zoo, the quantisers
or the serving stack.  :meth:`Registry.get` imports a built-in on first
use and caches it.

Downstream code adds components at runtime with :meth:`Registry.register`::

    from repro.api.registry import SCENARIOS

    def lunch_rush_gaps(n, capacity_rps, rng):
        ...

    SCENARIOS.register("lunch-rush", lunch_rush_gaps)

A name is registered once; a duplicate raises :class:`RegistryError`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

__all__ = [
    "Registry",
    "RegistryError",
    "REGISTRIES",
    "choices",
    "MODELS",
    "QUANTIZERS",
    "POLICIES",
    "ROUTERS",
    "SCENARIOS",
    "SEARCH_SPACES",
    "DEVICES",
    "STRATEGIES",
    "EXPERIMENTS",
    "SCALES",
    "SERVE_SCALES",
]


class RegistryError(KeyError):
    """Unknown name or duplicate registration."""

    # KeyError.__str__ repr()s its single argument, which mangles the
    # multi-clause messages below; plain str keeps them readable.
    def __str__(self) -> str:
        return self.args[0] if self.args else ""


class _LazyEntry:
    """An unresolved pointer: ``module:attr`` plus an optional dict key."""

    __slots__ = ("spec", "key")

    def __init__(self, spec: str, key: Optional[str] = None):
        if ":" not in spec:
            raise ValueError(f"lazy spec must be 'module:attr', got {spec!r}")
        self.spec = spec
        self.key = key

    def resolve(self) -> Any:
        import importlib

        module_name, _, attr = self.spec.partition(":")
        module = importlib.import_module(module_name)
        obj = getattr(module, attr)
        if self.key is not None:
            obj = obj[self.key]
        return obj


class Registry:
    """Name -> component mapping.

    ``kind`` names the component family in error messages ("model",
    "policy", ...).  Entries are either concrete objects or
    :class:`_LazyEntry` pointers resolved on first :meth:`get`.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, Any] = {}

    # -- registration --------------------------------------------------
    def register(self, name: str, obj: Any = None):
        """Register ``obj`` under ``name`` and return it.

        Called as ``register(name)`` it returns a decorator instead.
        A name that is already registered raises :class:`RegistryError`.
        """
        if obj is None:
            return lambda target: self.register(name, target)
        self._insert(name, obj)
        return obj

    def register_lazy(
        self, name: str, spec: str, key: Optional[str] = None
    ) -> None:
        """Declare a built-in as ``"module:attr"`` without importing it."""
        self._insert(name, _LazyEntry(spec, key))

    def _insert(self, name: str, entry: Any) -> None:
        if name in self._entries:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered"
            )
        self._entries[name] = entry

    # -- lookup --------------------------------------------------------
    def get(self, name: str) -> Any:
        """Resolve ``name``; unknown names list the available choices."""
        try:
            entry = self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; available: "
                f"{list(self.names())}"
            ) from None
        if isinstance(entry, _LazyEntry):
            entry = self._entries[name] = entry.resolve()
        return entry

    def names(self) -> Tuple[str, ...]:
        """Registered names in registration order — no imports triggered."""
        return tuple(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {list(self.names())})"


# ----------------------------------------------------------------------
# Built-in declarations (import-free: strings only).
# tests/test_api_registry.py asserts every entry resolves and matches
# the defining module's own surface, so these cannot silently drift.
# ----------------------------------------------------------------------
MODELS = Registry("model")
MODELS.register_lazy("mobilenet_v2", "repro.nn.models:mobilenet_v2")
MODELS.register_lazy("resnet8", "repro.nn.models:resnet8")
MODELS.register_lazy("resnet18", "repro.nn.models:resnet18")
MODELS.register_lazy("resnet38", "repro.nn.models:resnet38")
MODELS.register_lazy("resnet74", "repro.nn.models:resnet74")

QUANTIZERS = Registry("quantizer")
QUANTIZERS.register_lazy("dorefa", "repro.quant.quantizers:DoReFaQuantizer")
QUANTIZERS.register_lazy("sbm", "repro.quant.quantizers:SBMQuantizer")

POLICIES = Registry("policy")
POLICIES.register_lazy("static", "repro.serve.policies:StaticPolicy")
POLICIES.register_lazy("slo", "repro.serve.policies:LatencySLOPolicy")
POLICIES.register_lazy("queue", "repro.serve.policies:QueueDepthPolicy")

ROUTERS = Registry("router")
ROUTERS.register_lazy("round_robin", "repro.serve.routing:RoundRobinRouter")
ROUTERS.register_lazy("least_queue", "repro.serve.routing:LeastQueueRouter")
ROUTERS.register_lazy(
    "latency_aware", "repro.serve.routing:LatencyAwareRouter"
)

SCENARIOS = Registry("scenario")
SCENARIOS.register_lazy("constant", "repro.serve.simulator:constant_gaps")
SCENARIOS.register_lazy("bursty", "repro.serve.simulator:bursty_gaps")
SCENARIOS.register_lazy("diurnal", "repro.serve.simulator:diurnal_gaps")

SEARCH_SPACES = Registry("search space")
SEARCH_SPACES.register_lazy("cifar", "repro.core.spnas.space:cifar_search_space")
SEARCH_SPACES.register_lazy("tiny", "repro.core.spnas.space:tiny_search_space")

DEVICES = Registry("device")
DEVICES.register_lazy("eyeriss", "repro.hardware.hierarchy:eyeriss_like_asic")
DEVICES.register_lazy("edge", "repro.hardware.hierarchy:edge_asic")
DEVICES.register_lazy("zc706", "repro.hardware.hierarchy:zc706_like_fpga")

# The switchable entries of the method table; "sbm" trains one net per
# bit-width, which a single pipeline checkpoint cannot hold.
STRATEGIES = Registry("training strategy")
STRATEGIES.register_lazy("cdt", "repro.baselines.spnets:METHODS", key="cdt")
STRATEGIES.register_lazy("sp", "repro.baselines.spnets:METHODS", key="sp")
STRATEGIES.register_lazy(
    "adabits", "repro.baselines.spnets:METHODS", key="adabits"
)

# One literal call per entry, so grep for an experiment name lands here.
EXPERIMENTS = Registry("experiment")
EXPERIMENTS.register_lazy("table1", "repro.experiments.table1:run")
EXPERIMENTS.register_lazy("table2", "repro.experiments.table2:run")
EXPERIMENTS.register_lazy("table3", "repro.experiments.table3:run")
EXPERIMENTS.register_lazy("table4", "repro.experiments.table4:run")
EXPERIMENTS.register_lazy("fig2", "repro.experiments.fig2:run")
EXPERIMENTS.register_lazy("fig4", "repro.experiments.fig4:run")
EXPERIMENTS.register_lazy("fig5", "repro.experiments.fig5:run")
EXPERIMENTS.register_lazy("fig6", "repro.experiments.fig6:run")
EXPERIMENTS.register_lazy("fig7", "repro.experiments.fig7:run")

SCALES = Registry("scale")
SCALES.register_lazy("smoke", "repro.experiments.common:SCALES", key="smoke")
SCALES.register_lazy(
    "default", "repro.experiments.common:SCALES", key="default"
)
SCALES.register_lazy("full", "repro.experiments.common:SCALES", key="full")

SERVE_SCALES = Registry("serve scale")
SERVE_SCALES.register_lazy(
    "smoke", "repro.serve.simulator:SERVE_SCALES", key="smoke"
)
SERVE_SCALES.register_lazy(
    "default", "repro.serve.simulator:SERVE_SCALES", key="default"
)

REGISTRIES: Dict[str, Registry] = {
    "models": MODELS,
    "quantizers": QUANTIZERS,
    "policies": POLICIES,
    "routers": ROUTERS,
    "scenarios": SCENARIOS,
    "search_spaces": SEARCH_SPACES,
    "devices": DEVICES,
    "strategies": STRATEGIES,
    "experiments": EXPERIMENTS,
    "scales": SCALES,
    "serve_scales": SERVE_SCALES,
}


def choices(kind: str) -> Tuple[str, ...]:
    """Names registered under one component family (e.g. ``"policies"``)."""
    try:
        return REGISTRIES[kind].names()
    except KeyError:
        raise KeyError(
            f"unknown registry {kind!r}; available: {sorted(REGISTRIES)}"
        ) from None
