"""Component registries: error paths, lazy resolution, declared names
matching what the defining modules implement."""

import pytest

from repro.api import registry as registry_module
from repro.api.registry import REGISTRIES, Registry, RegistryError, choices


class TestRegistryBasics:
    def test_decorator_registration_and_get(self):
        reg = Registry("widget")

        @reg.register("spinner")
        def make_spinner():
            return "spin"

        assert reg.get("spinner") is make_spinner
        assert "spinner" in reg
        assert reg.names() == ("spinner",)

    def test_duplicate_registration_raises(self):
        reg = Registry("widget")
        reg.register("x", object())
        with pytest.raises(RegistryError, match="already registered"):
            reg.register("x", object())

    def test_duplicate_lazy_registration_raises(self):
        reg = Registry("widget")
        reg.register_lazy("x", "json:loads")
        with pytest.raises(RegistryError, match="already registered"):
            reg.register_lazy("x", "json:dumps")

    def test_unknown_name_lists_available(self):
        reg = Registry("widget")
        reg.register("left", object())
        reg.register("right", object())
        with pytest.raises(RegistryError, match=r"left.*right"):
            reg.get("middle")

    def test_registry_error_is_key_error(self):
        reg = Registry("widget")
        with pytest.raises(KeyError):
            reg.get("nope")

    def test_lazy_entry_resolves_on_get_only(self):
        reg = Registry("widget")
        reg.register_lazy("loads", "json:loads")
        import json

        assert reg.get("loads") is json.loads

    def test_foreign_module_cannot_claim_lazy_entry(self):
        reg = Registry("widget")
        reg.register_lazy("loads", "json:loads")

        def outsider():
            pass

        outsider.__module__ = "somewhere.else"
        with pytest.raises(RegistryError, match="already registered"):
            reg.register("loads", outsider)

    def test_bad_lazy_spec_rejected(self):
        reg = Registry("widget")
        with pytest.raises(ValueError, match="module:attr"):
            reg.register_lazy("x", "no-colon-here")


class TestBuiltinsResolve:
    """Every lazily declared built-in must import and resolve."""

    @pytest.mark.parametrize("kind", sorted(REGISTRIES))
    def test_all_entries_resolve(self, kind):
        registry = REGISTRIES[kind]
        for name in registry.names():
            assert registry.get(name) is not None

    def test_every_registry_is_catalogued(self):
        # A Registry missing from REGISTRIES is invisible to the CLI,
        # config validation and the resolve test above.
        assert {
            obj for obj in vars(registry_module).values()
            if isinstance(obj, Registry)
        } <= set(REGISTRIES.values())

    def test_unknown_manifest_kind_rejected(self):
        with pytest.raises(KeyError, match="unknown registry"):
            choices("gadgets")


class TestManifestConsistency:
    """The names declared in repro.api.registry match what the defining
    modules actually implement, compared against independent evidence:
    the classes/functions defined in each module, and the scale dicts."""

    def test_every_policy_class_is_registered(self):
        import inspect

        from repro.api.registry import POLICIES
        from repro.serve import policies as module

        registered = {POLICIES.get(name) for name in POLICIES.names()}
        defined = {
            obj for obj in vars(module).values()
            if inspect.isclass(obj)
            and issubclass(obj, module.PrecisionController)
            and obj is not module.PrecisionController
        }
        assert defined == registered

    def test_every_router_class_is_registered(self):
        import inspect

        from repro.api.registry import ROUTERS
        from repro.serve import routing as module

        registered = {ROUTERS.get(name) for name in ROUTERS.names()}
        defined = {
            obj for obj in vars(module).values()
            if inspect.isclass(obj)
            and issubclass(obj, module.Router)
            and obj is not module.Router
        }
        assert defined == registered

    def test_every_scenario_function_is_registered(self):
        from repro.api.registry import SCENARIOS
        from repro.serve import simulator

        registered = {SCENARIOS.get(name) for name in SCENARIOS.names()}
        defined = {
            obj
            for name, obj in vars(simulator).items()
            if name.endswith("_gaps") and not name.startswith("_")
            and callable(obj)
        }
        assert defined == registered

    def test_serve_scales_match_simulator(self):
        from repro.serve.simulator import SERVE_SCALES

        assert set(choices("serve_scales")) == set(SERVE_SCALES)

    def test_scales_match_experiments_common(self):
        from repro.experiments.common import SCALES

        assert set(choices("scales")) == set(SCALES)

    def test_every_experiment_module_is_registered(self):
        import pkgutil

        import repro.experiments

        modules = {
            m.name for m in pkgutil.iter_modules(repro.experiments.__path__)
            if m.name.startswith(("fig", "table"))
        }
        assert modules == set(choices("experiments"))

    def test_every_model_factory_is_registered(self):
        import inspect

        import repro.nn.models as zoo
        from repro.api.registry import MODELS

        registered = {MODELS.get(name) for name in MODELS.names()}
        defined = {
            obj for name in zoo.__all__
            if inspect.isfunction(obj := getattr(zoo, name))
        }
        assert defined == registered

    def test_checkpoint_builders_view_tracks_registry(self):
        """Checkpoint model names are read from MODELS, so a model
        registered at runtime is checkpointable too."""
        from repro.api.registry import MODELS
        from repro.nn.models import resnet8
        from repro.serve.checkpoint import SPNetConfig, build_sp_net

        name = "test-late-resnet"
        with pytest.raises(ValueError, match="unknown model"):
            SPNetConfig(model=name)
        MODELS.register(name, resnet8)
        try:
            for model in choices("models"):
                assert SPNetConfig(model=model).model == model
            config = SPNetConfig(model=name, width_mult=0.25)
            assert build_sp_net(config).bit_widths == config.bit_widths
        finally:
            MODELS._entries.pop(name, None)

    def test_quantizer_entries_construct(self):
        from repro.quant.quantizers import Quantizer, make_quantizer

        for name in choices("quantizers"):
            assert isinstance(make_quantizer(name), Quantizer)

    def test_strategy_entries_are_strategies(self):
        from repro.api.registry import STRATEGIES
        from repro.baselines.spnets import METHODS
        from repro.core.cdt import SwitchableTrainingStrategy

        for name in choices("strategies"):
            assert STRATEGIES.get(name) is METHODS[name]
            assert isinstance(STRATEGIES.get(name).loss(1.0),
                              SwitchableTrainingStrategy)


class TestCustomComponentsFlowThrough:
    """A component registered at runtime is reachable via the old
    factory entry points — the registries are the source of truth."""

    def test_custom_policy_reachable_via_make_policy(self):
        from repro.api.registry import POLICIES
        from repro.serve.policies import StaticPolicy, make_policy

        name = "test-static-clone"
        assert name not in POLICIES

        @POLICIES.register(name)
        class CloneStatic(StaticPolicy):
            pass

        try:
            assert isinstance(make_policy(name), CloneStatic)
        finally:
            POLICIES._entries.pop(name, None)

    def test_custom_scenario_reachable_via_arrival_gaps(self):
        import numpy as np

        from repro.api.registry import SCENARIOS
        from repro.serve.simulator import _arrival_gaps

        name = "test-metronome"
        assert name not in SCENARIOS

        @SCENARIOS.register(name)
        def metronome(n, capacity_rps, rng):
            return np.full(n, 1.0 / capacity_rps)

        try:
            gaps = _arrival_gaps(name, 5, 10.0, np.random.default_rng(0))
            np.testing.assert_allclose(gaps, 0.1)
        finally:
            SCENARIOS._entries.pop(name, None)

    def test_policy_names_is_live_view(self):
        """A policy registered after import is a valid choice for
        ServeConfig: names are read from the registry, never snapshot."""
        from repro.api.config import ConfigError, ServeConfig
        from repro.api.registry import POLICIES
        from repro.serve.policies import StaticPolicy

        name = "test-late-policy"
        with pytest.raises(ConfigError, match="unknown policy"):
            ServeConfig(policy=name)

        @POLICIES.register(name)
        class Late(StaticPolicy):
            pass

        try:
            assert choices("policies")[-1] == name
            assert ServeConfig(policy=name).policy == name
        finally:
            POLICIES._entries.pop(name, None)
        assert name not in choices("policies")

    def test_scenario_names_is_live_view(self):
        import numpy as np

        from repro.api.config import ConfigError, ServeConfig
        from repro.api.registry import SCENARIOS

        name = "test-late-scenario"
        with pytest.raises(ConfigError, match="unknown value"):
            ServeConfig(scenario=name)

        @SCENARIOS.register(name)
        def late_gaps(n, capacity_rps, rng):
            return np.full(n, 1.0 / capacity_rps)

        try:
            assert choices("scenarios")[-1] == name
            assert ServeConfig(scenario=name).scenario == name
        finally:
            SCENARIOS._entries.pop(name, None)
        assert name not in choices("scenarios")

    def test_custom_scale_reachable_via_get_scale(self):
        import dataclasses

        from repro.api.registry import SCALES
        from repro.experiments.common import get_scale

        name = "test-nano"
        assert name not in SCALES
        nano = dataclasses.replace(get_scale("smoke"), name=name)
        SCALES.register(name, nano)
        try:
            assert get_scale(name) is nano
        finally:
            SCALES._entries.pop(name, None)
