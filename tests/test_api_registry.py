"""Component name tables: every entry resolves, unknown names fail with
one error that lists the choices, and the declared names match what the
defining modules implement."""

import pytest

from repro.api import registry as registry_module
from repro.api.config import ConfigError, ServeConfig
from repro.api.registry import choices, lookup
from repro.experiments.common import get_scale
from repro.hardware.networks import network_by_name
from repro.quant.quantizers import make_quantizer
from repro.serve.checkpoint import SPNetConfig, build_sp_net
from repro.serve.policies import make_policy
from repro.serve.routing import make_router
from repro.serve.simulator import get_serve_scale

KINDS = sorted(registry_module._TABLES)
BAD = "no-such-name"


class TestBuiltinsResolve:
    """Every lazily declared built-in must import and resolve."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_all_entries_resolve(self, kind):
        for name in choices(kind):
            assert lookup(kind, name) is not None

    def test_unknown_manifest_kind_rejected(self):
        with pytest.raises(KeyError, match="gadgets"):
            choices("gadgets")


def _derived_with_unknown_space():
    arch = {"space": BAD, "input_size": 8, "specs": []}
    return build_sp_net(SPNetConfig(model="derived", arch=arch))


UNKNOWN_NAMES = [
    pytest.param(kind, lambda kind=kind: lookup(kind, BAD),
                 id=f"lookup-{kind}")
    for kind in KINDS
] + [
    pytest.param("models", lambda: SPNetConfig(model=BAD),
                 id="SPNetConfig-model"),
    pytest.param("policies", lambda: ServeConfig(policy=BAD),
                 id="ServeConfig-policy"),
    pytest.param("scenarios", lambda: ServeConfig(scenario=BAD),
                 id="ServeConfig-scenario"),
    pytest.param("quantizers", lambda: make_quantizer(BAD),
                 id="make_quantizer"),
    pytest.param("policies", lambda: make_policy(BAD), id="make_policy"),
    pytest.param("routers", lambda: make_router(BAD), id="make_router"),
    pytest.param("networks", lambda: network_by_name(BAD),
                 id="network_by_name"),
    pytest.param("scales", lambda: get_scale(BAD), id="get_scale"),
    pytest.param("serve_scales", lambda: get_serve_scale(BAD),
                 id="get_serve_scale"),
    pytest.param("search_spaces", _derived_with_unknown_space,
                 id="build_sp_net-derived-space"),
]


@pytest.mark.parametrize("kind, call", UNKNOWN_NAMES)
def test_unknown_name_raises_config_error_listing_every_choice(kind, call):
    with pytest.raises(ConfigError) as excinfo:
        call()
    message = str(excinfo.value)
    assert repr(BAD) in message
    for name in choices(kind):
        assert repr(name) in message


class TestManifestConsistency:
    """The names declared in repro.api.registry match what the defining
    modules actually implement, compared against independent evidence:
    the classes/functions defined in each module, and the scale dicts."""

    @staticmethod
    def _resolved(kind):
        return {lookup(kind, name) for name in choices(kind)}

    def test_every_policy_class_is_registered(self):
        import inspect

        from repro.serve import policies as module

        defined = {
            obj for obj in vars(module).values()
            if inspect.isclass(obj)
            and issubclass(obj, module.PrecisionController)
            and obj is not module.PrecisionController
        }
        assert defined == self._resolved("policies")

    def test_every_router_class_is_registered(self):
        import inspect

        from repro.serve import routing as module

        defined = {
            obj for obj in vars(module).values()
            if inspect.isclass(obj)
            and issubclass(obj, module.Router)
            and obj is not module.Router
        }
        assert defined == self._resolved("routers")

    def test_every_scenario_function_is_registered(self):
        from repro.serve import simulator

        defined = {
            obj
            for name, obj in vars(simulator).items()
            if name.endswith("_gaps") and not name.startswith("_")
            and callable(obj)
        }
        assert defined == self._resolved("scenarios")

    def test_every_workload_network_is_registered(self):
        from repro.hardware import networks as module

        defined = {
            obj for name, obj in vars(module).items()
            if name.endswith("_workloads") and name != "extract_workloads"
        }
        assert defined == self._resolved("networks")

    def test_serve_scales_match_simulator(self):
        from repro.serve.simulator import SERVE_SCALES

        assert set(choices("serve_scales")) == set(SERVE_SCALES)
        for name in choices("serve_scales"):
            assert lookup("serve_scales", name) is SERVE_SCALES[name]

    def test_scales_match_experiments_common(self):
        from repro.experiments.common import SCALES

        assert set(choices("scales")) == set(SCALES)
        for name in choices("scales"):
            assert lookup("scales", name) is SCALES[name]

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

        defined = {
            obj for name in zoo.__all__
            if inspect.isfunction(obj := getattr(zoo, name))
        }
        assert defined == self._resolved("models")

    def test_every_model_is_checkpointable(self):
        for model in choices("models"):
            assert SPNetConfig(model=model).model == model

    def test_quantizer_entries_construct(self):
        from repro.quant.quantizers import Quantizer

        for name in choices("quantizers"):
            assert isinstance(make_quantizer(name), Quantizer)

    def test_strategy_entries_are_strategies(self):
        from repro.baselines.spnets import METHODS
        from repro.core.cdt import SwitchableTrainingStrategy

        for name in choices("strategies"):
            assert lookup("strategies", name) is METHODS[name]
            assert isinstance(lookup("strategies", name).loss(1.0),
                              SwitchableTrainingStrategy)
