"""Typed pipeline configs: lossless round-trips + helpful load errors."""

import dataclasses

import pytest

from repro.api.config import (
    ConfigError,
    DeployConfig,
    ModelConfig,
    PipelineConfig,
    SearchConfig,
    ServeConfig,
    TrainConfig,
)

ALL_CONFIG_CLASSES = (
    ModelConfig, SearchConfig, TrainConfig, DeployConfig, ServeConfig,
    PipelineConfig,
)

NON_DEFAULT = {
    ModelConfig: dict(
        model="resnet8", bit_widths=((2, 32), 8), num_classes=3,
        width_mult=0.5, image_size=8, quantizer="dorefa",
        switchable_bn=False, activation="relu",
    ),
    SearchConfig: dict(
        space="cifar", epochs=3, batch_size=8, samples=64,
        flops_target=1e5, lambda_eff=0.25, arch_bits="highest",
        weight_mode="lowest",
    ),
    TrainConfig: dict(
        method="adabits", epochs=1, batch_size=8, lr=0.1, beta=0.5,
        augment=False, train_samples=32, test_samples=16, difficulty=1.5,
    ),
    DeployConfig: dict(
        device="zc706", metric="latency", generations=2, pipeline=True,
        warm_start=False, batch=4,
    ),
    ServeConfig: dict(
        scenario="diurnal", policy="queue", num_requests=32, max_batch=4,
        slo_batches=1.5, mapper_generations=2, replicas=3,
        router="latency_aware",
    ),
    PipelineConfig: dict(
        name="trip", seed=7, run_dir="runs/elsewhere",
        model=ModelConfig(model="resnet8", num_classes=3),
        train=TrainConfig(epochs=1),
    ),
}


class TestRoundTrips:
    @pytest.mark.parametrize("cls", ALL_CONFIG_CLASSES)
    def test_default_dict_round_trip(self, cls):
        config = cls()
        assert cls.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("cls", ALL_CONFIG_CLASSES)
    def test_non_default_dict_round_trip(self, cls):
        config = cls(**NON_DEFAULT[cls])
        again = cls.from_dict(config.to_dict())
        assert again == config

    @pytest.mark.parametrize("cls", ALL_CONFIG_CLASSES)
    def test_json_text_round_trip(self, cls):
        config = cls(**NON_DEFAULT[cls])
        assert cls.from_json(config.to_json()) == config

    def test_file_round_trip(self, tmp_path):
        config = PipelineConfig(**NON_DEFAULT[PipelineConfig])
        path = config.save(str(tmp_path / "cfg.json"))
        assert PipelineConfig.load(path) == config

    def test_bit_width_pairs_survive_json(self):
        config = ModelConfig(bit_widths=(4, (2, 32), 8))
        again = ModelConfig.from_json(config.to_json())
        assert again.bit_widths == (4, (2, 32), 8)

    def test_nested_search_section_round_trips(self):
        config = PipelineConfig(
            model=ModelConfig(model="derived"),
            search=SearchConfig(space="tiny", epochs=2),
        )
        again = PipelineConfig.from_dict(config.to_dict())
        assert again == config
        assert isinstance(again.search, SearchConfig)


class TestLoadErrors:
    def test_unknown_key_names_it_and_lists_valid_keys(self):
        with pytest.raises(ConfigError, match=r"epohcs.*epochs"):
            TrainConfig.from_dict({"epohcs": 3})

    def test_unknown_nested_key_names_owner_class(self):
        with pytest.raises(ConfigError, match="ModelConfig"):
            PipelineConfig.from_dict({"model": {"nam": "resnet8"}})

    @pytest.mark.parametrize("payload,match", [
        ({"epochs": "three"}, "must be an int"),
        ({"epochs": 1.5}, "must be an int"),
        ({"augment": 1}, "must be a bool"),
        ({"lr": "fast"}, "must be a number"),
        ({"method": 4}, "must be a string"),
    ])
    def test_wrong_types_rejected(self, payload, match):
        with pytest.raises(ConfigError, match=match):
            TrainConfig.from_dict(payload)

    @pytest.mark.parametrize("cls,field,value", [
        (ModelConfig, "quantizer", "fp4ever"),
        (ModelConfig, "model", "transformer9000"),
        (SearchConfig, "space", "galaxy"),
        (TrainConfig, "method", "alchemy"),
        (DeployConfig, "device", "tpu"),
        (ServeConfig, "scenario", "flashmob"),
        (ServeConfig, "policy", "yolo"),
        (ServeConfig, "router", "dice"),
    ])
    def test_unknown_names_list_available(self, cls, field, value):
        with pytest.raises(ConfigError, match="available"):
            cls(**{field: value})

    @pytest.mark.parametrize("cls,field", [
        (TrainConfig, "epochs"),
        (ServeConfig, "num_requests"),
        (ServeConfig, "replicas"),
        (DeployConfig, "generations"),
        (ModelConfig, "image_size"),
    ])
    def test_non_positive_rejected(self, cls, field):
        with pytest.raises(ConfigError, match="must be positive"):
            cls(**{field: 0})

    @pytest.mark.parametrize("cls,kwargs,match", [
        (ModelConfig, {"bit_widths": (4, "8")}, "ints or pairs"),
        (ModelConfig, {"bit_widths": (True,)}, "ints or pairs"),
        (ModelConfig, {"activation": "gelu"}, "relu6"),
        (SearchConfig, {"arch_bits": "middle"}, "lowest|highest"),
        (SearchConfig, {"weight_mode": "random"}, "cdt|highest|lowest"),
        (DeployConfig, {"metric": "throughput"}, "edp|energy|latency"),
        (PipelineConfig, {"name": ""}, "non-empty string"),
        (PipelineConfig, {"run_dir": 3}, "string path or null"),
    ])
    def test_out_of_range_values_rejected(self, cls, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            cls(**kwargs)

    def test_empty_bit_widths_rejected(self):
        with pytest.raises(ConfigError, match="bit_widths"):
            ModelConfig(bit_widths=())

    def test_malformed_bit_pair_rejected(self):
        with pytest.raises(ConfigError, match="exactly 2"):
            ModelConfig(bit_widths=((4, 8, 16),))

    def test_null_in_required_field_rejected_at_load(self):
        with pytest.raises(ConfigError, match="epochs must not be null"):
            TrainConfig.from_dict({"epochs": None})

    def test_null_allowed_only_for_optional_fields(self):
        config = PipelineConfig.from_dict({"search": None, "run_dir": None})
        assert config.search is None and config.run_dir is None

    def test_non_string_run_dir_rejected_at_load(self):
        with pytest.raises(ConfigError, match="run_dir"):
            PipelineConfig.from_dict({"run_dir": 123})

    def test_non_dict_payload_rejected(self):
        with pytest.raises(ConfigError, match="object/dict"):
            ModelConfig.from_dict([1, 2, 3])

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            PipelineConfig.from_json("{nope")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            PipelineConfig.load(str(tmp_path / "missing.json"))


class TestPipelineCrossValidation:
    def test_derived_model_requires_search_section(self):
        with pytest.raises(ConfigError, match="requires a 'search'"):
            PipelineConfig(model=ModelConfig(model="derived"))

    def test_search_section_requires_derived_model(self):
        with pytest.raises(ConfigError, match="model.name 'derived'"):
            PipelineConfig(
                model=ModelConfig(model="resnet8", num_classes=3),
                search=SearchConfig(),
            )

    def test_replace_keeps_validation(self):
        config = PipelineConfig()
        with pytest.raises(ConfigError):
            dataclasses.replace(config, serve=ServeConfig(policy="nope"))

    def test_example_smoke_config_is_valid(self):
        from pathlib import Path

        example = (
            Path(__file__).resolve().parent.parent
            / "examples" / "pipeline_smoke.json"
        )
        config = PipelineConfig.load(str(example))
        assert config.model.model == "derived"
        assert config.search is not None
        assert PipelineConfig.from_dict(config.to_dict()) == config


class TestOneModelDescription:
    """The pipeline's model section, the checkpoint config and the serve
    scale's model are one class with two JSON forms."""

    def test_checkpoint_config_is_the_pipeline_model_config(self):
        from repro import api, serve

        assert api.ModelConfig is serve.SPNetConfig

    def test_pipeline_section_spells_model_as_name(self):
        payload = PipelineConfig(
            model=ModelConfig(model="resnet8", num_classes=3)
        ).to_dict()
        assert payload["model"]["name"] == "resnet8"
        assert "model" not in payload["model"]
        assert "arch" not in payload["model"]
        assert ModelConfig(model="resnet8").to_dict()["model"] == "resnet8"

    @pytest.mark.parametrize("key,value", [
        ("arch", {"space": "tiny", "input_size": 8, "specs": []}),
        ("model", "resnet8"),
    ])
    def test_pipeline_section_rejects_checkpoint_only_keys(self, key, value):
        match = rf"unknown key\(s\) \['{key}'\]"
        with pytest.raises(ConfigError, match=match):
            PipelineConfig.from_dict({"model": {key: value}})

    def test_pipeline_rejects_a_preset_arch(self):
        arch = {"space": "tiny", "input_size": 8, "specs": []}
        with pytest.raises(ConfigError, match="model.arch"):
            PipelineConfig(
                model=ModelConfig(model="derived", arch=arch),
                search=SearchConfig(),
            )

    def test_derived_without_arch_is_a_valid_config(self):
        assert ModelConfig(model="derived").arch is None
