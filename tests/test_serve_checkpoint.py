"""Checkpoint I/O + model registry: rebuild must be bit-for-bit."""

import os

import numpy as np
import pytest

from repro.api import ConfigError
from repro.serve import (
    ModelRegistry,
    SPNetConfig,
    build_sp_net,
    load_checkpoint,
    load_state_arrays,
    make_controller,
    materialize_engine,
    save_checkpoint,
)
from repro.tensor import Tensor, no_grad


def small_config(**overrides):
    base = dict(
        model="resnet8", bit_widths=(4, 8, 16), num_classes=3,
        width_mult=0.25, image_size=8,
    )
    base.update(overrides)
    return SPNetConfig(**base)


def outputs_at_every_bit(sp_net, x):
    sp_net.eval()
    with no_grad():
        return {bits: sp_net(Tensor(x), bits=bits).data.copy()
                for bits in sp_net.bit_widths}


class TestSPNetConfig:
    """The checkpoint's config is validated where it is read and built."""

    def test_json_round_trip_preserves_bit_pairs(self):
        cfg = small_config(bit_widths=(4, (2, 32), 8))
        again = SPNetConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.bit_widths == (4, (2, 32), 8)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match=r"ModelConfig\.model: unknown value"):
            small_config(model="transformer9000")

    def test_list_bit_widths_normalised(self):
        cfg = SPNetConfig(
            model="resnet8", bit_widths=[[2, 32], 8], num_classes=3,
        )
        assert cfg.bit_widths == ((2, 32), 8)

    # A derived config without its arch is valid (the pipeline fills
    # arch in after generate); building one is not.
    def test_derived_requires_arch_payload(self):
        with pytest.raises(ConfigError, match="requires an arch"):
            build_sp_net(small_config(model="derived"))

    def test_derived_arch_missing_keys_rejected(self):
        config = small_config(model="derived", arch={"space": "tiny"})
        with pytest.raises(ConfigError, match="missing keys"):
            build_sp_net(config)

    def test_derived_unknown_search_space_rejected(self):
        arch = {"space": "nowhere", "input_size": 8, "specs": []}
        config = small_config(model="derived", arch=arch)
        with pytest.raises(ConfigError, match="unknown search space"):
            build_sp_net(config)

    def test_arch_only_valid_for_derived(self):
        arch = {"space": "tiny", "input_size": 8, "specs": []}
        with pytest.raises(ValueError, match="only valid with model"):
            small_config(arch=arch)

    @pytest.mark.parametrize("key,value,match", [
        ("widht_mult", 0.5, r"unknown key\(s\) \['widht_mult'\]"),
        ("num_classes", "3", r"ModelConfig\.num_classes must be an int"),
        ("switchable_bn", 1, r"ModelConfig\.switchable_bn must be a bool"),
        ("activation", "gelu", r"ModelConfig\.activation must be"),
        ("quantizer", "fp4ever", r"ModelConfig\.quantizer: unknown value"),
        ("arch", [], r"ModelConfig\.arch is only valid"),
    ])
    def test_bad_config_fails_at_load_naming_the_key(
        self, tmp_path, key, value, match
    ):
        import json as json_mod

        _, json_path = _saved_checkpoint(tmp_path)
        with open(json_path) as handle:
            meta = json_mod.load(handle)
        meta["config"][key] = value
        _edit_meta(json_path, config=meta["config"])
        with pytest.raises(ConfigError, match=match):
            load_checkpoint(str(tmp_path / "m"))


class TestCheckpointRoundTrip:
    def test_bit_for_bit_at_every_bitwidth(self, tmp_path):
        cfg = small_config(bit_widths=(4, (2, 32), 8, 16))
        sp_net = build_sp_net(cfg)
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8)).astype(
            np.float32
        )
        before = outputs_at_every_bit(sp_net, x)

        npz_path, json_path = save_checkpoint(
            sp_net, cfg, str(tmp_path / "ckpt")
        )
        assert os.path.exists(npz_path) and os.path.exists(json_path)

        loaded, loaded_cfg = load_checkpoint(str(tmp_path / "ckpt"))
        assert loaded_cfg == cfg
        after = outputs_at_every_bit(loaded, x)
        for bits in sp_net.bit_widths:
            np.testing.assert_array_equal(before[bits], after[bits])

    def test_either_suffix_addresses_checkpoint(self, tmp_path):
        cfg = small_config()
        sp_net = build_sp_net(cfg)
        save_checkpoint(sp_net, cfg, str(tmp_path / "m.npz"))
        loaded, _ = load_checkpoint(str(tmp_path / "m.json"))
        assert loaded.bit_widths == sp_net.bit_widths

    def test_bad_schema_rejected(self, tmp_path):
        _, json_path = _saved_checkpoint(tmp_path)
        _edit_meta(json_path, schema_version=999)
        with pytest.raises(ValueError, match="schema"):
            load_checkpoint(str(tmp_path / "m"))


class TestStateArrays:
    def test_arrays_match_the_saved_state_dict(self, tmp_path):
        cfg = small_config()
        sp_net = build_sp_net(cfg)
        npz_path, _ = save_checkpoint(sp_net, cfg, str(tmp_path / "m"))
        state = sp_net.state_dict()
        arrays = load_state_arrays(npz_path)
        assert set(arrays) == set(state)
        for name, value in state.items():
            assert arrays[name].dtype == np.asarray(value).dtype
            np.testing.assert_array_equal(arrays[name], value)

    def test_arrays_are_read_eagerly_and_outlive_the_file(self, tmp_path):
        npz_path, _ = _saved_checkpoint(tmp_path)
        arrays = load_state_arrays(npz_path)
        again = {k: v.copy() for k, v in load_state_arrays(npz_path).items()}
        os.remove(npz_path)
        for name, array in arrays.items():
            assert array.flags.writeable
            np.testing.assert_array_equal(array, again[name])

    def test_metadata_records_config_and_counts(self, tmp_path):
        import json as json_mod

        cfg = small_config(bit_widths=(4, (2, 32), 8))
        sp_net = build_sp_net(cfg)
        _, json_path = save_checkpoint(sp_net, cfg, str(tmp_path / "m"))
        with open(json_path) as handle:
            meta = json_mod.load(handle)
        assert meta["config"] == cfg.to_dict()
        assert meta["num_arrays"] == len(sp_net.state_dict())
        assert meta["num_parameters"] == sp_net.num_parameters()


def _saved_checkpoint(tmp_path):
    cfg = small_config()
    sp_net = build_sp_net(cfg)
    return save_checkpoint(sp_net, cfg, str(tmp_path / "m"))


def _edit_meta(json_path, **changes):
    import json as json_mod

    with open(json_path) as handle:
        meta = json_mod.load(handle)
    for key, value in changes.items():
        if value is None:
            meta.pop(key, None)
        else:
            meta[key] = value
    with open(json_path, "w") as handle:
        json_mod.dump(meta, handle)


class TestSchemaVersioning:
    """schema_version gating: current + v1 load, future fails, legacy warns."""

    def test_current_version_written_and_loads_silently(
        self, tmp_path, recwarn
    ):
        import json as json_mod

        from repro.serve import CHECKPOINT_SCHEMA_VERSION

        _, json_path = _saved_checkpoint(tmp_path)
        with open(json_path) as handle:
            meta = json_mod.load(handle)
        assert meta["schema_version"] == CHECKPOINT_SCHEMA_VERSION
        load_checkpoint(str(tmp_path / "m"))
        assert not [w for w in recwarn if "schema" in str(w.message)]

    def test_v1_schema_key_still_loads(self, tmp_path):
        _, json_path = _saved_checkpoint(tmp_path)
        _edit_meta(json_path, schema_version=None, schema=1)
        loaded, _ = load_checkpoint(str(tmp_path / "m"))
        assert loaded.bit_widths == (4, 8, 16)

    def test_future_version_raises_checkpoint_version_error(self, tmp_path):
        from repro.serve import CheckpointVersionError

        _, json_path = _saved_checkpoint(tmp_path)
        _edit_meta(json_path, schema_version=99)
        with pytest.raises(CheckpointVersionError, match="schema_version 99"):
            load_checkpoint(str(tmp_path / "m"))

    def test_unversioned_checkpoint_warns_but_loads(self, tmp_path):
        _, json_path = _saved_checkpoint(tmp_path)
        _edit_meta(json_path, schema_version=None, schema=None)
        with pytest.warns(UserWarning, match="no schema_version"):
            loaded, _ = load_checkpoint(str(tmp_path / "m"))
        assert loaded.bit_widths == (4, 8, 16)


class TestModelRegistry:
    def test_register_get_names(self):
        reg = ModelRegistry()
        cfg = small_config()
        sp_net = build_sp_net(cfg)
        reg.register("prod", sp_net, cfg)
        assert reg.get("prod") is sp_net
        assert reg.config("prod") == cfg
        assert reg.names() == ["prod"]
        assert "prod" in reg and len(reg) == 1

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            ModelRegistry().get("nope")

    def test_invalid_name_rejected(self):
        cfg = small_config()
        sp_net = build_sp_net(cfg)
        for bad in ("a/b", "", ".", "..", "model.json", "weights.npz"):
            with pytest.raises(ValueError):
                ModelRegistry().register(bad, sp_net, cfg)

    def test_save_requires_root(self):
        reg = ModelRegistry()
        cfg = small_config()
        reg.register("m", build_sp_net(cfg), cfg)
        with pytest.raises(ValueError):
            reg.save("m")

    def test_incomplete_checkpoint_not_listed(self, tmp_path):
        """A stray .json without its .npz must not be claimed loadable."""
        root = tmp_path / "models"
        root.mkdir()
        (root / "orphan.json").write_text("{}")
        reg = ModelRegistry(str(root))
        assert reg.names() == []
        assert "orphan" not in reg
        with pytest.raises(KeyError):
            reg.get("orphan")

    def test_persist_evict_reload_bit_for_bit(self, tmp_path):
        cfg = small_config()
        sp_net = build_sp_net(cfg)
        x = np.random.default_rng(1).normal(size=(2, 3, 8, 8)).astype(
            np.float32
        )
        before = outputs_at_every_bit(sp_net, x)

        reg = ModelRegistry(str(tmp_path / "models"))
        reg.register("prod", sp_net, cfg, persist=True)
        assert reg.evict("prod")
        assert not reg.evict("prod")
        assert reg.names() == ["prod"]  # checkpoint still listed

        reloaded = reg.get("prod")
        assert reloaded is not sp_net
        after = outputs_at_every_bit(reloaded, x)
        for bits in sp_net.bit_widths:
            np.testing.assert_array_equal(before[bits], after[bits])


class TestMaterializeEngine:
    """checkpoint -> engine: the path the registry-backed fleet takes."""

    def _latency_model(self):
        from repro.serve.engine import BitLatencyModel

        return BitLatencyModel(
            {4: 0.001, 8: 0.002, 16: 0.004}, batch_overhead_s=0.004
        )

    def test_engine_serves_checkpointed_weights(self, tmp_path):
        cfg = small_config()
        sp_net = build_sp_net(cfg)
        x = np.random.default_rng(3).normal(size=(1, 3, 8, 8)).astype(
            np.float32
        )
        expected = outputs_at_every_bit(sp_net, x)
        npz_path, _ = save_checkpoint(sp_net, cfg, str(tmp_path / "m"))
        engine = materialize_engine(
            npz_path, "static", self._latency_model(),
            max_batch=4,
        )
        got = outputs_at_every_bit(engine.sp_net, x)
        for bits in sp_net.bit_widths:
            np.testing.assert_array_equal(expected[bits], got[bits])

    def test_materialize_wires_policy_and_knobs(self, tmp_path):
        npz_path, _ = _saved_checkpoint(tmp_path)
        engine = materialize_engine(
            npz_path, "slo", self._latency_model(),
            max_batch=4, slo_s=0.05, batch_timeout_s=0.01,
        )
        assert engine.max_batch == 4
        assert engine.batch_timeout_s == 0.01

    def test_slo_policy_requires_slo_s(self):
        with pytest.raises(ValueError, match="slo"):
            make_controller("slo")

    def test_make_controller_builds_each_policy(self):
        from repro.serve import (
            LatencySLOPolicy,
            QueueDepthPolicy,
            StaticPolicy,
        )

        assert isinstance(make_controller("static"), StaticPolicy)
        assert isinstance(make_controller("queue"), QueueDepthPolicy)
        slo = make_controller("slo", slo_s=0.05)
        assert isinstance(slo, LatencySLOPolicy)
        assert slo.slo_s == 0.05

    def test_each_engine_owns_a_private_network(self, tmp_path):
        npz_path, _ = _saved_checkpoint(tmp_path)
        a, b = (
            materialize_engine(
                npz_path, "static", self._latency_model(), max_batch=4
            )
            for _ in range(2)
        )
        assert a.sp_net is not b.sp_net
        x = np.random.default_rng(4).normal(size=(1, 3, 8, 8)).astype(
            np.float32
        )
        expected = outputs_at_every_bit(b.sp_net, x)
        for param in a.sp_net.parameters():
            param.data[...] = 0.0
        got = outputs_at_every_bit(b.sp_net, x)
        for bits in b.sp_net.bit_widths:
            np.testing.assert_array_equal(expected[bits], got[bits])
