"""Byte pins for the two JSON forms of the model description.

A checkpoint's ``<base>.json`` and a pipeline config's ``to_json()``
are read by other tools and by older checkpoints' loaders, so their
bytes, not just their parsed values, must stay fixed.  The expected
files under ``tests/fixtures/golden/`` were written by the code these
tests guard; a diff here is a format change, not a refactor.
"""

from pathlib import Path

import pytest

from repro.api import PipelineConfig
from repro.serve import SPNetConfig, build_sp_net, save_checkpoint

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "golden"

DERIVED_ARCH = {
    "space": "tiny",
    "input_size": 8,
    "specs": [
        {"kind": "mbconv", "expansion": 3, "kernel_size": 5},
        {"kind": "skip", "expansion": 1, "kernel_size": 3},
        {"kind": "mbconv", "expansion": 1, "kernel_size": 3},
        {"kind": "skip", "expansion": 1, "kernel_size": 3},
        {"kind": "mbconv", "expansion": 6, "kernel_size": 3},
        {"kind": "skip", "expansion": 1, "kernel_size": 3},
    ],
}

CHECKPOINT_CONFIGS = {
    "zoo": dict(
        model="resnet8", bit_widths=(4, (2, 32), 8), num_classes=3,
        width_mult=0.25, image_size=8,
    ),
    "derived": dict(
        model="derived", bit_widths=(4, 8), num_classes=4, image_size=8,
        arch=DERIVED_ARCH,
    ),
}


@pytest.mark.parametrize("kind", sorted(CHECKPOINT_CONFIGS))
def test_checkpoint_json_bytes(kind, tmp_path):
    config = SPNetConfig(**CHECKPOINT_CONFIGS[kind])
    _, json_path = save_checkpoint(
        build_sp_net(config), config, str(tmp_path / kind)
    )
    expected = (GOLDEN / f"checkpoint_{kind}.json").read_bytes()
    assert Path(json_path).read_bytes() == expected


def test_pipeline_smoke_config_json_bytes():
    config = PipelineConfig.load(str(ROOT / "examples" / "pipeline_smoke.json"))
    expected = (GOLDEN / "pipeline_smoke_config.json").read_text()
    assert config.to_json() == expected
