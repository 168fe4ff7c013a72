"""Workload descriptors for the networks in the paper's hardware studies.

Fig. 5 benchmarks dataflows on AlexNet, VGG16, ResNet50 and MobileNetV2 —
here described layer-by-layer at ImageNet dimensions.  These are *shape*
descriptors only (no weights): dataflow search needs loop bounds, not
parameters.

:func:`extract_workloads` converts any live model from the zoo (e.g. an
SP-NAS-derived network) into the same descriptor form via one profiled
forward pass, which is how the end-to-end experiments (Figs. 6-7) hand
searched networks to AutoMapper.
"""

from __future__ import annotations

from typing import List

from ..api.registry import lookup
from ..nn.profile import profile_model
from .workload import ConvWorkload

__all__ = [
    "alexnet_workloads",
    "vgg16_workloads",
    "resnet50_workloads",
    "mobilenetv2_workloads",
    "extract_workloads",
    "network_by_name",
]


def alexnet_workloads(batch: int = 1, bits: int = 16) -> List[ConvWorkload]:
    """AlexNet [Krizhevsky et al. 2012] conv + FC layers (224x224 input)."""
    spec = [
        # name,     K,    C,   Y,  X,  R,  S, stride
        ("conv1", 96, 3, 55, 55, 11, 11, 4),
        ("conv2", 256, 96, 27, 27, 5, 5, 1),
        ("conv3", 384, 256, 13, 13, 3, 3, 1),
        ("conv4", 384, 384, 13, 13, 3, 3, 1),
        ("conv5", 256, 384, 13, 13, 3, 3, 1),
        ("fc6", 4096, 9216, 1, 1, 1, 1, 1),
        ("fc7", 4096, 4096, 1, 1, 1, 1, 1),
        ("fc8", 1000, 4096, 1, 1, 1, 1, 1),
    ]
    return [
        ConvWorkload(f"alexnet.{n}", batch, k, c, y, x, r, s, stride, 1, bits)
        for n, k, c, y, x, r, s, stride in spec
    ]


def vgg16_workloads(batch: int = 1, bits: int = 16) -> List[ConvWorkload]:
    """VGG16 [Simonyan & Zisserman 2014] conv + FC layers."""
    conv = [
        ("conv1_1", 64, 3, 224), ("conv1_2", 64, 64, 224),
        ("conv2_1", 128, 64, 112), ("conv2_2", 128, 128, 112),
        ("conv3_1", 256, 128, 56), ("conv3_2", 256, 256, 56),
        ("conv3_3", 256, 256, 56),
        ("conv4_1", 512, 256, 28), ("conv4_2", 512, 512, 28),
        ("conv4_3", 512, 512, 28),
        ("conv5_1", 512, 512, 14), ("conv5_2", 512, 512, 14),
        ("conv5_3", 512, 512, 14),
    ]
    layers = [
        ConvWorkload(f"vgg16.{n}", batch, k, c, hw, hw, 3, 3, 1, 1, bits)
        for n, k, c, hw in conv
    ]
    for n, k, c in [("fc6", 4096, 25088), ("fc7", 4096, 4096), ("fc8", 1000, 4096)]:
        layers.append(ConvWorkload(f"vgg16.{n}", batch, k, c, 1, 1, 1, 1, 1, 1, bits))
    return layers


def resnet50_workloads(batch: int = 1, bits: int = 16) -> List[ConvWorkload]:
    """ResNet-50 bottleneck layers (unique shapes, weighted by repeats).

    Repeated identical blocks produce identical workloads; we emit each
    repetition so network totals match the full model.
    """
    layers: List[ConvWorkload] = [
        ConvWorkload("resnet50.conv1", batch, 64, 3, 112, 112, 7, 7, 2, 1, bits)
    ]
    # (stage, in_ch, mid_ch, out_ch, spatial, blocks, first_stride)
    stages = [
        ("s2", 64, 64, 256, 56, 3, 1),
        ("s3", 256, 128, 512, 28, 4, 2),
        ("s4", 512, 256, 1024, 14, 6, 2),
        ("s5", 1024, 512, 2048, 7, 3, 2),
    ]
    for name, c_in, mid, c_out, hw, blocks, first_stride in stages:
        for b in range(blocks):
            stride = first_stride if b == 0 else 1
            cin = c_in if b == 0 else c_out
            in_hw = hw * stride
            layers.append(ConvWorkload(
                f"resnet50.{name}b{b}.conv1", batch, mid, cin, hw, hw, 1, 1,
                stride, 1, bits))
            layers.append(ConvWorkload(
                f"resnet50.{name}b{b}.conv2", batch, mid, mid, hw, hw, 3, 3,
                1, 1, bits))
            layers.append(ConvWorkload(
                f"resnet50.{name}b{b}.conv3", batch, c_out, mid, hw, hw, 1, 1,
                1, 1, bits))
            if b == 0:
                layers.append(ConvWorkload(
                    f"resnet50.{name}b{b}.down", batch, c_out, cin, hw, hw,
                    1, 1, stride, 1, bits))
    layers.append(
        ConvWorkload("resnet50.fc", batch, 1000, 2048, 1, 1, 1, 1, 1, 1, bits)
    )
    return layers


def mobilenetv2_workloads(batch: int = 1, bits: int = 16) -> List[ConvWorkload]:
    """MobileNetV2 at 224x224: expand / depthwise / project triples."""
    layers: List[ConvWorkload] = [
        ConvWorkload("mbv2.stem", batch, 32, 3, 112, 112, 3, 3, 2, 1, bits)
    ]
    # (t, c_out, n, s) as in the original paper.
    setting = [
        (1, 16, 1, 1), (6, 24, 2, 2), (6, 32, 3, 2), (6, 64, 4, 2),
        (6, 96, 3, 1), (6, 160, 3, 2), (6, 320, 1, 1),
    ]
    c_in, hw = 32, 112
    idx = 0
    for t, c_out, n, s in setting:
        for b in range(n):
            stride = s if b == 0 else 1
            hidden = c_in * t
            out_hw = hw // stride
            if t != 1:
                layers.append(ConvWorkload(
                    f"mbv2.b{idx}.expand", batch, hidden, c_in, hw, hw,
                    1, 1, 1, 1, bits))
            layers.append(ConvWorkload(
                f"mbv2.b{idx}.dw", batch, hidden, 1, out_hw, out_hw, 3, 3,
                stride, hidden, bits))
            layers.append(ConvWorkload(
                f"mbv2.b{idx}.project", batch, c_out, hidden, out_hw, out_hw,
                1, 1, 1, 1, bits))
            c_in, hw = c_out, out_hw
            idx += 1
    layers.append(ConvWorkload("mbv2.head", batch, 1280, 320, 7, 7, 1, 1, 1, 1, bits))
    layers.append(ConvWorkload("mbv2.fc", batch, 1000, 1280, 1, 1, 1, 1, 1, 1, bits))
    return layers


def extract_workloads(
    model, input_size: int, batch: int = 1, bits: int = 16,
    name: str = "model", in_channels: int = 3,
) -> List[ConvWorkload]:
    """Profile a live model and return its executed layers as workloads."""
    profiler = profile_model(model, input_size, in_channels)
    workloads = []
    for i, rec in enumerate(profiler.records):
        if rec.kind == "linear":
            workloads.append(ConvWorkload(
                f"{name}.fc{i}", batch, rec.out_channels, rec.in_channels,
                1, 1, 1, 1, 1, 1, bits))
        else:
            workloads.append(ConvWorkload(
                f"{name}.conv{i}", batch, rec.out_channels,
                rec.in_channels // rec.groups * (1 if rec.groups > 1 else 1)
                if rec.groups > 1 else rec.in_channels,
                rec.output_hw, rec.output_hw, rec.kernel_size, rec.kernel_size,
                rec.stride, rec.groups, bits))
    return workloads


def network_by_name(name: str, batch: int = 1, bits: int = 16):
    """Workloads for one of the Fig. 5 networks by name."""
    return lookup("networks", name.lower())(batch, bits)
