"""Procedurally generated image-classification datasets.

The paper evaluates on CIFAR-10/100, TinyImageNet and ImageNet, none of
which are downloadable in this offline environment.  This module
substitutes them: its factories generate *class-conditional synthetic
images* at CPU-sized resolutions and sample counts, with the properties
the algorithms actually depend on:

* each class has a smooth spatial "prototype" texture (low-pass-filtered
  noise), so convolutional features are genuinely useful;
* instances vary by random cyclic shifts, per-sample contrast and additive
  noise, so the task is non-trivial and regularisation matters;
* a ``difficulty`` knob scales instance noise, so accuracy sits in a
  useful range (not saturated at 100%) where quantisation damage — the
  quantity every CDT table measures — is visible.

Prototypes are derived from the global seed + dataset name only, so train
and test splits of the same dataset share classes while drawing disjoint
instance noise.  Their low-pass filter is a wrap-mode Gaussian written
in numpy that reproduces ``scipy.ndimage.gaussian_filter(..., mode="wrap")``
bit for bit, so the package needs no scipy at run time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import rng as rng_mod
from .dataset import ArrayDataset

__all__ = [
    "SyntheticSpec",
    "make_synthetic",
    "cifar10_like",
    "cifar100_like",
    "tinyimagenet_like",
    "imagenet_like",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a synthetic dataset family."""

    name: str
    num_classes: int
    image_size: int
    channels: int = 3
    smoothness: float = 2.0  # gaussian filter sigma for prototypes
    difficulty: float = 1.0  # scales instance noise
    max_shift: int = 4       # cyclic translation range (+/- pixels)


def _gaussian_wrap(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of a ``(N, C, H, W)`` batch over H then W, with
    circular edges.

    Equals ``scipy.ndimage.gaussian_filter(x, (0, 0, sigma, sigma),
    mode="wrap")`` bit for bit: the same kernel (truncated at 4 sigma,
    normalised), and the same symmetric summation order, centre tap
    first and then each mirrored pair from the outermost tap inward.
    """
    if sigma <= 1e-15:  # scipy skips such an axis
        return x
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    weights = weights / weights.sum()
    for axis in (2, 3):
        out = x * weights[radius]
        for j in range(radius, 0, -1):
            out += (np.roll(x, j, axis) + np.roll(x, -j, axis)) * weights[radius - j]
        x = out
    return x


def _make_prototypes(spec: SyntheticSpec) -> np.ndarray:
    """One smooth random texture per class, unit-normalised per channel."""
    rng = rng_mod.spawn_rng(f"{spec.name}-prototypes")
    raw = rng.normal(
        size=(spec.num_classes, spec.channels, spec.image_size, spec.image_size)
    )
    smooth = _gaussian_wrap(raw, spec.smoothness)
    flat = smooth.reshape(spec.num_classes, spec.channels, -1)
    std = flat.std(axis=-1, keepdims=True)
    std[std == 0] = 1.0
    smooth = (flat / std).reshape(smooth.shape)
    return smooth.astype(np.float32)


def make_synthetic(spec: SyntheticSpec, num_samples: int, split: str) -> ArrayDataset:
    """Generate ``num_samples`` labelled images for the given split.

    ``split`` ("train"/"test"/...) selects the instance-noise stream;
    prototypes are shared across splits.
    """
    prototypes = _make_prototypes(spec)
    rng = rng_mod.spawn_rng(f"{spec.name}-{split}")
    labels = rng.integers(0, spec.num_classes, size=num_samples)
    shifts_y = rng.integers(-spec.max_shift, spec.max_shift + 1, size=num_samples)
    shifts_x = rng.integers(-spec.max_shift, spec.max_shift + 1, size=num_samples)
    contrast = rng.uniform(0.7, 1.3, size=num_samples).astype(np.float32)
    noise_scale = 0.55 * spec.difficulty
    images = np.empty(
        (num_samples, spec.channels, spec.image_size, spec.image_size),
        dtype=np.float32,
    )
    for i in range(num_samples):
        base = np.roll(
            prototypes[labels[i]], (int(shifts_y[i]), int(shifts_x[i])), axis=(1, 2)
        )
        noise = rng.normal(0.0, noise_scale, size=base.shape).astype(np.float32)
        images[i] = contrast[i] * base + noise
    return ArrayDataset(images, labels)


def cifar10_like(
    num_train: int = 2048,
    num_test: int = 512,
    image_size: int = 16,
    difficulty: float = 1.0,
):
    """CIFAR-10 stand-in: 10 classes (paper-scale: 32x32, 50k/10k)."""
    spec = SyntheticSpec("cifar10", 10, image_size, difficulty=difficulty)
    return make_synthetic(spec, num_train, "train"), make_synthetic(
        spec, num_test, "test"
    )


def cifar100_like(
    num_train: int = 2048,
    num_test: int = 512,
    image_size: int = 16,
    num_classes: int = 20,
    difficulty: float = 1.0,
):
    """CIFAR-100 stand-in.

    Defaults to 20 classes — with CPU-sized sample counts, 100 classes
    leaves too few examples per class for any method to learn, which would
    mask the *relative* orderings the tables measure.  Pass
    ``num_classes=100`` and larger sample counts for a closer match.
    """
    spec = SyntheticSpec("cifar100", num_classes, image_size, difficulty=difficulty)
    return make_synthetic(spec, num_train, "train"), make_synthetic(
        spec, num_test, "test"
    )


def tinyimagenet_like(
    num_train: int = 2048,
    num_test: int = 512,
    image_size: int = 24,
    num_classes: int = 20,
    difficulty: float = 1.1,
):
    """TinyImageNet stand-in (paper-scale: 64x64, 200 classes)."""
    spec = SyntheticSpec(
        "tinyimagenet", num_classes, image_size, smoothness=2.5,
        difficulty=difficulty, max_shift=6,
    )
    return make_synthetic(spec, num_train, "train"), make_synthetic(
        spec, num_test, "test"
    )


def imagenet_like(
    num_train: int = 3072,
    num_test: int = 768,
    image_size: int = 32,
    num_classes: int = 25,
    difficulty: float = 1.2,
):
    """ImageNet stand-in (paper-scale: 224x224, 1000 classes)."""
    spec = SyntheticSpec(
        "imagenet", num_classes, image_size, smoothness=3.0,
        difficulty=difficulty, max_shift=8,
    )
    return make_synthetic(spec, num_train, "train"), make_synthetic(
        spec, num_test, "test"
    )
