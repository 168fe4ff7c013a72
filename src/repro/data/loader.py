"""Batch iteration with optional train-time augmentation.

Augmentation mirrors the standard CIFAR recipe the paper trains with:
random crop with reflective padding and horizontal flip, both applied
per-batch in vectorised NumPy.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from .. import rng as rng_mod
from .dataset import Dataset

__all__ = ["DataLoader", "augment_batch"]


def augment_batch(
    images: np.ndarray, rng: np.random.Generator, pad: int = 2
) -> np.ndarray:
    """Random crop (pad-then-crop) + horizontal flip for an NCHW batch."""
    n, c, h, w = images.shape
    padded = np.pad(
        images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="reflect"
    )
    out = np.empty_like(images)
    offsets_y = rng.integers(0, 2 * pad + 1, size=n)
    offsets_x = rng.integers(0, 2 * pad + 1, size=n)
    flips = rng.random(n) < 0.5
    for i in range(n):
        crop = padded[i, :, offsets_y[i] : offsets_y[i] + h,
                      offsets_x[i] : offsets_x[i] + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


class DataLoader:
    """Iterate a dataset in shuffled mini-batches.

    Parameters
    ----------
    dataset:
        Any :class:`~repro.data.dataset.Dataset`.
    batch_size:
        Batch size; a final short batch is yielded unless ``drop_last``.
    shuffle:
        Reshuffle at the start of every epoch (deterministic given the
        global seed and ``key``).
    augment:
        Apply :func:`augment_batch` to training images.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        shuffle: bool = True,
        augment: bool = False,
        drop_last: bool = False,
        key: str = "loader",
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.augment = augment
        self.drop_last = drop_last
        self._rng = rng_mod.spawn_rng(key)
        self._epoch = 0

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        self._epoch += 1
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            if self.drop_last and len(idx) < self.batch_size:
                return
            images = np.stack([self.dataset[int(i)][0] for i in idx])
            labels = np.asarray(
                [self.dataset[int(i)][1] for i in idx], dtype=np.int64
            )
            if self.augment:
                images = augment_batch(images, self._rng)
            yield images, labels
