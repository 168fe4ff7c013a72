"""Synthetic datasets and loaders."""

from .dataset import ArrayDataset, Dataset, Subset, split_dataset
from .loader import DataLoader, augment_batch
from .synthetic import (
    SyntheticSpec,
    cifar10_like,
    cifar100_like,
    imagenet_like,
    make_synthetic,
    tinyimagenet_like,
)

__all__ = [
    "ArrayDataset",
    "Dataset",
    "Subset",
    "split_dataset",
    "DataLoader",
    "augment_batch",
    "SyntheticSpec",
    "cifar10_like",
    "cifar100_like",
    "imagenet_like",
    "make_synthetic",
    "tinyimagenet_like",
]
