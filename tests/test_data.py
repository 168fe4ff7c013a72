"""Synthetic datasets, loaders, splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rng as rng_mod
from repro.data import (
    ArrayDataset,
    DataLoader,
    Subset,
    augment_batch,
    cifar10_like,
    cifar100_like,
    imagenet_like,
    make_synthetic,
    split_dataset,
    tinyimagenet_like,
)
from repro.data.synthetic import SyntheticSpec, _gaussian_wrap, _make_prototypes


class TestArrayDataset:
    def test_len_getitem(self):
        ds = ArrayDataset(np.zeros((5, 3, 4, 4)), np.arange(5))
        assert len(ds) == 5
        img, label = ds[2]
        assert img.shape == (3, 4, 4) and label == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((5, 1, 2, 2)), np.zeros(4))

    def test_num_classes(self):
        ds = ArrayDataset(np.zeros((4, 1, 2, 2)), np.array([0, 2, 1, 2]))
        assert ds.num_classes == 3


class TestSynthetic:
    def test_deterministic_given_seed(self):
        rng_mod.set_seed(7)
        a, _ = cifar10_like(num_train=32, num_test=8)
        rng_mod.set_seed(7)
        b, _ = cifar10_like(num_train=32, num_test=8)
        assert np.allclose(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_train_test_share_prototypes_differ_in_noise(self):
        spec = SyntheticSpec("x", 4, 12)
        train = make_synthetic(spec, 64, "train")
        test = make_synthetic(spec, 64, "test")
        assert not np.allclose(train.images[:8], test.images[:8])
        # Same class prototypes: per-class means correlate across splits.
        proto = _make_prototypes(spec)
        assert proto.shape == (4, 3, 12, 12)

    def test_all_classes_present(self):
        train, _ = cifar10_like(num_train=500)
        assert set(np.unique(train.labels)) == set(range(10))

    def test_factories_shapes(self):
        for factory, classes in [
            (cifar10_like, 10),
            (lambda **kw: cifar100_like(num_classes=15, **kw), 15),
            (lambda **kw: tinyimagenet_like(num_classes=6, **kw), 6),
            (lambda **kw: imagenet_like(num_classes=7, **kw), 7),
        ]:
            train, test = factory(num_train=40, num_test=10)
            assert train.images.dtype == np.float32
            assert int(train.labels.max()) < classes

    # Every (image_size, smoothness) the factories, experiments, examples
    # and perfbench build, plus sizes below the kernel radius (4 and 8 at
    # sigma 3 wrap the kernel round the image more than once) and an
    # unsmoothed spec.
    @pytest.mark.parametrize("image_size", [4, 8, 10, 12, 16, 20, 24, 32])
    @pytest.mark.parametrize("smoothness", [0.0, 2.0, 2.5, 3.0])
    def test_prototypes_match_scipy_gaussian_bit_for_bit(self, image_size,
                                                         smoothness):
        ndimage = pytest.importorskip("scipy.ndimage")
        spec = SyntheticSpec("oracle", 3, image_size, smoothness=smoothness)
        rng_mod.set_seed(11)
        raw = rng_mod.spawn_rng("oracle-prototypes").normal(
            size=(3, 3, image_size, image_size))
        smooth = ndimage.gaussian_filter(
            raw, sigma=(0, 0, smoothness, smoothness), mode="wrap")
        assert np.array_equal(_gaussian_wrap(raw, smoothness), smooth)
        flat = smooth.reshape(3, 3, -1)
        std = flat.std(axis=-1, keepdims=True)
        std[std == 0] = 1.0
        expected = (flat / std).reshape(smooth.shape).astype(np.float32)
        rng_mod.set_seed(11)
        assert np.array_equal(_make_prototypes(spec), expected)

    def test_difficulty_raises_noise(self):
        spec_easy = SyntheticSpec("d", 4, 12, difficulty=0.5)
        spec_hard = SyntheticSpec("d", 4, 12, difficulty=3.0)
        easy = make_synthetic(spec_easy, 64, "train")
        hard = make_synthetic(spec_hard, 64, "train")
        assert hard.images.std() > easy.images.std()


class TestSplit:
    def test_disjoint_and_complete(self):
        ds = ArrayDataset(np.zeros((100, 1, 2, 2)), np.zeros(100))
        a, b = split_dataset(ds, 0.5)
        ia, ib = set(a.indices.tolist()), set(b.indices.tolist())
        assert not (ia & ib)
        assert ia | ib == set(range(100))

    def test_fraction(self):
        ds = ArrayDataset(np.zeros((10, 1, 2, 2)), np.zeros(10))
        a, b = split_dataset(ds, 0.3)
        assert len(a) == 3 and len(b) == 7

    def test_invalid_fraction(self):
        ds = ArrayDataset(np.zeros((4, 1, 2, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            split_dataset(ds, 1.0)

    def test_subset_indexing(self):
        ds = ArrayDataset(np.arange(12).reshape(3, 1, 2, 2), np.array([5, 6, 7]))
        sub = Subset(ds, [2, 0])
        assert sub[0][1] == 7 and sub[1][1] == 5


class TestLoader:
    def _ds(self, n=20):
        return ArrayDataset(
            np.random.default_rng(0).normal(size=(n, 3, 8, 8)).astype(np.float32),
            np.arange(n) % 4,
        )

    def test_batch_shapes(self):
        loader = DataLoader(self._ds(), batch_size=8, shuffle=False)
        batches = list(loader)
        assert batches[0][0].shape == (8, 3, 8, 8)
        assert [len(b[1]) for b in batches] == [8, 8, 4]

    def test_drop_last(self):
        loader = DataLoader(self._ds(), batch_size=8, drop_last=True)
        assert len(loader) == 2
        assert sum(1 for _ in loader) == 2

    def test_shuffle_changes_order_across_epochs(self):
        loader = DataLoader(self._ds(), batch_size=20, shuffle=True)
        first = next(iter(loader))[1].copy()
        second = next(iter(loader))[1].copy()
        assert not np.array_equal(first, second)

    def test_no_shuffle_is_stable(self):
        loader = DataLoader(self._ds(), batch_size=20, shuffle=False)
        a = next(iter(loader))[1]
        b = next(iter(loader))[1]
        assert np.array_equal(a, b)

    def test_augment_keeps_shape(self):
        images = np.random.default_rng(0).normal(size=(4, 3, 8, 8)).astype(np.float32)
        out = augment_batch(images, np.random.default_rng(1))
        assert out.shape == images.shape

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self._ds(), batch_size=0)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 60), frac=st.floats(0.1, 0.9))
def test_property_split_partitions(n, frac):
    ds = ArrayDataset(np.zeros((n, 1, 2, 2)), np.zeros(n))
    a, b = split_dataset(ds, frac)
    assert len(a) + len(b) == n
    assert set(a.indices) | set(b.indices) == set(range(n))
    assert not (set(a.indices) & set(b.indices))
