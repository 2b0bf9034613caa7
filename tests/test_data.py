"""Synthetic data generator, augmentation, dataset directory format."""

import numpy as np
import pytest

from msvseg.data import (AugmentConfig, SegSample, augment, gen_synthetic_dataset,
                         load_dataset, save_dataset)
from msvseg.tensor import Rng, Tensor


@pytest.fixture(scope="module")
def dataset():
    return gen_synthetic_dataset(20, 4, 48, Rng(77))


class TestGenerator:
    def test_contract(self, dataset):
        assert len(dataset) == 20
        for s in dataset:
            assert s.image.data.shape == (3, 48, 48)
            assert s.image.data.min() >= 0.0 and s.image.data.max() <= 1.0
            assert s.mask.shape == (48, 48)
            assert s.mask.min() >= 0 and s.mask.max() < 4

    def test_seed_determinism(self, dataset):
        again = gen_synthetic_dataset(20, 4, 48, Rng(77))
        for a, b in zip(dataset, again):
            assert np.array_equal(a.image.data, b.image.data)
            assert np.array_equal(a.mask, b.mask)
            assert a.sample_id == b.sample_id

    def test_every_class_present_in_most_samples(self, dataset):
        for cls in range(1, 4):
            present = sum(1 for s in dataset if (s.mask == cls).any())
            assert present >= 0.8 * len(dataset)

    def test_foreground_not_trivial(self, dataset):
        # shapes occupy a nontrivial fraction, background remains the majority
        fg = np.mean([np.mean(s.mask > 0) for s in dataset])
        assert 0.05 < fg < 0.7

    def test_too_few_classes_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic_dataset(1, 1, 32, Rng(0))


class TestAugment:
    def test_all_toggles_off_is_identity(self, dataset):
        s = dataset[0]
        out = augment(s, Rng(1), AugmentConfig())
        assert np.array_equal(out.image.data, s.image.data)
        assert np.array_equal(out.mask, s.mask)

    def test_double_flip_is_identity(self, dataset):
        s = dataset[1]
        # drive the flip branch directly via the internal helpers
        flipped = SegSample(Tensor(s.image.data[:, :, ::-1].copy()),
                            s.mask[:, ::-1].copy(), s.sample_id)
        restored = SegSample(Tensor(flipped.image.data[:, :, ::-1].copy()),
                             flipped.mask[:, ::-1].copy(), s.sample_id)
        assert np.array_equal(restored.image.data, s.image.data)
        assert np.array_equal(restored.mask, s.mask)

    def test_flip_preserves_class_counts(self, dataset):
        s = dataset[2]
        cfg = AugmentConfig(flip_h=True, flip_v=True)
        for trial in range(8):
            out = augment(s, Rng(trial), cfg)
            assert np.array_equal(np.bincount(out.mask.ravel(), minlength=4),
                                  np.bincount(s.mask.ravel(), minlength=4))

    def test_resize_applies_first(self, dataset):
        out = augment(dataset[3], Rng(5), AugmentConfig(target_size=(32, 32)))
        assert out.image.data.shape == (3, 32, 32)
        assert out.mask.shape == (32, 32)
        assert set(np.unique(out.mask)) <= {0, 1, 2, 3}

    def test_photometric_leaves_mask_alone(self, dataset):
        s = dataset[4]
        cfg = AugmentConfig(noise=True, blur=True, contrast=True)
        for trial in range(6):
            out = augment(s, Rng(trial + 50), cfg)
            assert np.array_equal(out.mask, s.mask)
            assert out.image.data.min() >= 0.0 and out.image.data.max() <= 1.0

    def test_rotation_hits_image_and_mask_identically(self, dataset):
        s = dataset[5]
        cfg = AugmentConfig(rotate=True, max_rotate_deg=90.0)
        moved = 0
        for trial in range(10):
            out = augment(s, Rng(trial + 100), cfg)
            if not np.array_equal(out.mask, s.mask):
                moved += 1
                assert out.image.data.shape == s.image.data.shape
        assert moved >= 1  # probability 0.5 per trial

    def test_deterministic_given_rng(self, dataset):
        s = dataset[6]
        cfg = AugmentConfig.all_on()
        a = augment(s, Rng(9), cfg)
        b = augment(s, Rng(9), cfg)
        assert np.array_equal(a.image.data, b.image.data)
        assert np.array_equal(a.mask, b.mask)


class TestDatasetIo:
    def test_roundtrip(self, dataset, tmp_path):
        save_dataset(dataset[:5], tmp_path, 4)
        loaded, k = load_dataset(tmp_path)
        assert k == 4
        assert len(loaded) == 5
        for a, b in zip(dataset[:5], loaded):
            assert np.array_equal(a.image.data, b.image.data)
            assert np.array_equal(a.mask, b.mask)
            assert a.sample_id == b.sample_id

    def test_manifest_is_plain_text(self, dataset, tmp_path):
        save_dataset(dataset[:2], tmp_path, 4)
        text = (tmp_path / "manifest.txt").read_text()
        assert "num_classes=4" in text
        assert text.count("sample=") == 2

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.5, 1.5])
    def test_bad_image_values_rejected_on_save(self, tmp_path, value):
        img = np.zeros((3, 8, 8), dtype=np.float32)
        img[1, 2, 3] = value
        bad = SegSample(Tensor(img), np.zeros((8, 8), dtype=np.int32), "bad")
        with pytest.raises(ValueError, match="sample bad"):
            save_dataset([bad], tmp_path, 4)

    def test_bad_mask_ids_rejected_on_save(self, tmp_path):
        bad = SegSample(Tensor(np.zeros((3, 8, 8), dtype=np.float32)),
                        np.full((8, 8), 9, dtype=np.int32), "bad")
        with pytest.raises(ValueError):
            save_dataset([bad], tmp_path, 4)
