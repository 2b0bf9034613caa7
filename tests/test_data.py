"""Synthetic data generator, augmentation, dataset directory format."""

import hashlib
import re
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corrupt_bytes
from msvseg.data import (AugmentConfig, SegSample, _rotate_image, _rotate_mask, augment,
                         gen_synthetic_dataset, load_dataset, save_dataset)
from msvseg.serial import save_tensor
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


def _coins(seed):
    """The first three draws of an enabled ``augment``: whether the
    horizontal flip, the vertical flip and the rotation fire."""
    rng = Rng(seed)
    return [rng.random() < 0.5 for _ in range(3)]


class TestAugment:
    def test_all_toggles_off_is_identity(self, dataset):
        s = dataset[0]
        rng = Rng(1)
        out = augment(s, rng, AugmentConfig())
        assert np.array_equal(out.image.data, s.image.data)
        assert np.array_equal(out.mask, s.mask)
        assert rng.random() == Rng(1).random()  # disabled draws nothing

    def test_all_on_is_the_switch(self):
        assert AugmentConfig.all_on() == AugmentConfig(enabled=True)
        assert AugmentConfig.all_on((32, 32)) == AugmentConfig((32, 32), enabled=True)

    @pytest.mark.parametrize("index, seed, digest", [
        (0, 9, "b9e9e7f5c3392270b28a99516534f0ea622365ae9d1a25989d419809f4e77aac"),
        (1, 9, "754fd91989c6fd6942718fd4bade706e3f70ef902a156d19d6f93101b0989ab4"),
        (2, 9, "ab13f7c80466b3ad8ccc20363fe53760d121cc8c3bcfd6dc63e0118912ef691c"),
        (3, 0, "9224ed68fcc66d3386bcf0d3c8ae921f61a81b4130ce144b96c2531fa34643b7"),
        (4, 1, "eaeb7d793caa46bcd9a47609d12af269f5c040b82227941426a12bd9be21e7aa"),
        (5, 4, "99154a8288b5e26f446bf4db8c095e13cd32231bd07720e33e46877f284f4136"),
        (6, 5, "5f15a29d955d70913693248c316accc251a526922366a3c36f21fce70e9915fc"),
    ])
    def test_all_on_draws_are_pinned(self, dataset, index, seed, digest):
        # the draw order of the six techniques, as recorded before they became
        # one switch; seed 9 flips only, seeds 0, 1, 4 and 5 reach the others
        out = augment(dataset[index], Rng(seed), AugmentConfig.all_on())
        assert hashlib.sha256(out.image.data.tobytes() + out.mask.tobytes()).hexdigest() == digest

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
        unrotated = 0
        for trial in range(12):
            flip_h, flip_v, rotate = _coins(trial)
            if rotate:
                continue
            unrotated += 1
            out = augment(s, Rng(trial), AugmentConfig(enabled=True))
            expected = s.mask[::-1 if flip_v else 1, ::-1 if flip_h else 1]
            assert np.array_equal(out.mask, expected)
            assert np.array_equal(np.bincount(out.mask.ravel(), minlength=4),
                                  np.bincount(s.mask.ravel(), minlength=4))
        assert unrotated >= 3

    def test_resize_applies_first(self, dataset):
        out = augment(dataset[3], Rng(5), AugmentConfig(target_size=(32, 32)))
        assert out.image.data.shape == (3, 32, 32)
        assert out.mask.shape == (32, 32)
        assert set(np.unique(out.mask)) <= {0, 1, 2, 3}

    def test_photometric_leaves_mask_alone(self, dataset):
        s = dataset[4]
        changed = 0
        for trial in range(20):
            if any(_coins(trial)):
                continue  # a flip or the rotation moves the mask
            out = augment(s, Rng(trial), AugmentConfig(enabled=True))
            assert np.array_equal(out.mask, s.mask)
            assert out.image.data.min() >= 0.0 and out.image.data.max() <= 1.0
            changed += not np.array_equal(out.image.data, s.image.data)
        assert changed >= 1

    def test_rotation_hits_image_and_mask_identically(self, dataset):
        # a quarter turn of a square map lands every sample on a pixel, so the
        # bilinear image and the nearest-neighbour mask move the same way
        mask = dataset[5].mask
        image = np.repeat(mask[None].astype(np.float32), 3, axis=0)
        assert np.array_equal(_rotate_mask(mask, 90.0), np.rot90(mask, -1))
        assert np.allclose(_rotate_image(image, 90.0), np.rot90(image, -1, axes=(1, 2)),
                           atol=1e-5)

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

    def test_blank_lines_and_comments_load(self, dataset, tmp_path):
        save_dataset(dataset[:2], tmp_path, 4)
        ids = [s.sample_id for s in dataset[:2]]
        (tmp_path / "manifest.txt").write_text(
            f"# two samples\nversion=1\n\nnum_classes=4\n  # indented\nsample={ids[0]}\n\n"
            f"sample={ids[1]}\n")
        loaded, k = load_dataset(tmp_path)
        assert k == 4 and [s.sample_id for s in loaded] == ids

    @pytest.mark.parametrize("line, message", [
        ("sampel=s0001", "manifest line 5: unknown key 'sampel'"),
        ("garbage line", "manifest line 5: expected key=value, got 'garbage line'"),
        ("sample=s0000", "manifest line 5: sample 's0000' is already listed on line 3"),
        ("num_classes=7", "manifest line 5: num_classes is already given on line 2"),
        ("version=1", "manifest line 5: version is already given on line 1"),
    ], ids=["unknown_key", "no_equals", "repeated_id", "repeated_num_classes",
            "repeated_version"])
    def test_malformed_manifest_line_rejected(self, dataset, tmp_path, line, message):
        save_dataset(dataset[:2], tmp_path, 4)
        manifest = tmp_path / "manifest.txt"
        assert manifest.read_text().splitlines()[2:] == ["sample=s0000", "sample=s0001"]
        manifest.write_text(manifest.read_text() + line + "\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("samples", [0, 2])
    @pytest.mark.parametrize("k", [0, -3])
    def test_num_classes_below_one_rejected(self, dataset, tmp_path, k, samples):
        save_dataset(dataset[:2], tmp_path, 4)
        lines = [f"sample={s.sample_id}" for s in dataset[:samples]]
        (tmp_path / "manifest.txt").write_text("\n".join(["version=1", f"num_classes={k}"]
                                                         + lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"manifest line 2: num_classes must be at least 1, got {k}")):
            load_dataset(tmp_path)

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

    @pytest.mark.parametrize("sid", ["../outside/x", "/tmp/x", "a/b", ".hidden", ""])
    def test_id_outside_directory_rejected_on_load(self, dataset, tmp_path, sid):
        save_dataset(dataset[:1], tmp_path / "outside", 4)
        (tmp_path / "outside" / f"{dataset[0].sample_id}.image.msvt").rename(
            tmp_path / "outside" / "x.image.msvt")
        (tmp_path / "outside" / f"{dataset[0].sample_id}.mask.msvt").rename(
            tmp_path / "outside" / "x.mask.msvt")
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.txt").write_text(f"version=1\nnum_classes=4\nsample={sid}\n")
        with pytest.raises(ValueError, match="invalid sample id"):
            load_dataset(data)

    def test_id_outside_directory_rejected_on_save(self, dataset, tmp_path):
        bad = SegSample(dataset[0].image, dataset[0].mask, "../escaped")
        with pytest.raises(ValueError, match=r"'\.\./escaped'"):
            save_dataset([bad], tmp_path / "out", 4)
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "escaped.image.msvt").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2.5, 2.0 ** 40],
                             ids=["nan", "inf", "-inf", "2.5", "2**40"])
    def test_bad_mask_record_rejected_on_load(self, dataset, tmp_path, value):
        save_dataset(dataset[:1], tmp_path, 4)
        sid = dataset[0].sample_id
        mask = dataset[0].mask.astype(np.float32)
        mask[3, 4] = value
        save_tensor(tmp_path / f"{sid}.mask.msvt", mask)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"sample {sid}"):
                load_dataset(tmp_path)

    @pytest.mark.parametrize("kind", ["image", "mask"])
    def test_f64_record_rejected_on_load(self, dataset, tmp_path, kind):
        save_dataset(dataset[:1], tmp_path, 4)
        sid = dataset[0].sample_id
        arr = dataset[0].image.data if kind == "image" else dataset[0].mask
        save_tensor(tmp_path / f"{sid}.{kind}.msvt", arr.astype(np.float64))
        with pytest.raises(ValueError, match=f"sample {sid}: {sid}.{kind}.msvt holds float64"):
            load_dataset(tmp_path)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_dataset_raises_only_value_or_missing_file(self, data, tmp_path_factory):
        src = tmp_path_factory.getbasetemp() / "small_dataset"
        if not src.exists():
            save_dataset(gen_synthetic_dataset(2, 3, 8, Rng(4)), src, 3)
        path = tmp_path_factory.mktemp("corrupt")
        shutil.copytree(src, path, dirs_exist_ok=True)
        sid = data.draw(st.sampled_from(["s0000", "s0001"]), label="sample")
        name = data.draw(st.sampled_from(["manifest.txt", f"{sid}.image.msvt",
                                          f"{sid}.mask.msvt"]), label="file")
        target = path / name
        target.write_bytes(corrupt_bytes(target.read_bytes(), data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                load_dataset(path)
            except (ValueError, FileNotFoundError):
                pass
