"""Metrics: DSC and HD95 against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (boundary_bruteforce, boundary_pixels_scipy, dsc_set_oracle,
                      hd95_bruteforce, hd95_scipy)
from msvseg.metrics import boundary_pixels, dsc_metric, hd95_metric
from msvseg.tensor import Rng


def random_mask(seed, h, w, k):
    return Rng(seed).integers(0, k, (h, w)).astype(np.int32)


class TestDsc:
    def test_identical_masks_give_one(self):
        m = random_mask(0, 12, 12, 3)
        assert np.array_equal(dsc_metric(m, m, 3), np.ones(3))

    def test_direct_substitution(self):
        pred = np.zeros((4, 4), dtype=np.int32)
        true = np.zeros((4, 4), dtype=np.int32)
        pred[0, :4] = 1          # |pred_1| = 4
        true[0, :3] = 1          # overlap 3
        true[1, :3] = 1          # |true_1| = 6
        got = dsc_metric(pred, true, 2)[1]
        assert got == pytest.approx(2 * 3 / (4 + 6))

    def test_empty_conventions(self):
        a = np.zeros((3, 3), dtype=np.int32)
        b = np.zeros((3, 3), dtype=np.int32)
        b[1, 1] = 1
        scores = dsc_metric(a, b, 3)
        assert scores[1] == 0.0   # one-empty
        assert scores[2] == 1.0   # both-empty

    def test_matches_set_oracle_on_random_pairs(self):
        for seed in range(25):
            p = random_mask(seed * 2, 9, 11, 4)
            t = random_mask(seed * 2 + 1, 9, 11, 4)
            assert np.array_equal(dsc_metric(p, t, 4), dsc_set_oracle(p, t, 4))

    def test_symmetry(self):
        p = random_mask(100, 8, 8, 3)
        t = random_mask(101, 8, 8, 3)
        assert np.array_equal(dsc_metric(p, t, 3), dsc_metric(t, p, 3))

    def test_flip_invariance(self):
        p = random_mask(102, 8, 8, 3)
        t = random_mask(103, 8, 8, 3)
        assert np.array_equal(dsc_metric(p, t, 3),
                              dsc_metric(p[:, ::-1], t[:, ::-1], 3))


class TestBoundary:
    def test_matches_bruteforce(self):
        for seed in range(10):
            region = Rng(seed + 200).random((10, 10)) > 0.6
            got = sorted(map(tuple, np.argwhere(boundary_pixels(region))))
            assert got == boundary_bruteforce(region)

    def test_full_region_boundary_is_frame(self):
        region = np.ones((5, 5), dtype=bool)
        b = boundary_pixels(region)
        assert b[0].all() and b[-1].all() and b[:, 0].all() and b[:, -1].all()
        assert not b[1:-1, 1:-1].any()


class TestHd95:
    def test_identical_masks_zero(self):
        m = random_mask(300, 16, 16, 3)
        values = hd95_metric(m, m, 3)
        for v in values:
            if v is not None:
                assert v == 0.0

    def test_two_single_pixels_five_apart(self):
        pred = np.zeros((8, 8), dtype=np.int32)
        true = np.zeros((8, 8), dtype=np.int32)
        pred[2, 1] = 1
        true[2, 6] = 1
        assert hd95_metric(pred, true, 2)[1] == pytest.approx(5.0)

    def test_absent_class_skipped(self):
        pred = np.zeros((6, 6), dtype=np.int32)
        true = np.zeros((6, 6), dtype=np.int32)
        true[2, 2] = 1
        assert hd95_metric(pred, true, 2)[1] is None

    def test_matches_allpairs_bruteforce(self):
        for seed in range(12):
            p = random_mask(seed * 7 + 1, 12, 10, 3)
            t = random_mask(seed * 7 + 2, 12, 10, 3)
            got = hd95_metric(p, t, 3)
            expected = hd95_bruteforce(p, t, 3)
            for g, e in zip(got, expected):
                if e is None:
                    assert g is None
                else:
                    assert g == pytest.approx(e, abs=1e-12)

    def test_symmetry_of_pooled_mode(self):
        p = random_mask(400, 10, 10, 2)
        t = random_mask(401, 10, 10, 2)
        assert hd95_metric(p, t, 2) == hd95_metric(t, p, 2)

    def test_flip_invariance(self):
        p = random_mask(402, 10, 10, 2)
        t = random_mask(403, 10, 10, 2)
        a = hd95_metric(p, t, 2)
        b = hd95_metric(p[:, ::-1], t[:, ::-1], 2)
        for x, y in zip(a, b):
            assert (x is None) == (y is None)
            if x is not None:
                assert x == pytest.approx(y, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_oracle_agreement_property(self, seed):
        p = random_mask(seed, 8, 8, 2)
        t = random_mask(seed + 50_000, 8, 8, 2)
        got = hd95_metric(p, t, 2)
        expected = hd95_bruteforce(p, t, 2)
        for g, e in zip(got, expected):
            if e is None:
                assert g is None
            else:
                assert g == pytest.approx(e, abs=1e-12)


def _drawn_mask_pair(seed):
    """A (pred, true, num_classes) case: shapes from 1x1 to 224x224, square or
    not, 2-9 classes of which some may be absent from either mask, and labels
    drawn per pixel (uniform) or per block of up to 32 pixels (blobs)."""
    rng = Rng(seed)
    side = int(rng.integers(0, 4))  # 1-8, 9-32, 33-96 or 97-224 pixels
    lo, hi = ((1, 9), (9, 33), (33, 97), (97, 225))[side]
    h, w = (int(v) for v in rng.integers(lo, hi, (2,)))
    k = int(rng.integers(2, 10))
    drawn = int(rng.integers(1, k + 1))  # labels 0..drawn-1, so classes above are empty
    masks = []
    for _ in range(2):
        block = int(rng.integers(1, 33)) if seed % 2 else 1
        coarse = rng.integers(0, drawn, (-(-h // block), -(-w // block)))
        masks.append(np.repeat(np.repeat(coarse, block, 0), block, 1)[:h, :w].astype(np.int32))
    return masks[0], masks[1], k


class TestMatchesScipy:
    """boundary_pixels and hd95_metric equal the scipy forms they replaced."""

    @pytest.mark.parametrize("chunk", [1 << 16, 5])
    def test_hd95_equals_scipy_on_drawn_masks(self, chunk, monkeypatch):
        from msvseg import metrics

        monkeypatch.setattr(metrics, "_QUERY_CHUNK", chunk)
        seeds = range(300) if chunk > 5 else range(0, 300, 10)
        for seed in seeds:
            pred, true, k = _drawn_mask_pair(seed)
            assert hd95_metric(pred, true, k) == hd95_scipy(pred, true, k), seed

    def test_boundary_equals_scipy_on_drawn_masks(self):
        for seed in range(300):
            pred, true, k = _drawn_mask_pair(seed)
            for cls in range(k):
                region = pred == cls
                assert np.array_equal(boundary_pixels(region), boundary_pixels_scipy(region)), seed

    def test_hd95_equals_scipy_on_edge_cases(self):
        one = np.zeros((1, 1), dtype=np.int32)
        line = np.arange(7, dtype=np.int32).reshape(1, 7) % 2
        corners = np.zeros((224, 224), dtype=np.int32)
        corners[0, 0] = corners[-1, -1] = 1
        for pred, true in [(one, one), (one, one + 1), (line, line.T.reshape(1, 7)),
                           (line.T, 1 - line.T), (corners, corners.T[::-1]),
                           (corners, np.ones_like(corners))]:
            assert hd95_metric(pred, true, 3) == hd95_scipy(pred, true, 3)
