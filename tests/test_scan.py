"""Selective scan: discretization, recurrence oracles, cross-scan geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scan_scalar_loop
from msvseg import scan as S
from msvseg import tensor as T
from msvseg.scan import (SS2D, ScanParams, ScanPathId, cross_merge, cross_scan,
                         discretize, run_scan_benchmark, selective_scan_chunked,
                         selective_scan_seq)
from msvseg.tensor import Rng, Tensor, finite_diff_grad_check, no_grad


def f64_params(seed, channels, n_state):
    return ScanParams(Rng(seed), channels, n_state).astype(np.float64)


class TestDiscretize:
    def test_zero_transition_gives_identity(self):
        delta = Tensor(np.full((4, 2), 0.5), dtype=np.float64)
        a = Tensor(np.zeros((2, 3)), dtype=np.float64)
        b = Tensor(Rng(0).normal((4, 3)), dtype=np.float64)
        abar, _ = discretize(delta, a, b)
        assert np.array_equal(abar.data, np.ones((4, 2, 3)))

    def test_small_step_limit(self):
        delta = Tensor(np.full((3, 2), 1e-9), dtype=np.float64)
        a = Tensor(-np.ones((2, 2)), dtype=np.float64)
        b = Tensor(np.ones((3, 2)), dtype=np.float64)
        abar, bbar = discretize(delta, a, b)
        assert np.allclose(abar.data, 1.0, atol=1e-8)
        assert np.allclose(bbar.data, 0.0, atol=1e-8)

    def test_matches_scalar_evaluation(self):
        rng = Rng(1)
        delta = np.abs(rng.normal((5, 3))) + 0.01
        a = -np.abs(rng.normal((3, 4))) - 0.05
        b = rng.normal((5, 4))
        abar, bbar = discretize(Tensor(delta, dtype=np.float64),
                                Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        for t in range(5):
            for c in range(3):
                for n in range(4):
                    assert abar.data[t, c, n] == np.exp(delta[t, c] * a[c, n])
                    assert bbar.data[t, c, n] == delta[t, c] * b[t, n]

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ValueError):
            discretize(Tensor(np.zeros((2, 2)), dtype=np.float64),
                       Tensor(-np.ones((2, 2)), dtype=np.float64),
                       Tensor(np.ones((2, 2)), dtype=np.float64))


class TestSequentialScan:
    def test_zero_input_zero_output(self):
        p = f64_params(2, channels=3, n_state=4)
        y = selective_scan_seq(Tensor(np.zeros((6, 3)), dtype=np.float64), p)
        assert np.array_equal(y.data, np.zeros((6, 3)))

    def test_degenerate_cumulative_sum(self):
        # Abar=1, Bbar*x=x, C=1, D=0 reduces the recurrence to a cumsum
        x = np.arange(1.0, 8.0).reshape(1, 7, 1)
        ones = np.ones((1, 7, 1))
        y, _, _ = S._scan_forward_core(x, ones, np.zeros((1, 1, 1)), ones, ones,
                                       np.zeros((1, 1)), None)
        assert np.array_equal(y.ravel(), np.cumsum(x.ravel()))

    def test_matches_scalar_loop_oracle(self):
        p = f64_params(3, channels=2, n_state=3)
        x = Tensor(Rng(4).normal((7, 2)), dtype=np.float64)
        with no_grad():
            delta, a, b, c_out = S._project_step_params(x, p)
        expected = scan_scalar_loop(x.data, delta.data, a.data, b.data, c_out.data,
                                    p.skip.data)
        got = selective_scan_seq(x, p)
        assert np.max(np.abs(got.data - expected)) < 1e-12

    def test_gradients_match_fd(self):
        p = f64_params(5, channels=2, n_state=3)
        x = Tensor(Rng(6).normal((5, 2)), dtype=np.float64, requires_grad=True)
        params = [t for _, t in p.named_parameters()]
        err = finite_diff_grad_check(
            lambda *args: T.tsum(T.mul(selective_scan_seq(args[0], p),
                                       selective_scan_seq(args[0], p))),
            [x] + params)
        assert err <= 1e-4


class TestChunkedScan:
    @pytest.mark.parametrize("chunk", [1, 2, 7, 64, 40])
    def test_matches_sequential(self, chunk):
        p = f64_params(7, channels=3, n_state=4)
        x = Tensor(Rng(8).normal((40, 3)), dtype=np.float64)
        y_seq = selective_scan_seq(x, p)
        y_chk = selective_scan_chunked(x, p, chunk)
        assert np.max(np.abs(y_seq.data - y_chk.data)) <= 1e-12

    def test_chunk_one_is_exact(self):
        p = f64_params(9, channels=2, n_state=2)
        x = Tensor(Rng(10).normal((12, 2)), dtype=np.float64)
        assert np.array_equal(selective_scan_chunked(x, p, 1).data,
                              selective_scan_seq(x, p).data)

    def test_chunk_below_one_rejected(self):
        p = f64_params(11, channels=2, n_state=2)
        with pytest.raises(ValueError):
            selective_scan_chunked(Tensor(np.zeros((4, 2)), dtype=np.float64), p, 0)

    @given(st.integers(min_value=1, max_value=96), st.integers(min_value=2, max_value=96))
    @settings(max_examples=30, deadline=None)
    def test_equivalence_property(self, chunk, length):
        rng = Rng(chunk * 1000 + length)
        x = rng.normal((1, length, 2))
        delta = np.log1p(np.exp(rng.normal((1, length, 2)))) + 1e-4
        a = -np.exp(rng.normal((1, 2, 3)) * 0.4)
        b = rng.normal((1, length, 3))
        c_out = rng.normal((1, length, 3))
        skip = rng.normal((1, 2))
        y_ref, _, _ = S._scan_forward_core(x, delta, a, b, c_out, skip, None)
        y_chk, _, _ = S._scan_forward_core(x, delta, a, b, c_out, skip, chunk)
        assert np.max(np.abs(y_ref - y_chk)) <= 1e-12

    def test_stability_long_sequence_f32(self):
        # A = -exp(A_log) keeps |exp(delta*A)| < 1, so the state stays bounded
        p = ScanParams(Rng(12), channels=4, n_state=8)
        x = Tensor(Rng(13).normal((10_000, 4)).astype(np.float32))
        y = selective_scan_seq(x, p)
        assert np.isfinite(y.data).all()
        assert np.abs(y.data).max() < 1e4


def _raw_scan_inputs(seed, p, length, c, n):
    rng = Rng(seed)
    x = rng.normal((p, length, c))
    delta = np.log1p(np.exp(rng.normal((p, length, c)))) + 1e-4
    a = -np.exp(rng.normal((p, c, n)) * 0.5)
    b = rng.normal((p, length, n))
    c_out = rng.normal((p, length, n))
    skip = rng.normal((p, c))
    return x, delta, a, b, c_out, skip


BLOCK = S.SCAN_BLOCK


class TestStreamedScan:
    """The autodiff op against the full-history reference pair."""

    @staticmethod
    def _check_against_core(arrays, chunk=None):
        y = S._scan_op(*[Tensor(v, dtype=np.float64, requires_grad=True) for v in arrays], chunk)
        y_ref, h, abar = S._scan_forward_core(*arrays)
        # the matmul readout sums over N in another order than the reference
        assert np.max(np.abs(y.data - y_ref)) <= 1e-12 * np.max(np.abs(y_ref))
        grad_y = Rng(y_ref.size).normal(y_ref.shape)
        expected = S._scan_backward_core(grad_y, *arrays, h, abar)
        for g, ref in zip(y._backward(grad_y), expected):
            assert g.shape == ref.shape
            assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))
        return y.data

    @pytest.mark.parametrize("length", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("c,n", [(1, 1), (3, 4), (5, 16)])
    def test_matches_full_history_core(self, length, p, c, n):
        self._check_against_core(
            _raw_scan_inputs(length * 97 + p * 11 + c * 3 + n, p, length, c, n))

    @pytest.mark.parametrize("chunk", [1, 7, 200])
    def test_block_length_changes_no_result(self, chunk):
        self._check_against_core(_raw_scan_inputs(31, 2, 50, 3, 4), chunk)

    def test_backward_keeps_only_block_boundary_state(self):
        p, length, c, n = 4, 3 * BLOCK + 5, 3, 4
        arrays = _raw_scan_inputs(33, p, length, c, n)
        y = S._scan_op(*[Tensor(v, dtype=np.float64, requires_grad=True) for v in arrays])
        held = [cell.cell_contents for cell in y._backward.__closure__
                if isinstance(cell.cell_contents, np.ndarray)]
        assert held, "the closure should keep the block-start states"
        for arr in held:
            assert not (arr.ndim == 4 and arr.shape[1] == length), arr.shape
        n_blocks = -(-length // BLOCK)
        assert sum(arr.nbytes for arr in held) == p * n_blocks * c * n * 8

    def test_chunked_gradients_match_fd(self):
        p = f64_params(34, channels=2, n_state=3)
        x = Tensor(Rng(35).normal((9, 2)), dtype=np.float64, requires_grad=True)
        params = [t for _, t in p.named_parameters()]
        err = finite_diff_grad_check(
            lambda *args: T.tsum(T.mul(selective_scan_chunked(args[0], p, 2),
                                       selective_scan_chunked(args[0], p, 2))),
            [x] + params)
        assert err <= 1e-4


class TestStreamedScanRandomShapes:
    """The op the model runs, on 200 seeded random shapes and block lengths."""

    @pytest.mark.parametrize("case", range(200))
    def test_matches_full_history_core(self, case):
        rng = Rng(5000 + case)
        p, length = int(rng.integers(1, 5)), int(rng.integers(1, 513))
        c, n = int(rng.integers(1, 9)), int(rng.integers(1, 17))
        chunk = int(rng.integers(1, length + 2))
        arrays = _raw_scan_inputs(case, p, length, c, n)
        y = TestStreamedScan._check_against_core(arrays, chunk)
        with no_grad():
            y_inference = S._scan_op(*[Tensor(v, dtype=np.float64) for v in arrays], chunk)
        assert np.array_equal(y_inference.data, y)


class TestCrossScan:
    def test_single_pixel(self):
        seqs = cross_scan(Tensor(np.array([[[3.0]], [[4.0]]]), dtype=np.float64))
        assert len(seqs) == 4
        for s in seqs:
            assert np.array_equal(s.data, [[3.0, 4.0]])

    def test_2x2_enumeration(self):
        fmap = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]), dtype=np.float64)
        seqs = [s.data.ravel().tolist() for s in cross_scan(fmap)]
        assert seqs[ScanPathId.ROW_FWD] == [1, 2, 3, 4]
        assert seqs[ScanPathId.COL_FWD] == [1, 3, 2, 4]
        assert seqs[ScanPathId.ROW_REV] == [4, 3, 2, 1]
        assert seqs[ScanPathId.COL_REV] == [4, 2, 3, 1]

    def test_reversed_paths_are_exact_reversals(self):
        fmap = Tensor(Rng(14).normal((3, 4, 5)), dtype=np.float64)
        seqs = cross_scan(fmap)
        assert np.array_equal(seqs[2].data, seqs[0].data[::-1])
        assert np.array_equal(seqs[3].data, seqs[1].data[::-1])

    def test_merge_of_scan_is_four_x(self):
        fmap = Tensor(Rng(15).normal((4, 6, 3)), dtype=np.float64)
        merged = cross_merge(cross_scan(fmap), 6, 3)
        assert np.array_equal(merged.data, 4.0 * fmap.data)

    def test_zeroed_path_drops_only_its_contribution(self):
        fmap = Tensor(Rng(16).normal((2, 3, 3)), dtype=np.float64)
        seqs = cross_scan(fmap)
        seqs[1] = Tensor(np.zeros_like(seqs[1].data))
        merged = cross_merge(seqs, 3, 3)
        assert np.allclose(merged.data, 3.0 * fmap.data)

    def test_merge_is_linear(self):
        a = [Tensor(Rng(17 + i).normal((12, 2)), dtype=np.float64) for i in range(4)]
        b = [Tensor(Rng(27 + i).normal((12, 2)), dtype=np.float64) for i in range(4)]
        merged_sum = cross_merge([Tensor(x.data + y.data, dtype=np.float64)
                                  for x, y in zip(a, b)], 4, 3)
        sum_merged = cross_merge(a, 4, 3).data + cross_merge(b, 4, 3).data
        assert np.max(np.abs(merged_sum.data - sum_merged)) <= 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cross_merge([Tensor(np.zeros((5, 2)))] * 4, 2, 2)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_scatter_gather_roundtrip(self, h, w):
        fmap = Tensor(Rng(h * 31 + w).normal((2, h, w)), dtype=np.float64)
        for path, seq in enumerate(cross_scan(fmap)):
            restored = cross_merge([seq if i == path else
                                    Tensor(np.zeros_like(seq.data)) for i in range(4)], h, w)
            assert np.array_equal(restored.data, fmap.data)


class TestSS2D:
    def test_zero_input_zero_output(self):
        ss = SS2D(Rng(18), channels=3, n_state=4)
        y = ss(Tensor(np.zeros((3, 4, 4))))
        assert np.array_equal(y.data, np.zeros((3, 4, 4)))

    def test_single_pixel_is_sum_of_four_scans(self):
        ss = SS2D(Rng(19), channels=2, n_state=3)
        for p in ss.paths:
            p.astype(np.float64)
        x = Tensor(Rng(20).normal((2, 1, 1)), dtype=np.float64)
        y = ss(x)
        seq = Tensor(x.data.reshape(1, 2), dtype=np.float64)
        expected = sum(selective_scan_seq(seq, p).data for p in ss.paths)
        assert np.max(np.abs(y.data.reshape(1, 2) - expected)) < 1e-12

    def test_scan_reversal_symmetry(self):
        # with shared parameters, the reverse path on x equals the forward
        # path on the flipped map, flipped back
        params = f64_params(21, channels=2, n_state=3)
        fmap = Rng(22).normal((2, 3, 4))
        fwd_on_flipped = selective_scan_seq(
            Tensor(fmap[:, ::-1, ::-1].reshape(2, -1).T.copy(), dtype=np.float64), params)
        rev_on_original = selective_scan_seq(
            Tensor(fmap.reshape(2, -1).T[::-1].copy(), dtype=np.float64), params)
        assert np.max(np.abs(fwd_on_flipped.data - rev_on_original.data)) <= 1e-12

    def test_gradient_matches_fd(self):
        ss = SS2D(Rng(23), channels=4, n_state=4)
        for p in ss.paths:
            p.astype(np.float64)
        f = Tensor(Rng(24).normal((4, 6, 5)), dtype=np.float64, requires_grad=True)
        err = finite_diff_grad_check(lambda f: T.tsum(T.mul(ss(f), ss(f))), [f])
        assert err <= 1e-4


class TestBenchmark:
    def test_rows_and_gate(self):
        rows = run_scan_benchmark(lengths=(64, 128), n_state=4, channels=2, chunk=16, seed=3)
        assert [(r["L"], r["variant"]) for r in rows] == [
            (64, "reference"), (64, "streamed"), (128, "reference"), (128, "streamed")]
        for row in rows:
            assert set(row) >= {"path_count", "L", "N", "C", "variant", "wall_ns", "checksum"}
            assert row["wall_ns"] > 0

    def test_gate_aborts_on_a_deviating_streamed_op(self, monkeypatch):
        real_op = S._scan_op
        monkeypatch.setattr(S, "_scan_op", lambda *args: T.mul(real_op(*args), 1.0 + 1e-9))
        with pytest.raises(AssertionError, match="benchmark gate failed"):
            run_scan_benchmark(lengths=(64,), n_state=4, channels=2, chunk=16, seed=3)

    def test_checksums_deterministic(self):
        r1 = run_scan_benchmark(lengths=(64,), n_state=4, channels=2, chunk=16, seed=3)
        r2 = run_scan_benchmark(lengths=(64,), n_state=4, channels=2, chunk=16, seed=3)
        assert [r["checksum"] for r in r1] == [r["checksum"] for r in r2]
