"""Selective scan: discretization, recurrence oracles, cross-scan geometry."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from conftest import held_bytes, scan_backward_core, scan_scalar_loop
from msvseg import scan as S
from msvseg import tensor as T
from msvseg.gradcheck import _f64_params
from msvseg.scan import SS2D, cross_merge, cross_scan
from msvseg.tensor import (Rng, Tensor, fill_draws, finite_diff_grad_check, no_grad,
                           trunc_normal_draw)

# the [4, ...] tensors of an SS2D, in named_parameters order
SCAN_QUANTITIES = ("a_log", "skip", "w_b", "w_c", "w_dt_down", "w_dt_up", "dt_bias")


def discretize(delta: Tensor, a: Tensor, b: Tensor):
    """Oracle: zero-order-hold transition and Euler input term.

    delta: [L, C] (> 0), a: [C, N], b: [L, N]
    returns Abar = exp(delta * a): [L, C, N] and Bbar = delta * b: [L, C, N].
    """
    if np.any(delta.data <= 0):
        raise ValueError("discretize: delta must be strictly positive")
    l, c = delta.data.shape
    n = a.data.shape[1]
    d3 = T.reshape(delta, (l, c, 1))
    abar = T.exp(T.mul(d3, T.reshape(a, (1, c, n))))
    bbar = T.mul(d3, T.reshape(b, (l, 1, n)))
    return abar, bbar


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

    def test_streamed_block_terms_match(self):
        x, delta, a, b, _, _ = _raw_scan_inputs(3, 1, 9, 3, 4)
        abar_ref, bbar_ref = discretize(*(Tensor(v[0], dtype=np.float64) for v in (delta, a, b)))
        n, c = a.shape[2], a.shape[1]
        # time-major buffers [T, P, N, C]
        abuf, bxbuf = np.empty((9, 1, n, c)), np.empty((9, 1, n, c))
        abar, bx, _ = S._block_terms(x, delta, np.ascontiguousarray(a.transpose(0, 2, 1)), b,
                                     slice(0, 9), abuf, bxbuf)
        assert np.array_equal(abar[:, 0].transpose(0, 2, 1), abar_ref.data)
        # the op forms delta * x first, then multiplies by B
        expected_bx = bbar_ref.data * x[0][:, :, None]
        assert np.max(np.abs(bx[:, 0].transpose(0, 2, 1) - expected_bx)) <= 1e-15 * np.abs(expected_bx).max()


class TestSequentialScan:
    def test_zero_input_zero_output(self):
        x, *rest = _raw_scan_inputs(2, 2, 6, 3, 4)
        y, _ = S._stacked_scan(np.zeros_like(x), *rest, BLOCK)
        assert np.array_equal(y, np.zeros_like(x))

    def test_degenerate_cumulative_sum(self):
        # Abar=1, Bbar*x=x, C=1, D=0 reduces the recurrence to a cumsum
        x = np.arange(1.0, 8.0).reshape(1, 7, 1)
        ones = np.ones((1, 7, 1))
        y, _, _ = S._scan_forward_core(x, ones, np.zeros((1, 1, 1)), ones, ones,
                                       np.zeros((1, 1)), None)
        assert np.array_equal(y.ravel(), np.cumsum(x.ravel()))

    def test_matches_scalar_loop_oracle(self):
        rows, stacked = _two_paths_of_two(4, 7, 2, 3)
        y = S._stacked_scan(*stacked, BLOCK)[0].reshape(4, 7, 2)
        for r in range(4):
            expected = scan_scalar_loop(*(v[r] for v in rows))
            assert np.max(np.abs(y[r] - expected)) < 1e-12

    def test_gradients_match_fd(self):
        _, stacked = _two_paths_of_two(6, 5, 2, 3)
        inputs = [Tensor(v, dtype=np.float64, requires_grad=True) for v in stacked]
        assert finite_diff_grad_check(_scan_square_sum(BLOCK), inputs) <= 1e-4


class TestChunkedScan:
    @pytest.mark.parametrize("block", [1, 2, 7, 64, 40])
    def test_matches_sequential(self, block):
        arrays = _raw_scan_inputs(8, 1, 40, 3, 4)
        y, _ = S._stacked_scan(*arrays, block)
        y_seq, _, _ = S._scan_forward_core(*arrays)
        assert np.max(np.abs(y - y_seq)) <= 1e-12 * np.max(np.abs(y_seq))

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_chunked_reference_is_the_streamed_op(self, chunk):
        # the blocked-versus-sequential contract checks the recurrence the model runs
        arrays = _raw_scan_inputs(8, 2, 40, 3, 4)
        y_chunked, h, abar = S._scan_forward_core(*arrays, chunk)
        assert h is None and abar is None
        assert np.array_equal(y_chunked, S._stacked_scan(*arrays, chunk)[0])

    def test_chunk_one_is_exact(self):
        # block length 1 and the model's block give bit-identical outputs
        arrays = _raw_scan_inputs(10, 1, 12, 2, 2)
        assert np.array_equal(S._stacked_scan(*arrays, 1)[0], S._stacked_scan(*arrays, BLOCK)[0])

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
        # over the 10,000 steps of each path
        ss = SS2D(Rng(12), channels=4, n_state=8)
        with no_grad():
            y = ss(Tensor(Rng(13).normal((100, 100, 4)).astype(np.float32)))
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


def _two_paths_of_two(seed, length, c, n):
    """Raw inputs of two paths with two sequences each, in two forms: four
    rows [4, L, ·] with each path's A and D repeated for its two rows, for
    the references, and the op's stacked form, sequences [2, 2, L, ·] and
    A and D [2, ·] once per path."""
    x, delta, a, b, c_out, skip = _raw_scan_inputs(seed, 4, length, c, n)
    a, skip = a[::2], skip[::2]
    rows = (x, delta, np.repeat(a, 2, axis=0), b, c_out, np.repeat(skip, 2, axis=0))
    x2, d2, b2, c2 = (v.reshape(2, 2, length, -1) for v in (x, delta, b, c_out))
    return rows, (x2, d2, a, b2, c2, skip)


def _scan_square_sum(block):
    """Sum of squares of the streamed recurrence's output at ``block`` steps
    per block, the recurrence recorded as an op so that the finite-difference
    checker can differentiate it."""
    def fn(*inputs):
        y, carries = S._stacked_scan(*(t.data for t in inputs), block)

        def backward(grad):
            return S._stacked_scan_backward(grad, *(t.data for t in inputs), carries, block)

        y = T.record_op(y, inputs, backward, "streamed_scan")
        return T.tsum(T.mul(y, y))
    return fn


BLOCK = S.SCAN_BLOCK


class TestStreamedScan:
    """The streamed forward and backward pair against the full-history
    reference pair."""

    @staticmethod
    def _check_against_core(arrays, block=BLOCK):
        y, carries = S._stacked_scan(*arrays, block)
        y_ref, h, abar = S._scan_forward_core(*arrays)
        # the matmul readout sums over N in another order than the reference
        assert np.max(np.abs(y - y_ref)) <= 1e-12 * np.max(np.abs(y_ref))
        grad_y = Rng(y_ref.size).normal(y_ref.shape)
        expected = scan_backward_core(grad_y, *arrays, h, abar)
        for g, ref in zip(S._stacked_scan_backward(grad_y, *arrays, carries, block), expected):
            assert g.shape == ref.shape
            assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))
        return y

    # around the first and the second block boundary, and several blocks plus a partial one
    @pytest.mark.parametrize("length", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                        2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 6 * BLOCK + 5])
    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("c,n", [(1, 1), (3, 4), (5, 16)])
    def test_matches_full_history_core(self, length, p, c, n):
        self._check_against_core(
            _raw_scan_inputs(length * 97 + p * 11 + c * 3 + n, p, length, c, n))

    @pytest.mark.parametrize("block", [1, 7, 200])
    def test_block_length_changes_no_result(self, block):
        self._check_against_core(_raw_scan_inputs(31, 2, 50, 3, 4), block)

    def test_backward_keeps_only_block_boundary_state(self):
        p, length, c, n = 4, 3 * BLOCK + 5, 3, 4
        _, carries = S._stacked_scan(*_raw_scan_inputs(33, p, length, c, n), BLOCK)
        assert carries.shape == (-(-length // BLOCK), p, n, c)

    def test_chunked_gradients_match_fd(self):
        _, stacked = _two_paths_of_two(34, 9, 2, 3)
        inputs = [Tensor(v, dtype=np.float64, requires_grad=True) for v in stacked]
        assert finite_diff_grad_check(_scan_square_sum(2), inputs) <= 1e-4

    @pytest.mark.parametrize("p", [1, 4])
    def test_inputs_left_unchanged(self, p):
        # at P = 1 the [L, P, ·] view of an input is the input itself
        arrays = _raw_scan_inputs(40 + p, p, 3 * BLOCK + 5, 3, 4)
        originals = [v.copy() for v in arrays]
        y, carries = S._stacked_scan(*arrays, BLOCK)
        S._stacked_scan_backward(Rng(42).normal(y.shape), *arrays, carries, BLOCK)
        for v, original in zip(arrays, originals):
            assert np.array_equal(v, original)


class TestStreamedScanRandomShapes:
    """The recurrence the model runs, on 200 seeded random shapes and block
    lengths."""

    @pytest.mark.parametrize("case", range(200))
    def test_matches_full_history_core(self, case):
        rng = Rng(5000 + case)
        p, length = int(rng.integers(1, 5)), int(rng.integers(1, 513))
        c, n = int(rng.integers(1, 9)), int(rng.integers(1, 17))
        block = int(rng.integers(1, length + 2))
        TestStreamedScan._check_against_core(_raw_scan_inputs(case, p, length, c, n), block)


class TestCrossScan:
    def test_single_pixel(self):
        seqs = cross_scan(Tensor(np.array([[[3.0, 4.0]]]), dtype=np.float64))
        assert seqs.data.shape == (4, 1, 2)
        for s in seqs.data:
            assert np.array_equal(s, [[3.0, 4.0]])

    def test_2x2_enumeration(self):
        fmap = Tensor(np.array([[[1.0], [2.0]], [[3.0], [4.0]]]), dtype=np.float64)
        seqs = [s.ravel().tolist() for s in cross_scan(fmap).data]
        assert seqs[0] == [1, 2, 3, 4]  # rows
        assert seqs[1] == [1, 3, 2, 4]  # columns
        assert seqs[2] == [4, 3, 2, 1]  # reversed rows
        assert seqs[3] == [4, 2, 3, 1]  # reversed columns

    def test_reversed_paths_are_exact_reversals(self):
        fmap = Tensor(Rng(14).normal((4, 5, 3)), dtype=np.float64)
        seqs = cross_scan(fmap).data
        assert np.array_equal(seqs[2], seqs[0][::-1])
        assert np.array_equal(seqs[3], seqs[1][::-1])

    def test_merge_of_scan_is_four_x(self):
        fmap = Tensor(Rng(15).normal((6, 3, 4)), dtype=np.float64)
        merged = cross_merge(cross_scan(fmap), 6, 3)
        assert np.array_equal(merged.data, 4.0 * fmap.data)

    def test_zeroed_path_drops_only_its_contribution(self):
        fmap = Tensor(Rng(16).normal((3, 3, 2)), dtype=np.float64)
        seqs = cross_scan(fmap).data.copy()
        seqs[1] = 0.0
        merged = cross_merge(Tensor(seqs), 3, 3)
        assert np.allclose(merged.data, 3.0 * fmap.data)

    def test_merge_is_linear(self):
        a = Rng(17).normal((4, 12, 2))
        b = Rng(27).normal((4, 12, 2))
        merged_sum = cross_merge(Tensor(a + b, dtype=np.float64), 4, 3)
        sum_merged = (cross_merge(Tensor(a, dtype=np.float64), 4, 3).data
                      + cross_merge(Tensor(b, dtype=np.float64), 4, 3).data)
        assert np.max(np.abs(merged_sum.data - sum_merged)) <= 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cross_merge(Tensor(np.zeros((4, 5, 2))), 2, 2)
        with pytest.raises(ValueError):
            cross_merge(Tensor(np.zeros((3, 4, 2))), 2, 2)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_scatter_gather_roundtrip(self, h, w):
        fmap = Tensor(Rng(h * 31 + w).normal((h, w, 2)), dtype=np.float64)
        seqs = cross_scan(fmap).data
        for path in range(4):
            only = np.zeros_like(seqs)
            only[path] = seqs[path]
            restored = cross_merge(Tensor(only), h, w)
            assert np.array_equal(restored.data, fmap.data)

    @pytest.mark.parametrize("hw", [(1, 1), (3, 5), (6, 2)])
    def test_gradients_are_the_adjoint_layout_moves(self, hw):
        # backward of cross_scan is cross_merge and vice versa
        h, w = hw
        fmap = Tensor(Rng(36).normal((h, w, 3)), dtype=np.float64, requires_grad=True)
        seqs = cross_scan(fmap)
        g_seqs = Rng(37).normal(seqs.data.shape)
        assert np.array_equal(seqs._node.backward(g_seqs)[0], cross_merge(Tensor(g_seqs), h, w).data)
        paths = Tensor(Rng(38).normal((4, h * w, 3)), dtype=np.float64, requires_grad=True)
        merged = cross_merge(paths, h, w)
        g_map = Rng(39).normal(merged.data.shape)
        assert np.array_equal(merged._node.backward(g_map)[0], cross_scan(Tensor(g_map)).data)


def _core_op(x, delta, a, b, c_out, skip):
    """One path through the full-history reference core, recorded as an op."""
    arrays = [t.data[None] for t in (x, delta, a, b, c_out, skip)]
    y, h, abar = S._scan_forward_core(*arrays)

    def backward(grad):
        return tuple(g[0] for g in scan_backward_core(grad[None], *arrays, h, abar))

    return T.record_op(y[0], (x, delta, a, b, c_out, skip), backward, "oracle_scan")


def _softplus(a):
    """Oracle softplus, log(1 + e^x) as np.logaddexp(0, x), recorded as an op
    whose backward multiplies by the logistic function."""
    z = a.data

    def backward(grad):
        return (grad * special.expit(z),)

    return T.record_op(np.logaddexp(0.0, z), (a,), backward, "oracle_softplus")


def _gather(a, flat_index):
    """Oracle gather: out.flat[i] = a.flat[flat_index.flat[i]], recorded as an
    op whose backward scatter-adds."""
    idx = np.asarray(flat_index)

    def backward(grad):
        ga = np.zeros(a.data.size, dtype=grad.dtype)
        np.add.at(ga, idx.ravel(), grad.ravel())
        return (ga.reshape(a.data.shape),)

    return T.record_op(a.data.reshape(-1)[idx], (a,), backward, "oracle_gather")


def _path(t, i):
    """Path i of a stacked [P, ...] parameter, as a differentiable gather."""
    return _gather(t, np.arange(t.data.size).reshape(t.data.shape)[i])


def _projected(ss, i, seqs):
    """Step inputs of sequences [..., L, C] under path i of ``ss``, projected
    in numpy: delta, A, B, C and D, as scan_scalar_loop takes them."""
    p = {name: getattr(ss, name).data[i] for name in SCAN_QUANTITIES}
    delta = np.logaddexp(0.0, seqs @ p["w_dt_down"] @ p["w_dt_up"] + p["dt_bias"])
    return delta, -np.exp(p["a_log"]), seqs @ p["w_b"], seqs @ p["w_c"], p["skip"]


def _ss2d_oracle(ss, fmap):
    """Oracle: gather each path by its pixel order, project it with its own
    parameters, scan it with the full-history core, scatter it back and sum."""
    h, w, c = fmap.data.shape
    row = np.arange(h * w)
    col = (row % h) * w + row // h
    out = None
    for i, perm in enumerate((row, col, row[::-1], col[::-1])):
        p = {name: _path(getattr(ss, name), i) for name in SCAN_QUANTITIES}
        idx = perm[:, None] * c + np.arange(c)[None, :]  # seq[t, ch] = fmap[..., ch].flat[perm[t]]
        seq = _gather(fmap, idx)
        delta = _softplus(T.linear(T.linear(seq, p["w_dt_down"]), p["w_dt_up"]) + p["dt_bias"])
        a = T.mul(T.exp(p["a_log"]), -1.0)
        y = _core_op(seq, delta, a, T.linear(seq, p["w_b"]), T.linear(seq, p["w_c"]), p["skip"])
        restored = _gather(y, np.argsort(idx.ravel()).reshape(h, w, c))
        out = restored if out is None else out + restored
    return out


def _trunc_normal(rng, shape):
    """normal(0, 0.02) draws rejected outside two std, as SS2D fills them."""
    return fill_draws(rng, np.empty(shape), *trunc_normal_draw(0.02))


class TestSS2D:
    def test_parameters_are_four_one_path_sets_stacked(self):
        c, n, rank = 5, 3, S.dt_rank(5)
        ss = SS2D(Rng(43), channels=c, n_state=n)
        assert [name for name, _ in ss.named_parameters()] == list(SCAN_QUANTITIES)
        for name in SCAN_QUANTITIES:
            stacked = getattr(ss, name).data
            assert stacked.dtype == np.float32 and stacked.shape[0] == 4
        assert np.array_equal(ss.a_log.data,
                              np.broadcast_to(np.log(np.arange(1, n + 1, dtype=np.float32)), (4, c, n)))
        assert np.array_equal(ss.skip.data, np.ones((4, c)))
        # path i draws from the block's stream child(i) alone
        for i in range(4):
            r = Rng(43).child(i)
            dt = np.exp(r.child(5).uniform(np.log(1e-3), np.log(1e-1), c))
            drawn = {"w_b": _trunc_normal(r.child(1), (c, n)),
                     "w_c": _trunc_normal(r.child(2), (c, n)),
                     "w_dt_down": _trunc_normal(r.child(3), (c, rank)),
                     "w_dt_up": r.child(4).uniform(-rank ** -0.5, rank ** -0.5, (rank, c)),
                     "dt_bias": np.log(np.expm1(dt))}
            for name, values in drawn.items():
                assert np.array_equal(getattr(ss, name).data[i], values.astype(np.float32))

    @pytest.mark.parametrize("shape", [(5, 4, 3), (9, 8, 2), (1, 6, 1)])
    def test_matches_per_path_gather_oracle(self, shape):
        ss = SS2D(Rng(40), channels=shape[-1], n_state=4)
        # jittered, so that every path's A_log and skip differ from the others'
        params = _f64_params(ss, jitter_rng=Rng(44))
        fmap = Tensor(Rng(41).normal(shape), dtype=np.float64, requires_grad=True)
        weight = Tensor(Rng(42).normal(shape), dtype=np.float64)
        results = []
        for run in (ss, lambda f: _ss2d_oracle(ss, f)):
            for t in [fmap] + params:
                t.grad = None
            y = run(fmap)
            T.tsum(T.mul(y, weight)).backward()
            results.append([y.data] + [t.grad for t in [fmap] + params])
        for got, ref in zip(*results):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_op_keeps_only_its_map_and_block_states(self):
        b, h, w, c, n = 2, 6, 7, 3, 4
        ss = SS2D(Rng(49), channels=c, n_state=n)
        fmap = Tensor(Rng(50).normal((b, h, w, c)).astype(np.float32), requires_grad=True)
        y = ss(fmap)
        assert y._node.op == "selective_scan" and len(y._node.parents) == 8
        blocks = -(-h * w // S.SCAN_BLOCK)
        carries = 4 * b * blocks * n * c * 4
        assert sum(held_bytes(y, ss.parameters()).values()) == fmap.data.nbytes + carries

    @staticmethod
    def _silu_scan_step(dtype):
        """silu then SS2D on a batch of maps, as in SS2DBlock: the silu's and
        the scan's outputs, the parameters, and a function that runs the
        backward and returns every gradient."""
        ss = SS2D(Rng(60), channels=3, n_state=4)
        params = list(ss.parameters())
        for p in params:
            p.data = p.data.astype(dtype)
        x = Tensor(Rng(61).normal((2, 5, 6, 3)), dtype=dtype, requires_grad=True)
        h = T.silu(x)
        y = ss(h)
        weight = T.constant(Rng(62).normal(y.shape), like=y)

        def backward():
            T.tsum(T.mul(y, weight)).backward()
            return [x.grad] + [p.grad for p in params]

        return h, y, params, backward

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_after_silu_gradients_equal_the_kept_map(self, monkeypatch, dtype):
        from conftest import keep_arrays

        _, y, _, backward = self._silu_scan_step(dtype)
        got = backward()
        keep_arrays(monkeypatch)
        _, y_kept, _, backward = self._silu_scan_step(dtype)
        expected = backward()
        assert np.array_equal(y.data, y_kept.data)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype == dtype and np.array_equal(g, e)

    def test_after_silu_holds_no_map_of_its_own(self, monkeypatch):
        from conftest import keep_arrays

        h, y, params, _ = self._silu_scan_step(np.float32)
        silu_input = h.data.nbytes
        assert held_bytes(h) == {"silu": silu_input}
        carries = 4 * 2 * -(-5 * 6 // S.SCAN_BLOCK) * 4 * 3 * 4
        assert held_bytes(y, params) == {"silu": silu_input, "selective_scan": carries}
        # with arrays kept, the scan keeps the silu's output beside its input
        keep_arrays(monkeypatch)
        h, y, params, _ = self._silu_scan_step(np.float32)
        assert held_bytes(y, params) == {"silu": silu_input,
                                         "selective_scan": carries + h.data.nbytes}

    def test_backward_forms_the_silu_sigmoid_once(self, monkeypatch):
        calls = []
        sigmoid = T._sigmoid
        monkeypatch.setattr(T, "_sigmoid", lambda x: calls.append(x.shape) or sigmoid(x))
        _, _, _, backward = self._silu_scan_step(np.float32)
        assert len(calls) == 1  # the forward's; the scan's own sigmoid is S._sigmoid
        backward()
        assert len(calls) == 2

    @pytest.mark.parametrize("name,op", [("dt_bias", "linear"), ("a_log", "exp"),
                                         ("w_c", "linear"), ("skip", "selective_scan")])
    def test_non_finite_step_names_its_op(self, name, op):
        ss = SS2D(Rng(51), channels=2, n_state=3)
        getattr(ss, name).data[...] = {"a_log": 1e3}.get(name, np.inf)
        fmap = Tensor(Rng(52).normal((3, 4, 2)).astype(np.float32), requires_grad=True)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(T.NonFiniteError, match=f"op '{op}' produced"):
                ss(fmap)
        fmap.data[0, 0, 0] = np.nan
        with pytest.raises(T.NonFiniteError, match="op 'cross_scan' produced"):
            ss(fmap)

    def test_small_maps_run_both_pairs_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(S, "fill_workers", lambda: 2)
        threads = []
        run = S._forward_pair

        def recording(k, *args):
            threads.append((k, threading.get_ident()))
            return run(k, *args)

        monkeypatch.setattr(S, "_forward_pair", recording)
        ss = SS2D(Rng(56), channels=4, n_state=2)
        fmap = Tensor(Rng(57).normal((1, 4, 4, 4)))  # 64 * N = 128 state elements per path
        main = threading.get_ident()
        monkeypatch.setattr(S, "_THREAD_MIN_STATE", 129)
        ss(fmap)
        assert threads == [(0, main), (1, main)]
        threads.clear()
        monkeypatch.setattr(S, "_THREAD_MIN_STATE", 128)
        ss(fmap)
        assert [k for k, ident in threads if ident != main] == [1]

    def test_second_pair_failures_raise_and_leave_no_thread(self, monkeypatch):
        monkeypatch.setattr(S, "fill_workers", lambda: 2)
        monkeypatch.setattr(S, "_THREAD_MIN_STATE", 0)
        before = threading.active_count()
        ss = SS2D(Rng(54), channels=2, n_state=3)
        fmap = Tensor(Rng(55).normal((2, 3, 4, 2)).astype(np.float32), requires_grad=True)
        y = ss(fmap)
        assert threading.active_count() == before
        T.tsum(y).backward()
        assert threading.active_count() == before and fmap.grad is not None
        # a failure in the second pair's backward is raised by the op's backward
        y = ss(fmap)
        run = S._backward_pair

        def failing(k, *args):
            if k == 1:
                raise RuntimeError("second pair failed")
            return run(k, *args)

        monkeypatch.setattr(S, "_backward_pair", failing)
        with pytest.raises(RuntimeError, match="second pair failed"):
            T.tsum(y).backward()
        assert threading.active_count() == before
        # the second pair keeps the caller's numpy error handling
        a_log = ss.a_log.data.copy()
        ss.a_log.data[2:] = 1e3
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            ss(fmap)
        assert threading.active_count() == before
        ss.a_log.data[...] = a_log
        # path 3 is in the second pair only
        ss.w_b.data[3, 1, 2] = np.inf
        with pytest.raises(T.NonFiniteError, match="op 'linear' produced"):
            ss(fmap)
        assert threading.active_count() == before
        # both pairs fail: the first pair's op is named, as with one thread, where
        # exp is checked before path 3's B projection
        ss.a_log.data[0] = 1e3
        with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError, match="op 'exp' produced"):
            ss(fmap)
        assert threading.active_count() == before

    def test_overflow_in_the_merge_names_the_scan(self):
        # each path's y is finite (1.5e38 per pixel and channel); only the
        # sum of the four paths overflows float32, and the op reports it
        ss = SS2D(Rng(53), channels=2, n_state=3)
        ss.skip.data[...] = 1.5e38
        with np.errstate(over="ignore"):
            with pytest.raises(T.NonFiniteError, match="op 'selective_scan' produced"):
                ss(Tensor(np.ones((3, 4, 2), np.float32)))

    def test_zero_input_zero_output(self):
        ss = SS2D(Rng(18), channels=3, n_state=4)
        y = ss(Tensor(np.zeros((4, 4, 3))))
        assert np.array_equal(y.data, np.zeros((4, 4, 3)))

    def test_single_pixel_is_sum_of_four_scans(self):
        ss = SS2D(Rng(19), channels=2, n_state=3)
        _f64_params(ss)
        seq = Rng(20).normal((1, 2))
        y = ss(Tensor(seq.reshape(1, 1, 2), dtype=np.float64))
        expected = sum(scan_scalar_loop(seq, *_projected(ss, i, seq)) for i in range(4))
        assert np.max(np.abs(y.data.reshape(1, 2) - expected)) < 1e-12

    def test_scan_reversal_symmetry(self):
        # with shared parameters, the reverse path on x equals the forward
        # path on the flipped map: two sequences of one path in the op
        ss = SS2D(Rng(21), channels=2, n_state=3)
        _f64_params(ss)
        fmap = Rng(22).normal((3, 4, 2))
        seqs = np.stack([fmap[::-1, ::-1].reshape(-1, 2), fmap.reshape(-1, 2)[::-1]])
        delta, a, b, c_out, skip = _projected(ss, 0, seqs)
        y, _ = S._stacked_scan(*(v[None] for v in (seqs, delta, a, b, c_out, skip)), BLOCK)
        fwd_on_flipped, rev_on_original = y[0]
        assert np.max(np.abs(fwd_on_flipped - rev_on_original)) <= 1e-12

    def test_gradient_matches_fd(self):
        ss = SS2D(Rng(23), channels=4, n_state=4)
        _f64_params(ss)
        f = Tensor(Rng(24).normal((6, 5, 4)), dtype=np.float64, requires_grad=True)
        err = finite_diff_grad_check(lambda f: T.tsum(T.mul(ss(f), ss(f))), [f])
        assert err <= 1e-4
