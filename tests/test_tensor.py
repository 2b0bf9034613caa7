"""Tensor engine: op examples, gradient oracles, graph semantics."""

import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from conftest import dwconv_bruteforce, dwconv_per_tap
from msvseg import tensor as T
from msvseg.tensor import Rng, Tensor, finite_diff_grad_check


def randt(seed, shape, dtype=np.float64, scale=1.0):
    return Tensor(Rng(seed).normal(shape) * scale, dtype=dtype, requires_grad=True)


class TestLinear:
    def test_identity_weights(self):
        x = Tensor([[1.0, 2.0]], dtype=np.float64)
        w = Tensor(np.eye(2), dtype=np.float64)
        y = T.linear(x, w)
        assert np.array_equal(y.data, [[1.0, 2.0]])

    def test_direct_substitution(self):
        x = Tensor([[1.0, 1.0]], dtype=np.float64)
        w = Tensor([[2.0], [3.0]], dtype=np.float64)
        b = Tensor([1.0], dtype=np.float64)
        assert T.linear(x, w, b).data.tolist() == [[6.0]]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            T.linear(randt(0, (4, 5)), randt(1, (4, 3)))
        with pytest.raises(ValueError):  # a stacked [P, K, M] weight is not a linear layer's
            T.linear(randt(46, (3, 5, 4)), randt(47, (3, 4, 2)))

    def test_gradients_match_fd(self):
        x, w, b = randt(2, (4, 8)), randt(3, (8, 3)), randt(4, (3,))
        err = finite_diff_grad_check(
            lambda x, w, b: T.tsum(T.mul(T.linear(x, w, b), T.linear(x, w, b))), [x, w, b])
        assert err <= 1e-6


class TestDepthwiseConv:
    def test_delta_kernel_is_identity(self):
        x = randt(5, (6, 7, 3))
        k = np.zeros((3, 3, 3))
        k[:, 1, 1] = 1.0
        y = T.depthwise_conv2d(x, Tensor(k, dtype=np.float64))
        assert np.array_equal(y.data, x.data)

    def test_all_ones_counting(self):
        x = Tensor(np.ones((3, 3, 1)), dtype=np.float64)
        k = Tensor(np.ones((1, 3, 3)), dtype=np.float64)
        y = T.depthwise_conv2d(x, k).data[..., 0]
        assert y[1, 1] == 9.0
        assert y[0, 0] == 4.0
        assert y[0, 1] == 6.0

    def test_matches_bruteforce(self):
        x = Rng(6).normal((8, 8, 4))
        k = Rng(7).normal((4, 3, 3))
        y = T.depthwise_conv2d(Tensor(x, dtype=np.float64), Tensor(k, dtype=np.float64))
        assert np.array_equal(y.data, dwconv_bruteforce(x, k)) or \
            np.max(np.abs(y.data - dwconv_bruteforce(x, k))) < 1e-12

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            T.depthwise_conv2d(randt(0, (4, 4, 2)), randt(1, (2, 2, 2)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            T.depthwise_conv2d(randt(0, (4, 4, 2)), randt(1, (3, 3, 3)))


def _assert_close(got, ref, rtol=1e-12):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


class TestDepthwiseConvMatchesPerTap:
    """The single-pass einsum convolution against the per-tap loop it
    replaced: output, input gradient and kernel gradient in float64."""

    @staticmethod
    def _check(x, k, seed):
        grad = Rng(seed).normal(x.shape)
        xt, kt = (Tensor(v, dtype=np.float64, requires_grad=True) for v in (x, k))
        y = T.depthwise_conv2d(xt, kt)
        gx, gk = y._node.backward(grad)
        for got, ref in zip((y.data, gx, gk), dwconv_per_tap(x, k, grad)):
            _assert_close(got, ref)

    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
    @pytest.mark.parametrize("kh,kw", [(1, 1), (3, 3), (5, 5), (3, 5)])
    def test_values_and_gradients(self, lead, kh, kw):
        seed = 10 * kh + kw + len(lead)
        x = Rng(seed).normal(lead + (6, 7, 4))
        k = Rng(seed + 1).normal((4, kh, kw))
        self._check(x, k, seed + 2)

    def test_map_smaller_than_kernel(self):
        self._check(Rng(60).normal((2, 2, 3)), Rng(61).normal((3, 5, 5)), 62)


def conv2d_per_tap(x, w, b, grad):
    """Output and (input, weight, bias) gradients of a 'same' conv2d as the
    per-tap loop over hand-padded maps that the window views replaced."""
    cout, _, kh, kw = w.shape
    x4 = x.reshape((-1,) + x.shape[-3:])
    bsz, h, wd, _ = x4.shape
    pad = ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0))
    xp = np.pad(x4, pad)
    out = np.zeros((bsz, h, wd, cout), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            out += np.tensordot(xp[:, i:i + h, j:j + wd], w[:, :, i, j], axes=([3], [1]))
    out += b
    g4 = grad.reshape((bsz, h, wd, cout))
    gw = np.empty_like(w)
    for i in range(kh):
        for j in range(kw):
            gw[:, :, i, j] = np.tensordot(g4, xp[:, i:i + h, j:j + wd], axes=([0, 1, 2], [0, 1, 2]))
    gp = np.pad(g4, pad)
    gx = np.zeros(x4.shape, dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            gx += np.tensordot(gp[:, kh - 1 - i:kh - 1 - i + h, kw - 1 - j:kw - 1 - j + wd],
                               w[:, :, i, j], axes=([3], [0]))
    return (out.reshape(x.shape[:-1] + (cout,)), gx.reshape(x.shape), gw,
            g4.sum(axis=(0, 1, 2)))


class TestConv2dMatchesPerTap:
    """conv2d over window views against the per-tap loop over hand-padded
    maps: the same tensordots in the same order, so bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("kh,kw", [(3, 3), (1, 3), (5, 1)])
    def test_values_and_gradients_bitwise(self, dtype, lead, kh, kw):
        seed = 10 * kh + kw + len(lead)
        x = Rng(seed).normal(lead + (6, 7, 4)).astype(dtype)
        w = Rng(seed + 1).normal((5, 4, kh, kw)).astype(dtype)
        b = Rng(seed + 2).normal((5,)).astype(dtype)
        grad = Rng(seed + 3).normal(lead + (6, 7, 5)).astype(dtype)
        xt, wt, bt = (Tensor(v, dtype=dtype, requires_grad=True) for v in (x, w, b))
        y = T.conv2d(xt, wt, bt)
        got = (y.data,) + tuple(y._node.backward(grad))
        for g, ref in zip(got, conv2d_per_tap(x, w, b, grad)):
            assert g.dtype == ref.dtype and np.array_equal(g, ref)


class TestMergeKernels:
    def test_centred_sum_plus_identity(self):
        k1, k3 = randt(63, (2, 1, 1)), randt(64, (2, 3, 3))
        merged = T.merge_kernels([k1, k3]).data
        expected = np.zeros((2, 3, 3))
        expected[:, 1, 1] = 1.0 + k1.data[:, 0, 0]
        expected += k3.data
        assert np.array_equal(merged, expected)

    def test_backward_gives_each_kernel_its_centre_crop(self):
        k1, k5 = randt(65, (2, 1, 1)), randt(66, (2, 5, 5))
        grad = Rng(67).normal((2, 5, 5))
        g1, g5 = T.merge_kernels([k1, k5])._node.backward(grad)
        assert np.array_equal(g1, grad[:, 2:3, 2:3])
        assert np.array_equal(g5, grad)

    def test_mismatched_kernels_rejected(self):
        with pytest.raises(ValueError):
            T.merge_kernels([randt(68, (2, 3, 3)), randt(69, (3, 3, 3))])
        with pytest.raises(ValueError):
            T.merge_kernels([randt(70, (2, 2, 2))])


class TestNorms:
    def test_layer_norm_constant_rows_are_zero(self):
        x = Tensor(np.full((4, 6), 3.7), dtype=np.float64)
        y = T.normalize(x, Tensor(np.ones(6), dtype=np.float64), Tensor(np.zeros(6), dtype=np.float64), -1)
        assert np.allclose(y.data, 0.0)

    def test_layer_norm_already_normalized(self):
        x = Tensor([[1.0, -1.0]], dtype=np.float64)
        y = T.normalize(x, Tensor(np.ones(2), dtype=np.float64),
                        Tensor(np.zeros(2), dtype=np.float64), -1)
        assert np.allclose(y.data, [[1.0, -1.0]] / np.sqrt(1.0 + T.NORM_EPS), rtol=1e-12, atol=0)

    def test_layer_norm_statistics(self):
        x = randt(8, (10, 16), scale=3.0)
        y = T.normalize(x, Tensor(np.ones(16), dtype=np.float64),
                        Tensor(np.zeros(16), dtype=np.float64), -1)
        var = x.data.var(axis=-1)
        assert np.abs(y.data.mean(axis=-1)).max() < 1e-6
        assert np.allclose(y.data.var(axis=-1), var / (var + T.NORM_EPS), rtol=1e-12, atol=0)

    def test_batch_norm_constant_channel_gives_beta(self):
        x = Tensor(np.ones((4, 4, 3)) * np.arange(1, 4), dtype=np.float64)
        beta = Tensor([0.5, -0.5, 2.0], dtype=np.float64)
        y = T.normalize(x, Tensor(np.ones(3), dtype=np.float64), beta, (0, 1))
        for c, expect in enumerate([0.5, -0.5, 2.0]):
            assert np.allclose(y.data[..., c], expect)

    def test_batch_norm_train_statistics(self):
        x = randt(9, (8, 8, 3), scale=2.5)
        y = T.normalize(x, Tensor(np.ones(3), dtype=np.float64),
                        Tensor(np.zeros(3), dtype=np.float64), (0, 1))
        var = x.data.var(axis=(0, 1))
        assert np.abs(y.data.mean(axis=(0, 1))).max() < 1e-6
        assert np.allclose(y.data.var(axis=(0, 1)), var / (var + T.NORM_EPS), rtol=1e-12, atol=0)

    def test_batch_norm_single_value_gives_beta(self):
        beta = Tensor([0.5, -0.5, 2.0], dtype=np.float64)
        y = T.normalize(randt(0, (1, 1, 3)), Tensor(np.ones(3), dtype=np.float64), beta, (0, 1))
        assert np.array_equal(y.data.ravel(), beta.data)


def _sqrt(a):
    out = np.sqrt(a.data)
    return T.record_op(out, (a,), lambda grad: (grad * 0.5 / out,), "sqrt")


def _composed_norm(x, gamma, beta, axes, eps=1e-5):
    """The 12-op composition that normalize replaced (2 sum, 5 mul, 3 add,
    sqrt, div), differentiated op by op: the oracle for the fused op."""
    mu = T.tmean(x, axis=axes, keepdims=True)
    xc = x - mu
    var = T.tmean(T.mul(xc, xc), axis=axes, keepdims=True)
    normed = T.div(xc, _sqrt(T.add(var, eps)))
    return T.add(T.mul(normed, gamma), beta)


_NORM_CASES = {
    "layer_rows": (-1, lambda: Rng(40).normal((5, 6)) * 2.0 + 0.5),
    "batch_map": ((0, 1), lambda: Rng(41).normal((8, 8, 3)) * 1.5 - 0.3),
    "layer_map": (-1, lambda: Rng(42).normal((8, 8, 3))),
    "layer_constant_rows": (-1, lambda: np.full((4, 6), 3.7)),
    "batch_constant_channels": ((0, 1), lambda: np.ones((4, 4, 3)) * np.arange(1, 4)),
    "batch_1x1": ((0, 1), lambda: Rng(43).normal((1, 1, 3))),
}


class TestNormalizeMatchesComposition:
    """f64: the fused op against the composed oracle, in values and in the
    gradients of x, gamma and beta, within 1e-12 relative."""

    @staticmethod
    def _run(fn, data, axes):
        c = data.shape[-1]
        x = Tensor(data, dtype=np.float64, requires_grad=True)
        gamma = Tensor(Rng(44).normal(c), dtype=np.float64, requires_grad=True)
        beta = Tensor(Rng(45).normal(c), dtype=np.float64, requires_grad=True)
        y = fn(x, gamma, beta, axes)
        out = y.data.copy()
        T.tsum(T.mul(y, T.constant(Rng(46).normal(data.shape), like=y))).backward()
        return out, x.grad, gamma.grad, beta.grad

    @pytest.mark.parametrize("case", sorted(_NORM_CASES))
    def test_values_and_gradients(self, case):
        axes, make = _NORM_CASES[case]
        fused = self._run(T.normalize, make(), axes)
        composed = self._run(_composed_norm, make(), axes)
        for name, got, ref in zip(("y", "dx", "dgamma", "dbeta"), fused, composed):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    @pytest.mark.parametrize("shape,axes", [((3, 0), -1), ((0, 4, 2), (0, 1)), ((4, 0, 2), (0, 1))])
    def test_empty_reduced_extent_rejected(self, shape, axes):
        with pytest.raises(ValueError, match="empty extent"):
            T.normalize(Tensor(np.zeros(shape)), Tensor(np.ones(shape[-1])),
                        Tensor(np.zeros(shape[-1])), axes)


class TestActivations:
    def test_fixed_points(self):
        z = Tensor([0.0], dtype=np.float64)
        assert T.silu(z).item() == 0.0
        assert T.gelu(z).item() == 0.0
        assert T.relu(Tensor([-3.0], dtype=np.float64)).item() == 0.0

    def test_silu_asymptote(self):
        assert abs(T.silu(Tensor([20.0], dtype=np.float64)).item() - 20.0) < 1e-6

    def test_gelu_uses_exact_gaussian_cdf(self):
        from scipy.stats import norm
        x = np.linspace(-3, 3, 13)
        y = T.gelu(Tensor(x, dtype=np.float64)).data
        assert np.allclose(y, x * norm.cdf(x), atol=1e-12)

    @staticmethod
    def _composed_gelu(a):
        # the composed form gelu's in-place forward replaced, on the engine's
        # erf (which TestErf compares with scipy's)
        a_in = a.data
        phi_cdf = 0.5 * (1.0 + T._erf(a_in / math.sqrt(2.0)))
        return T.record_op(a_in * phi_cdf, (a,), lambda grad: (grad * phi_cdf,), "gelu")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_forward_equals_the_composed_form(self, dtype):
        x = np.concatenate([Rng(56).normal((4096,)) * 4.0, [0.0, -0.0, 1e-30, -40.0, 40.0]])
        x = Tensor(x, dtype=dtype)
        got, expected = T.gelu(x).data, self._composed_gelu(x).data
        assert got.dtype == expected.dtype == dtype and np.array_equal(got, expected)

    def test_toy_logits_equal_the_composed_gelu(self, monkeypatch):
        from msvseg import blocks
        from msvseg.model import ModelConfig, build_model

        model = build_model(ModelConfig(), Rng(57))
        img = Tensor(Rng(58).random((2, 3, 64, 64)).astype(np.float32))
        with T.no_grad():
            got = model(img).data
            monkeypatch.setattr(blocks, "gelu", self._composed_gelu)
            expected = model(img).data
        assert got.dtype == np.float32 and np.array_equal(got, expected)

    @staticmethod
    def _composed_sigmoid(x):
        # the expressions the in-place forms replaced
        s = 1.0 / (1.0 + np.exp(-np.abs(x)))
        return np.where(x >= 0, s, 1.0 - s)

    @staticmethod
    def _composed_softplus(x):
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ["sigmoid", "softplus"])
    def test_in_place_forms_equal_the_composed_ones(self, name, dtype):
        specials = [0.0, -0.0, 1e-30, -1e-30, 1.0, -1.0, 88.0, -88.0, 700.0, -700.0,
                    1e38, -1e38, np.inf, -np.inf, np.nan]
        x = np.concatenate([_float_draws(dtype), _subnormals(dtype),
                            np.array(specials, dtype)])
        with np.errstate(over="ignore"):
            got = getattr(T, f"_{name}")(x)
            expected = getattr(self, f"_composed_{name}")(x)
        nan = np.isnan(expected)
        assert got.dtype == expected.dtype == dtype and np.array_equal(np.isnan(got), nan)
        # bit for bit, so -0.0 and 0.0 differ
        assert got[~nan].tobytes() == expected[~nan].tobytes()

    @pytest.mark.parametrize("kind", ["silu", "gelu", "relu"])
    def test_gradients_match_fd(self, kind):
        x = Tensor(Rng(11).normal((4, 5)) + 0.2 * np.sign(Rng(11).normal((4, 5))),
                   dtype=np.float64, requires_grad=True)
        fn = getattr(T, kind)
        err = finite_diff_grad_check(lambda x: T.tsum(T.mul(fn(x), fn(x))), [x])
        assert err <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_silu_keeps_exactly_its_input(self, dtype):
        from conftest import held_bytes

        x = randt(54, (4, 5), dtype=dtype)
        y = T.silu(x)
        assert held_bytes(y) == {"silu": x.data.nbytes}
        held = [v for v in _closure(y._node.backward).values() if isinstance(v, np.ndarray)]
        assert len(held) == 1 and held[0] is x.data
        # bit-identical to the gradient formed from a kept output and sigmoid,
        # whether the backward forms the sigmoid or the recompute hands it over
        sig = T._sigmoid(x.data)
        grad = Rng(55).normal(x.shape).astype(dtype)
        expected = grad * (sig + x.data * sig * (1.0 - sig))
        for remat_first in (False, True):
            y = T.silu(x)
            if remat_first:
                assert np.array_equal(y._remat(), y.data)
            got = y._node.backward(grad)[0]
            assert got.dtype == expected.dtype and np.array_equal(got, expected)


def _float_draws(dtype, n=1_000_000):
    """n normal draws at each of the scales 0.3, 1, 3 and 10."""
    return np.concatenate([Rng(70 + i).normal((n,)) * scale
                           for i, scale in enumerate((0.3, 1.0, 3.0, 10.0))]).astype(dtype)


def _subnormals(dtype):
    """Every power-of-two subnormal of dtype and its negative, plus random ones."""
    info = np.finfo(dtype)
    bits = np.uint32 if dtype == np.float32 else np.uint64
    steps = (np.uint64(1) << np.arange(info.nmant, dtype=np.uint64)).astype(bits)
    drawn = Rng(75).integers(1, 1 << info.nmant, (1000,)).astype(bits)
    x = np.concatenate([steps, drawn]).view(dtype)
    return np.concatenate([x, -x])


# +-0, +-inf, NaN, huge values, and the seams of the forms: |x| = 1, 8, 26.6
_ERF_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e30, -1e30, 1.0, -1.0,
                 8.0, -8.0, 26.7, -26.7, 1e-30, -1e-30]


class TestErf:
    """The engine's erf against scipy.special.erf, whose Cephes forms it
    evaluates."""

    @staticmethod
    def _erf(x):
        return T._erf(x.copy())

    def test_float32_equals_scipy_bit_for_bit(self):
        x = np.concatenate([_float_draws(np.float32), np.array(_ERF_SPECIALS, np.float32),
                            _subnormals(np.float32)])
        got, expected = self._erf(x), special.erf(x)
        assert got.dtype == np.float32
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_float64_is_within_one_ulp_of_scipy(self):
        x = np.concatenate([_float_draws(np.float64), _ERF_SPECIALS, [1e300, -1e300],
                            _subnormals(np.float64)])
        got, expected = self._erf(x), special.erf(x)
        assert got.dtype == np.float64
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        ok = ~np.isnan(expected)
        assert np.all(np.abs(got[ok] - expected[ok]) <= np.spacing(np.abs(expected[ok])))
        assert np.array_equal(np.signbit(got), np.signbit(expected))
        # the forms without exp, |x| <= 1, are exact
        small = np.abs(x) <= 1.0
        assert np.array_equal(got[small], expected[small])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_floating_point_error(self, dtype):
        extra = [1e300, -1e300, 1e-200] if dtype == np.float64 else []
        x = np.concatenate([_float_draws(dtype, 100_000),
                            np.array(_ERF_SPECIALS + extra, dtype)])
        with np.errstate(all="raise"):
            self._erf(np.concatenate([x, _subnormals(dtype)]))
            T._gauss_cdf(x)

    def test_works_in_place_in_chunks(self, monkeypatch):
        monkeypatch.setattr(T, "_ERF_CHUNK", 7)
        x = _float_draws(np.float32, 25).reshape(4, 25)
        v = x.copy()
        assert T._erf(v) is v and np.array_equal(v, special.erf(x))

    def test_gauss_cdf_of_a_strided_input(self):
        x = _float_draws(np.float32, 300).reshape(40, 30)
        assert np.array_equal(T._gauss_cdf(x.T), T._gauss_cdf(np.ascontiguousarray(x.T)))
        assert np.array_equal(T._gauss_cdf(x[::3, ::2]),
                              T._gauss_cdf(np.ascontiguousarray(x[::3, ::2])))


class TestSubNeg:
    def test_one_op_each_and_bit_equal_to_adding_the_negation(self):
        a, b = randt(50, (4, 3)), randt(51, (3,))
        for got, want in ((a - b, a.data + -b.data), (2.0 - b, 2.0 + -b.data),
                          (b - 2.0, b.data + -2.0)):
            assert np.array_equal(got.data, want)
            node = got._node
            assert node.op == "sub" and all(p is None or p.op == "" for p in node.parents)

    def test_gradients_with_broadcasting(self):
        a, b = randt(52, (4, 3)), randt(53, (3,))
        T.tsum(T.mul(a - b, 0.0 - b)).backward()
        assert np.allclose(a.grad, np.broadcast_to(-b.data, (4, 3)))
        assert np.allclose(b.grad, (2.0 * b.data - a.data).sum(axis=0))


class TestSoftmax:
    def test_single_class_is_ones(self):
        p = T.softmax_channels(Tensor(Rng(12).normal((1, 3, 3)), dtype=np.float64))
        assert np.array_equal(p.data, np.ones((1, 3, 3)))

    def test_symmetry(self):
        p = T.softmax_channels(Tensor(np.zeros((2, 1, 1)), dtype=np.float64))
        assert np.allclose(p.data, 0.5)

    @given(st.floats(min_value=-50, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, c):
        x = Rng(13).normal((4, 5, 1))
        p1 = T.softmax_channels(Tensor(x, dtype=np.float64)).data
        p2 = T.softmax_channels(Tensor(x + c, dtype=np.float64)).data
        assert np.max(np.abs(p1 - p2)) <= 1e-12

    def test_rows_sum_to_one(self):
        p = T.softmax_channels(Tensor(Rng(14).normal((5, 7, 3)) * 8, dtype=np.float64))
        assert np.max(np.abs(p.data.sum(axis=0) - 1.0)) <= 1e-12


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = randt(15, (3, 4))
        T.tsum(x).backward()
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_square_sum_gradient(self):
        x = Tensor([1.0, 2.0], dtype=np.float64, requires_grad=True)
        T.tsum(T.mul(x, x)).backward()
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            randt(16, (2, 2)).backward()

    def test_second_backward_rejected(self):
        x = randt(17, (3,))
        y = T.tsum(x)
        y.backward()
        with pytest.raises(RuntimeError):
            y.backward()

    def test_partial_graph_reuse_rejected(self):
        x = randt(18, (3,))
        mid = T.mul(x, x)
        T.tsum(mid).backward()
        with pytest.raises(RuntimeError):
            T.tsum(mid).backward()

    def test_unreachable_leaf_keeps_no_gradient(self):
        x, z = randt(19, (3,)), randt(20, (3,))
        loss = T.tsum(x)
        loss.backward()
        assert np.array_equal(x.grad, np.ones(3))
        assert z.grad is None

    def test_add_gives_each_parent_its_own_gradient(self):
        # add hands one gradient array to both parents
        a, b = randt(71, (3, 4)), randt(72, (3, 4))
        w = Rng(73).normal((3, 4))
        T.tsum(T.mul(a + b, T.constant(w))).backward()
        assert not np.shares_memory(a.grad, b.grad)
        assert np.array_equal(a.grad, w) and np.array_equal(b.grad, w)
        a.grad += 1.0
        assert np.array_equal(b.grad, w)

    def test_reshape_chain_gradients_are_owned(self):
        # reshape hands its parent a view of its own gradient
        x = randt(74, (2, 6))
        y = T.reshape(x, (3, 4))
        z = T.reshape(y, (12,))
        w = Rng(75).normal(12)
        T.tsum(T.mul(z, T.constant(w))).backward()
        grads = (x.grad, y.grad, z.grad)
        for i, g in enumerate(grads):
            assert all(not np.shares_memory(g, other) for other in grads[i + 1:])
        assert np.array_equal(x.grad, w.reshape(2, 6))
        assert np.array_equal(y.grad, w.reshape(3, 4))
        z.grad += 1.0
        assert np.array_equal(x.grad, w.reshape(2, 6))

    def test_accumulation_over_reuse(self):
        x = Tensor([2.0], dtype=np.float64, requires_grad=True)
        y = T.mul(x, x) + T.mul(x, 3.0)
        T.tsum(y).backward()
        assert np.allclose(x.grad, [7.0])

    def test_node_nobody_holds_is_freed_before_its_parent_runs(self):
        x = randt(76, (3,))
        a = T.mul(x, 2.0)
        y = T.exp(a)
        loss = T.tsum(y)
        y_ref = weakref.ref(y._node)
        del y
        seen = []
        inner = a._node.backward

        def probe(grad):
            seen.append(y_ref() is None)
            return inner(grad)

        a._node.backward = probe
        loss.backward()
        assert seen == [True]
        assert np.allclose(x.grad, 2.0 * np.exp(2.0 * x.data))

    def test_activation_no_backward_reads_dies_with_its_name(self):
        # linear's output feeds only an add, whose backward reads no operand
        x, w, z = randt(87, (4, 5)), randt(88, (5, 3)), randt(89, (4, 3))
        h = T.linear(x, w)
        h_ref = weakref.ref(h.data)
        loss = T.tsum(h + z)
        del h
        assert h_ref() is None
        loss.backward()
        assert np.array_equal(w.grad, x.data.T @ np.ones((4, 3)))
        assert np.array_equal(z.grad, np.ones((4, 3)))

    def test_relu_keeps_its_input_until_its_backward_ran(self):
        # mul sets no recompute, so relu keeps its input array; its output,
        # which its recompute forms again, dies with its name
        x = randt(90, (3, 4))
        a = T.mul(x, 2.0)
        y = T.relu(a)
        a_ref, y_ref = weakref.ref(a.data), weakref.ref(y.data)
        loss = T.tsum(y)
        node = y._node
        seen = []

        def probe(grad, inner=node.backward):
            seen.append(a_ref() is not None)
            return inner(grad)

        node.backward = probe
        del a, y, probe
        assert y_ref() is None
        assert a_ref() is not None
        loss.backward()
        assert seen == [True]
        assert a_ref() is None
        assert np.array_equal(x.grad, 2.0 * (x.data > 0))

    def test_leaf_gradient_follows_replaced_data_dtype(self):
        # as gradcheck._f64_params casts parameters after construction
        p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        p.data = p.data.astype(np.float64) + 1e-12
        T.tsum(T.mul(p, p)).backward()
        assert p.grad.dtype == np.float64
        assert np.array_equal(p.grad, 2.0 * p.data)


def _linear_bias(x, w):
    return T.linear(x, w, Tensor(Rng(77).normal((3,)), dtype=np.float64))


class TestConstantParents:
    """An op hands no gradient to a parent that does not require one, and the
    other parent's gradient is the one it gets when both require one."""

    @pytest.mark.parametrize("op,shapes", [
        (T.add, ((4, 3), (3,))),
        (T.sub, ((4, 3), (4, 1))),
        (T.mul, ((4, 3), (4, 3))),
        (T.linear, ((2, 4, 5), (5, 3))),
        (_linear_bias, ((4, 5), (5, 3))),
    ])
    @pytest.mark.parametrize("constant", [0, 1])
    def test_constant_operand_gets_none(self, op, shapes, constant):
        values = [Rng(80 + i).normal(shape) for i, shape in enumerate(shapes)]
        both = [Tensor(v, dtype=np.float64, requires_grad=True) for v in values]
        grad = Rng(79).normal(op(*both).data.shape)
        want = op(*both)._node.backward(grad)[1 - constant]
        one = [Tensor(v, dtype=np.float64, requires_grad=i != constant)
               for i, v in enumerate(values)]
        got = op(*one)._node.backward(grad)
        assert got[constant] is None
        assert np.array_equal(got[1 - constant], want)

    def test_constant_bias_gets_none(self):
        x, w = randt(83, (4, 5)), randt(84, (5, 3))
        b = Tensor(Rng(85).normal((3,)), dtype=np.float64)
        gx, gw, gb = T.linear(x, w, b)._node.backward(Rng(86).normal((4, 3)))
        assert gb is None and gx is not None and gw is not None


class TestFiniteDiffHarness:
    def test_identity_sum_error_zero(self):
        err = finite_diff_grad_check(lambda x: T.tsum(x), [randt(21, (4,))])
        assert err < 1e-10

    def test_linear_error_small(self):
        x, w = randt(22, (3, 4)), randt(23, (4, 2))
        err = finite_diff_grad_check(lambda x, w: T.tsum(T.linear(x, w)), [x, w])
        assert err <= 1e-8

    def test_non_scalar_fn_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad_check(lambda x: x, [randt(24, (3,))])

    def test_ignored_input_has_zero_error(self):
        # z is never reached, so its gradient stays None and reads as zero
        err = finite_diff_grad_check(lambda x, z: T.tsum(x), [randt(25, (4,)), randt(26, (3,))])
        assert err < 1e-10
        err = finite_diff_grad_check(lambda z: T.constant(np.ones(())), [randt(27, (3,))])
        assert err == 0.0


class TestNanPolicy:
    def test_overflow_aborts_with_op_name(self):
        with np.errstate(over="ignore"):
            with pytest.raises(T.NonFiniteError, match="exp"):
                T.exp(Tensor([1000.0], dtype=np.float64))


class TestRng:
    def test_same_seed_bit_identical(self):
        a = Rng(99).normal((64,))
        b = Rng(99).normal((64,))
        assert np.array_equal(a, b)

    def test_children_independent_of_order(self):
        r = Rng(5)
        c3 = r.child(3).normal((8,))
        r2 = Rng(5)
        _ = r2.child(1).normal((8,))
        assert np.array_equal(c3, r2.child(3).normal((8,)))


class TestDtypePolicy:
    def test_default_dtype_is_f32(self):
        assert Tensor([1, 2, 3]).data.dtype == np.float32

    def test_contiguity_after_transpose(self):
        x = randt(29, (2, 3, 4))
        y = T.transpose(x, (2, 0, 1))
        assert y.data.flags["C_CONTIGUOUS"]


# runs five toy training steps and prints the page faults of each step
_FAULTS_SCRIPT = """
import json, resource
from msvseg import data, train
from msvseg.model import ModelConfig, build_model
from msvseg.optim import AdamW
from msvseg.tensor import Rng

faults = []
inner = AdamW.step

def step(opt, lr=None):
    inner(opt, lr)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

AdamW.step = step
cfg = ModelConfig()
samples = data.gen_synthetic_dataset(8, cfg.num_classes, 64, Rng(0))
train.train_loop(build_model(cfg, Rng(0)), samples,
                 train.TrainConfig(batch_size=8, max_steps=5, eval_every=6),
                 eval_samples=samples[:1])
print(json.dumps([b - a for a, b in zip(faults, faults[1:])]))
"""


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


def _no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


class TestHeapPolicy:
    @pytest.mark.skipif(not _glibc(), reason="the heap policy applies to glibc only")
    def test_steady_training_steps_fault_few_pages(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        per_step = json.loads(done.stdout.strip().splitlines()[-1])
        assert len(per_step) == 4
        # steps 3 to 5; without the policy each faults about 22,000 pages
        assert max(per_step[1:]) < 1000, per_step

    @pytest.mark.skipif(not _glibc(), reason="the heap policy applies to glibc only")
    def test_sets_both_thresholds(self, monkeypatch):
        calls = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(T.ctypes, "CDLL", lambda name: Libc())
        T._keep_freed_heap()
        # M_MMAP_THRESHOLD at glibc's ceiling for its dynamic threshold, M_TRIM_THRESHOLD 1 GiB,
        # M_ARENA_MAX 1
        ceiling = 4 * 1024 * 1024 * T.ctypes.sizeof(T.ctypes.c_long)
        assert sorted(calls) == [(-8, 1), (-3, ceiling), (-1, 1 << 30)]

    @pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()],
                             ids=["no_libc", "no_mallopt"])
    def test_quiet_without_mallopt(self, monkeypatch, cdll):
        monkeypatch.setattr(T.ctypes, "CDLL", cdll)
        assert T._keep_freed_heap() is None


def _closure(fn) -> dict:
    """The cells of a backward closure, by name."""
    return dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))


def _normalize_backward_unchunked(cells, axes, grad):
    """normalize's backward as one expression over whole arrays, which the
    chunked form must round exactly as."""
    x_hat, sigma, gamma_in = cells["x_hat"], cells["sigma"], cells["gamma_in"]
    g = grad * gamma_in
    gx = (g - g.mean(axis=axes, keepdims=True)
          - x_hat * (g * x_hat).mean(axis=axes, keepdims=True)) / sigma
    return (gx, T._unbroadcast(grad * x_hat, gamma_in.shape),
            T._unbroadcast(grad, cells["beta_shape"]))


def _gelu_backward_keeping_phi(a_in, grad):
    """gelu's backward from a kept Phi and a composed pdf."""
    phi_cdf = T._erf(np.divide(a_in, math.sqrt(2.0)))
    phi_cdf += 1.0
    phi_cdf *= 0.5
    pdf = np.exp(-0.5 * a_in * a_in) / math.sqrt(2.0 * math.pi)
    return grad * (phi_cdf + a_in * pdf)


def _norm_node(shape, axes, dtype, seed=60):
    c = shape[-1]
    x = Tensor(Rng(seed).normal(shape) * 1.7 + 0.4, dtype=dtype, requires_grad=True)
    gamma = Tensor(Rng(seed + 1).normal(c), dtype=dtype, requires_grad=True)
    beta = Tensor(Rng(seed + 2).normal(c), dtype=dtype, requires_grad=True)
    y = T.normalize(x, gamma, beta, axes)
    return y._node.backward, Rng(seed + 3).normal(shape).astype(dtype)


class TestLeanBackwards:
    """normalize's chunked backward and gelu's recomputing one give the bits
    of the whole-array expressions, and hold or allocate only what they say."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "batch3"])
    @pytest.mark.parametrize("kind,axes,tail", [
        ("layer", -1, (7, 5, 6)),
        ("layer_c1", -1, (7, 5, 1)),
        ("batch", (-3, -2), (5, 4, 6)),
        ("batch_1x1", (-3, -2), (1, 1, 6)),
        ("batch_positive_axes", (0, 1), (5, 4, 6)),
    ])
    @pytest.mark.parametrize("chunk_rows", [None, 2], ids=["default_chunk", "two_row_chunks"])
    def test_normalize_gradients_equal_the_unchunked_expression(
            self, monkeypatch, dtype, lead, kind, axes, tail, chunk_rows):
        shape = lead + tail
        if kind == "batch_positive_axes":
            axes = tuple(len(lead) + ax for ax in axes)
        if chunk_rows is not None:
            first = min(ax % len(shape) for ax in ((axes,) if isinstance(axes, int) else axes))
            row_bytes = math.prod(shape[first:]) * np.dtype(dtype).itemsize
            # an odd row count in two-row chunks leaves a short last chunk
            monkeypatch.setattr(T, "_NORM_CHUNK_BYTES", chunk_rows * row_bytes)
        backward, grad = _norm_node(shape, axes, dtype)
        got = backward(grad)
        expected = _normalize_backward_unchunked(_closure(backward), axes, grad)
        for name, g, e in zip(("x", "gamma", "beta"), got, expected):
            assert g.dtype == e.dtype == dtype and g.shape == e.shape, name
            assert np.array_equal(g, e), name

    def test_normalize_backward_allocates_one_gradient_and_one_chunk(self):
        import tracemalloc

        def traced(fn, grad):
            """fn(grad) and the bytes it allocated at its peak."""
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                result = fn(grad)
                return result, tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        backward, grad = _norm_node((2, 96, 96, 32), -1, np.float32)
        got, peak = traced(backward, grad)
        expected, whole_peak = traced(
            lambda g: _normalize_backward_unchunked(_closure(backward), -1, g), grad)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))
        # slack for the per-row means, numpy's reduction buffers and the
        # gamma and beta sums: about 230 KiB here
        assert peak <= grad.nbytes + T._NORM_CHUNK_BYTES + (512 << 10), peak
        # the whole-array expression, traced the same way, holds three at once
        assert whole_peak >= 3 * grad.nbytes, whole_peak

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_input_gradient_equals_the_kept_phi_form(self, dtype):
        x = np.concatenate([Rng(61).normal((4096,)) * 4.0, [0.0, -0.0, 1e-30, -40.0, 40.0]])
        x = Tensor(x, dtype=dtype, requires_grad=True)
        grad = Rng(62).normal(x.shape).astype(dtype)
        got = T.gelu(x)._node.backward(grad)[0]
        expected = _gelu_backward_keeping_phi(x.data, grad)
        assert got.dtype == expected.dtype == dtype and np.array_equal(got, expected)

    def test_gelu_holds_exactly_its_input(self):
        from conftest import held_bytes

        x = randt(63, (4, 9, 8), dtype=np.float32)
        y = T.gelu(x)
        assert held_bytes(y) == {"gelu": x.data.nbytes}
        held = [v for v in _closure(y._node.backward).values() if isinstance(v, np.ndarray)]
        assert len(held) == 1 and held[0] is x.data


def _norm_linear(x, p):
    h = T.normalize(x, p["gamma"], p["beta"], -1)
    return h, T.linear(h, p["w"], p["b"])


def _gelu_linear(x, p):
    h = T.gelu(x)
    return h, T.linear(h, p["w"], p["b"])


def _gelu_dwconv(x, p):
    h = T.gelu(x)
    return h, T.depthwise_conv2d(h, p["k"])


def _bn_relu_dwconv(x, p):
    # relu holds no array of its own either: held is counted from the norm
    h = T.normalize(x, p["gamma"], p["beta"], (-3, -2))
    return h, T.depthwise_conv2d(T.relu(h), p["k"])


RECOMPUTED_PAIRS = {"norm_linear": _norm_linear, "gelu_linear": _gelu_linear,
                    "gelu_dwconv": _gelu_dwconv, "bn_relu_dwconv": _bn_relu_dwconv}


def _pair_step(pair, dtype):
    """One forward and backward of a producer/consumer pair on [2, 5, 6, 8]
    maps; returns the producer's and consumer's outputs, before backward,
    and a function that runs the backward and returns every gradient."""
    c = 8
    x = Tensor(Rng(64).normal((2, 5, 6, c)) * 1.5, dtype=dtype, requires_grad=True)
    shapes = {"gamma": (c,), "beta": (c,), "w": (c, 3), "b": (3,), "k": (c, 3, 3)}
    params = {name: Tensor(Rng(65).child(i).normal(shape), dtype=dtype, requires_grad=True)
              for i, (name, shape) in enumerate(shapes.items())}
    h, y = RECOMPUTED_PAIRS[pair](x, params)
    weight = T.constant(Rng(66).normal(y.shape), like=y)

    def backward():
        T.tsum(T.mul(y, weight)).backward()
        return [x.grad] + [p.grad for p in params.values()]

    return h, y, list(params.values()), backward


class TestRecompute:
    """normalize, gelu, silu and relu outputs are formed again in their
    consumer's backward (``Tensor._remat``), bit for bit, and no consumer
    keeps an array of its own for them."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pair", sorted(RECOMPUTED_PAIRS))
    def test_gradients_equal_the_kept_arrays(self, monkeypatch, pair, dtype):
        from conftest import keep_arrays

        _, y, _, backward = _pair_step(pair, dtype)
        got = backward()
        keep_arrays(monkeypatch)
        _, y_kept, _, backward = _pair_step(pair, dtype)
        expected = backward()
        assert np.array_equal(y.data, y_kept.data)
        for g, e in zip(got, expected):
            assert (g is None) == (e is None)
            if g is not None:
                assert g.dtype == e.dtype == dtype and np.array_equal(g, e)

    @pytest.mark.parametrize("pair", sorted(RECOMPUTED_PAIRS))
    def test_consumer_holds_no_array_of_its_own(self, monkeypatch, pair):
        from conftest import held_bytes, keep_arrays

        h, y, params, _ = _pair_step(pair, np.float32)
        producer = sum(held_bytes(h, params).values())
        # a depthwise conv keeps its kernel's taps, [kh, kw, C], and nothing else
        taps = params[-1].data.nbytes if pair.endswith("dwconv") else 0
        assert producer > 0 and sum(held_bytes(y, params).values()) == producer + taps
        # with arrays kept, the same count sees the consumer's own
        keep_arrays(monkeypatch)
        h, y, params, _ = _pair_step(pair, np.float32)
        assert sum(held_bytes(y, params).values()) > sum(held_bytes(h, params).values()) + taps

    @pytest.mark.parametrize("pair", ["gelu_linear", "gelu_dwconv"])
    def test_backward_forms_phi_once(self, monkeypatch, pair):
        calls = []
        gauss_cdf = T._gauss_cdf
        monkeypatch.setattr(T, "_gauss_cdf", lambda x: calls.append(x.shape) or gauss_cdf(x))
        _, _, _, backward = _pair_step(pair, np.float32)
        assert len(calls) == 1  # the forward's
        backward()
        assert len(calls) == 2

    @staticmethod
    def _producers(x, gamma, beta):
        ln = T.normalize(x, gamma, beta, -1)
        bn = T.normalize(x, gamma, beta, (-3, -2))
        return {"layer_norm": ln, "batch_norm": bn, "gelu": T.gelu(x), "silu": T.silu(x),
                "relu_after_norm": T.relu(bn), "relu_after_mul": T.relu(T.mul(x, 1.5))}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_recompute_is_a_fresh_copy_of_the_output(self, dtype):
        x = randt(67, (2, 4, 5, 6), dtype=dtype)
        gamma, beta = randt(68, (6,), dtype=dtype), randt(69, (6,), dtype=dtype)
        outputs = self._producers(x, gamma, beta)
        for name in list(outputs):
            y = outputs.pop(name)
            held = [v for v in _closure(y._node.backward).values() if isinstance(v, np.ndarray)]
            before = [arr.copy() for arr in held]
            again = y._remat()
            assert again.dtype == y.data.dtype and np.array_equal(again, y.data), name
            # a fresh array, formed without writing to what the backward reads
            assert not any(np.shares_memory(again, arr) for arr in held + [y.data]), name
            assert all(np.array_equal(arr, b) for arr, b in zip(held, before)), name
            # the recompute does not keep the output alive
            ref, remat = weakref.ref(y.data), y._remat
            del y
            assert ref() is None, name
            assert np.array_equal(remat(), again), name

    def test_no_grad_forward_sets_no_recompute(self):
        x = randt(70, (2, 4, 5, 6), dtype=np.float32)
        gamma, beta = randt(71, (6,), dtype=np.float32), randt(72, (6,), dtype=np.float32)
        with T.no_grad():
            outputs = self._producers(x, gamma, beta)
        # nor does a forward whose inputs take no gradient
        outputs.update({f"{k}_constant": v for k, v in self._producers(
            Tensor(x.data), Tensor(gamma.data), Tensor(beta.data)).items()})
        for name, y in outputs.items():
            assert y._node is None and y._remat is None, name


def _probe_op(parents, grads):
    """An op whose backward hands ``grads`` to ``parents``."""
    return T.record_op(np.zeros(()), parents, lambda g: grads, "probe")


class TestGradientAdoption:
    """A first contribution that nothing else can hold becomes the parent's
    gradient without a copy; any other is copied."""

    def test_owned_contribution_is_adopted(self):
        x = randt(80, (3, 4))
        g = np.full((3, 4), 2.0)
        _probe_op((x,), (g,)).backward()
        assert x.grad is g

    @pytest.mark.parametrize("contribution", [
        lambda grad, g: g[:, :],
        lambda grad, g: g.astype(np.float32),
        lambda grad, g: grad,
    ], ids=["view", "other_dtype", "own_gradient"])
    def test_other_contributions_are_copied(self, contribution):
        x = randt(81, (3, 4))
        g = np.full((3, 4), 2.0)
        y = T.record_op(np.zeros((3, 4)), (x,), lambda grad: (contribution(grad, g),), "probe")
        T.tsum(y).backward()
        assert x.grad.dtype == np.float64
        assert np.array_equal(x.grad, contribution(y.grad, g))
        assert not np.shares_memory(x.grad, g) and not np.shares_memory(x.grad, y.grad)

    def test_array_handed_to_two_parents_is_copied_for_the_second(self):
        a, b = randt(82, (3,)), randt(83, (3,))
        g = np.full(3, 2.0)
        _probe_op((a, b), (g, g)).backward()
        assert a.grad is g
        assert np.array_equal(b.grad, g) and not np.shares_memory(a.grad, b.grad)

    def test_toy_step_gradients_share_no_memory(self, monkeypatch):
        from msvseg import scan
        from msvseg.losses import total_loss
        from msvseg.model import TOY_PRESET, build_model

        outputs = []

        def holding(record_op):
            def held(*args):
                outputs.append(record_op(*args))
                return outputs[-1]
            return held

        for module in (T, scan):
            monkeypatch.setattr(module, "record_op", holding(module.record_op))
        model = build_model(TOY_PRESET, Rng(0))
        img = Tensor(Rng(1).random((2, 3, 64, 64)).astype(np.float32))
        mask = Rng(2).integers(0, 4, (2, 64, 64)).astype(np.int32)
        total_loss(model.forward(img), mask, TOY_PRESET.alpha).backward()
        grads = [t.grad for t in list(model.parameters()) + outputs if t.grad is not None]
        assert len(grads) > 200
        spans = sorted(np.lib.array_utils.byte_bounds(g) for g in grads)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start
