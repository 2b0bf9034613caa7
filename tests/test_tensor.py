"""Tensor engine: op examples, gradient oracles, graph semantics."""

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_gradients_match_fd(self):
        x, w, b = randt(2, (4, 8)), randt(3, (8, 3)), randt(4, (3,))
        err = finite_diff_grad_check(
            lambda x, w, b: T.tsum(T.mul(T.linear(x, w, b), T.linear(x, w, b))), [x, w, b])
        assert err <= 1e-6

    def test_path_axis_maps_each_path_with_its_weight(self):
        x, w, b = randt(40, (3, 5, 4)), randt(41, (3, 4, 2)), randt(42, (3, 2))
        y = T.linear(x, w, b)
        for p in range(3):
            expected = T.linear(Tensor(x.data[p]), Tensor(w.data[p]), Tensor(b.data[p])).data
            assert np.max(np.abs(y.data[p] - expected)) <= 1e-14

    def test_path_axis_gradients_match_fd(self):
        x, w, b = randt(43, (2, 4, 3)), randt(44, (2, 3, 5)), randt(45, (2, 5))
        err = finite_diff_grad_check(
            lambda x, w, b: T.tsum(T.mul(T.linear(x, w, b), T.linear(x, w, b))), [x, w, b])
        assert err <= 1e-6

    def test_path_count_mismatch(self):
        with pytest.raises(ValueError):
            T.linear(randt(46, (3, 5, 4)), randt(47, (2, 4, 2)))
        with pytest.raises(ValueError):
            T.linear(randt(48, (5, 4)), randt(49, (2, 4, 2)))


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

    @pytest.mark.parametrize("kind", ["silu", "gelu", "relu"])
    def test_gradients_match_fd(self, kind):
        x = Tensor(Rng(11).normal((4, 5)) + 0.2 * np.sign(Rng(11).normal((4, 5))),
                   dtype=np.float64, requires_grad=True)
        fn = getattr(T, kind)
        err = finite_diff_grad_check(lambda x: T.tsum(T.mul(fn(x), fn(x))), [x])
        assert err <= 1e-6


class TestSubNeg:
    def test_one_op_each_and_bit_equal_to_adding_the_negation(self):
        a, b = randt(50, (4, 3)), randt(51, (3,))
        for got, want in ((a - b, a.data + -b.data), (2.0 - b, 2.0 + -b.data),
                          (b - 2.0, b.data + -2.0), (-a, a.data * -1.0)):
            assert np.array_equal(got.data, want)
            node = got._node
            assert node.op in ("sub", "neg") and all(p is None or p.op == "" for p in node.parents)

    def test_gradients_with_broadcasting(self):
        a, b = randt(52, (4, 3)), randt(53, (3,))
        T.tsum(T.mul(a - b, -b)).backward()
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

    def test_relu_keeps_its_output_until_its_backward_ran(self):
        x = randt(90, (3, 4))
        a = T.mul(x, 2.0)
        y = T.relu(a)
        a_ref, y_ref = weakref.ref(a.data), weakref.ref(y.data)
        loss = T.tsum(y)
        node = y._node
        seen = []

        def probe(grad, inner=node.backward):
            seen.append(y_ref() is not None)
            return inner(grad)

        node.backward = probe
        del a, y, probe
        assert a_ref() is None  # relu's backward reads its output, not its input
        assert y_ref() is not None
        loss.backward()
        assert seen == [True]
        assert y_ref() is None
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

    def test_checks_can_be_suspended(self):
        with np.errstate(over="ignore"), T.finite_checks(False):
            y = T.exp(Tensor([1000.0], dtype=np.float64))
        assert np.isinf(y.data).all()


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

    def test_trunc_normal_bounded(self):
        vals = Rng(6).trunc_normal((4096,), std=0.02)
        assert np.abs(vals).max() <= 0.04


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
        # M_MMAP_THRESHOLD at glibc's ceiling for its dynamic threshold, M_TRIM_THRESHOLD 1 GiB
        ceiling = 4 * 1024 * 1024 * T.ctypes.sizeof(T.ctypes.c_long)
        assert sorted(calls) == [(-3, ceiling), (-1, 1 << 30)]

    @pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()],
                             ids=["no_libc", "no_mallopt"])
    def test_quiet_without_mallopt(self, monkeypatch, cdll):
        monkeypatch.setattr(T.ctypes, "CDLL", cdll)
        assert T._keep_freed_heap() is None
