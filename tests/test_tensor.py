"""Tensor engine: op examples, gradient oracles, graph semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dwconv_bruteforce
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


class TestDepthwiseConv:
    def test_delta_kernel_is_identity(self):
        x = randt(5, (3, 6, 7))
        k = np.zeros((3, 3, 3))
        k[:, 1, 1] = 1.0
        y = T.depthwise_conv2d(x, Tensor(k, dtype=np.float64))
        assert np.array_equal(y.data, x.data)

    def test_all_ones_counting(self):
        x = Tensor(np.ones((1, 3, 3)), dtype=np.float64)
        k = Tensor(np.ones((1, 3, 3)), dtype=np.float64)
        y = T.depthwise_conv2d(x, k).data[0]
        assert y[1, 1] == 9.0
        assert y[0, 0] == 4.0
        assert y[0, 1] == 6.0

    def test_matches_bruteforce(self):
        x = Rng(6).normal((4, 8, 8))
        k = Rng(7).normal((4, 3, 3))
        y = T.depthwise_conv2d(Tensor(x, dtype=np.float64), Tensor(k, dtype=np.float64))
        assert np.array_equal(y.data, dwconv_bruteforce(x, k)) or \
            np.max(np.abs(y.data - dwconv_bruteforce(x, k))) < 1e-12

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            T.depthwise_conv2d(randt(0, (2, 4, 4)), randt(1, (2, 2, 2)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            T.depthwise_conv2d(randt(0, (2, 4, 4)), randt(1, (3, 3, 3)))


class TestNorms:
    def test_layer_norm_constant_rows_are_zero(self):
        x = Tensor(np.full((4, 6), 3.7), dtype=np.float64)
        y = T.layer_norm(x, Tensor(np.ones(6), dtype=np.float64), Tensor(np.zeros(6), dtype=np.float64))
        assert np.allclose(y.data, 0.0)

    def test_layer_norm_already_normalized(self):
        x = Tensor([[1.0, -1.0]], dtype=np.float64)
        y = T.layer_norm(x, Tensor(np.ones(2), dtype=np.float64),
                         Tensor(np.zeros(2), dtype=np.float64), eps=1e-12)
        assert np.allclose(y.data, [[1.0, -1.0]], atol=1e-6)

    def test_layer_norm_statistics(self):
        x = randt(8, (10, 16), scale=3.0)
        y = T.layer_norm(x, Tensor(np.ones(16), dtype=np.float64),
                         Tensor(np.zeros(16), dtype=np.float64), eps=1e-12)
        assert np.abs(y.data.mean(axis=-1)).max() < 1e-6
        assert np.abs(y.data.var(axis=-1) - 1.0).max() < 1e-6

    def test_batch_norm_constant_channel_gives_beta(self):
        x = Tensor(np.ones((2, 3, 4, 4)) * np.arange(1, 4)[None, :, None, None], dtype=np.float64)
        beta = Tensor([0.5, -0.5, 2.0], dtype=np.float64)
        y = T.batch_norm2d(x, Tensor(np.ones(3), dtype=np.float64), beta,
                           np.zeros(3), np.ones(3), training=True)
        for c, expect in enumerate([0.5, -0.5, 2.0]):
            assert np.allclose(y.data[:, c], expect)

    def test_batch_norm_train_statistics(self):
        x = randt(9, (4, 3, 8, 8), scale=2.5)
        y = T.batch_norm2d(x, Tensor(np.ones(3), dtype=np.float64),
                           Tensor(np.zeros(3), dtype=np.float64),
                           np.zeros(3), np.ones(3), eps=1e-12, training=True)
        assert np.abs(y.data.mean(axis=(0, 2, 3))).max() < 1e-6
        assert np.abs(y.data.var(axis=(0, 2, 3)) - 1.0).max() < 1e-6

    def test_batch_norm_zero_momentum_keeps_running_stats(self):
        rm, rv = np.full(3, 0.25), np.full(3, 4.0)
        T.batch_norm2d(randt(10, (2, 3, 4, 4)), Tensor(np.ones(3), dtype=np.float64),
                       Tensor(np.zeros(3), dtype=np.float64), rm, rv,
                       momentum=0.0, training=True)
        assert np.array_equal(rm, np.full(3, 0.25))
        assert np.array_equal(rv, np.full(3, 4.0))

    def test_batch_norm_train_needs_two_values(self):
        with pytest.raises(ValueError):
            T.batch_norm2d(randt(0, (1, 3, 1, 1)), Tensor(np.ones(3), dtype=np.float64),
                           Tensor(np.zeros(3), dtype=np.float64), np.zeros(3), np.ones(3),
                           training=True)


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
        err = finite_diff_grad_check(lambda x: T.tsum(T.mul(T.activation(kind, x),
                                                            T.activation(kind, x))), [x])
        assert err <= 1e-6

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            T.activation("tanhh", Tensor([0.0]))


class TestSoftmax:
    def test_single_class_is_ones(self):
        p = T.softmax_channels(Tensor(Rng(12).normal((1, 3, 3)), dtype=np.float64))
        assert np.array_equal(p.data, np.ones((1, 3, 3)))

    def test_symmetry(self):
        p = T.softmax_channels(Tensor(np.zeros((2, 1)), dtype=np.float64))
        assert np.allclose(p.data, 0.5)

    @given(st.floats(min_value=-50, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, c):
        x = Rng(13).normal((4, 5))
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

    def test_unreachable_leaf_gets_zero(self):
        x, z = randt(19, (3,)), randt(20, (3,))
        loss = T.tsum(x)
        loss.backward(leaves=[x, z])
        assert np.array_equal(z.grad, np.zeros(3))

    def test_accumulation_over_reuse(self):
        x = Tensor([2.0], dtype=np.float64, requires_grad=True)
        y = T.mul(x, x) + T.mul(x, 3.0)
        T.tsum(y).backward()
        assert np.allclose(x.grad, [7.0])


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


class TestPermutationOps:
    def test_take_put_roundtrip(self):
        x = randt(25, (3, 4))
        perm = Rng(26).permutation(12).reshape(3, 4)
        gathered = T.take_flat(x, perm, (3, 4), unique=True)
        inverse = np.argsort(perm.reshape(-1)).reshape(3, 4)
        restored = T.take_flat(gathered, inverse, (3, 4), unique=True)
        assert np.array_equal(restored.data, x.data)

    def test_shift2d_round_trip_loses_border(self):
        x = randt(27, (2, 4, 4))
        y = T.shift2d(T.shift2d(x, 1, 0), -1, 0)
        assert np.array_equal(y.data[:, :3, :], x.data[:, :3, :])
        assert np.array_equal(y.data[:, 3, :], np.zeros((2, 4)))

    def test_gather_gradients(self):
        x = randt(28, (2, 3))
        idx = np.array([[0, 0], [5, 1]])
        err = finite_diff_grad_check(
            lambda x: T.tsum(T.mul(T.take_flat(x, idx, (2, 2)), T.take_flat(x, idx, (2, 2)))), [x])
        assert err <= 1e-8


class TestDtypePolicy:
    def test_default_dtype_is_f32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32

    def test_contiguity_after_transpose(self):
        x = randt(29, (2, 3, 4))
        y = T.transpose(x, (2, 0, 1))
        assert y.data.flags["C_CONTIGUOUS"]
