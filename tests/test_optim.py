"""AdamW and the cosine schedule against scalar references."""

import math
import tracemalloc

import numpy as np
import pytest

from msvseg.optim import ADAM_BETAS, ADAM_EPS, AdamW, cosine_lr
from msvseg.tensor import Rng, Tensor


def param(values):
    t = Tensor(np.asarray(values, dtype=np.float64), dtype=np.float64, requires_grad=True)
    t.grad = np.zeros_like(t.data)
    return t


class TestAdamW:
    def test_zero_grad_zero_decay_keeps_params(self):
        p = param([1.0, -2.0, 3.0])
        opt = AdamW([p], weight_decay=0.0)
        opt.step(0.1)
        assert np.array_equal(p.data, [1.0, -2.0, 3.0])

    def test_pure_decay_shrinks_multiplicatively(self):
        p = param([2.0, -4.0])
        opt = AdamW([p], weight_decay=0.5)
        opt.step(0.1)
        assert np.allclose(p.data, np.array([2.0, -4.0]) * (1 - 0.1 * 0.5), atol=1e-15)

    def test_first_step_matches_scalar_reference(self):
        g = np.array([0.3, -1.7, 0.0002])
        p = param([1.0, 1.0, 1.0])
        p.grad = g.copy()
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        opt = AdamW([p], weight_decay=0.0)
        opt.step(lr)
        expected = np.empty(3)
        for i, gi in enumerate(g):
            m = (1 - b1) * gi / (1 - b1)
            v = (1 - b2) * gi * gi / (1 - b2)
            expected[i] = 1.0 - lr * m / (math.sqrt(v) + eps)
        assert np.max(np.abs(p.data - expected)) <= 1e-12

    def test_multi_step_matches_scalar_reference(self):
        rng = Rng(0)
        p = param(rng.normal((5,)))
        start = p.data.copy()
        lr, wd, b1, b2, eps = 2e-3, 0.01, 0.9, 0.999, 1e-8
        opt = AdamW([p], weight_decay=wd)
        grads = [rng.normal((5,)) for _ in range(4)]

        ref = start.copy()
        m = np.zeros(5)
        v = np.zeros(5)
        for t, g in enumerate(grads, start=1):
            ref *= 1 - lr * wd
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

        for g in grads:
            p.grad = g.copy()
            opt.step(lr)
        assert np.max(np.abs(p.data - ref)) <= 1e-12

    def test_decayed_steps_equal_the_expression_form_bit_for_bit(self):
        # each update as one expression per moment and one for the
        # parameter, every temporary a fresh array
        rng = Rng(3)
        shapes = [(4, 5, 6), (7,), (3, 3)]
        params = [Tensor(rng.normal(s).astype(np.float32), requires_grad=True) for s in shapes]
        ref = [p.data.copy() for p in params]
        m = [np.zeros_like(r) for r in ref]
        v = [np.zeros_like(r) for r in ref]
        lr, wd, (b1, b2), eps = 3e-3, 0.05, ADAM_BETAS, ADAM_EPS
        opt = AdamW(params, weight_decay=wd)
        for t in range(1, 6):
            grads = [rng.normal(s).astype(np.float32) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step(lr)
            for i, g in enumerate(grads):
                ref[i] *= 1.0 - lr * wd
                m[i] = m[i] * b1 + (1.0 - b1) * g
                v[i] = v[i] * b2 + (1.0 - b2) * (g * g)
                ref[i] -= lr * (m[i] / (1.0 - b1 ** t)) / (np.sqrt(v[i] / (1.0 - b2 ** t)) + eps)
        for p, r in zip(params, ref):
            assert p.data.dtype == np.float32 and np.array_equal(p.data, r)

    def test_step_allocates_no_parameter_sized_temporaries(self):
        params = [param(Rng(i).normal((256, 256))) for i in range(3)]
        for i, p in enumerate(params):
            p.grad = Rng(10 + i).normal(p.data.shape)
        opt = AdamW(params, weight_decay=0.01)
        opt.step(1e-3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            opt.step(1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the expression form peaks at three temporaries of one parameter
        assert peak - base < params[0].data.nbytes // 4

    def test_none_grad_treated_as_zero(self):
        p = Tensor(np.ones(3), dtype=np.float64, requires_grad=True)
        opt = AdamW([p], weight_decay=0.0)
        opt.step(0.1)
        assert np.array_equal(p.data, np.ones(3))


class TestCosine:
    def test_endpoints(self):
        assert cosine_lr(0, 100, 3e-4) == pytest.approx(3e-4)
        assert cosine_lr(100, 100, 3e-4) == pytest.approx(0.0, abs=1e-20)

    def test_midpoint_half(self):
        assert cosine_lr(50, 100, 1.0) == pytest.approx(0.5)

    def test_monotone_non_increasing(self):
        values = [cosine_lr(s, 200, 1e-3) for s in range(201)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cosine_lr(101, 100, 1e-3)
        with pytest.raises(ValueError):
            cosine_lr(-1, 100, 1e-3)
