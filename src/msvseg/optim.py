"""AdamW with decoupled weight decay, plus the cosine learning-rate schedule."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

__all__ = ["AdamW", "cosine_lr", "ADAM_BETAS", "ADAM_EPS"]

# Adam's moment decay rates and denominator offset (Kingma & Ba 2015)
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class AdamW:
    """Bias-corrected Adam moments with weight decay applied directly to the
    parameters, separately from the gradient-based update.

    ``step`` forms its temporaries in two scratch buffers per parameter
    dtype, each the size of the largest parameter, allocated here, so a step
    allocates nothing; its values are those of the textbook expression
    p -= lr * (m / corr1) / (sqrt(v / corr2) + eps), operation for operation.
    ``lr`` is a Python float, as ``cosine_lr`` returns.
    """

    def __init__(self, params, weight_decay: float = 0.0):
        self.params: list[Tensor] = list(params)
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        largest = {}
        for m in self.m:
            largest[m.dtype] = max(largest.get(m.dtype, 0), m.size)
        self._scratch = {dtype: (np.empty(size, dtype), np.empty(size, dtype))
                         for dtype, size in largest.items()}

    def step(self, lr: float):
        """One update of every parameter at learning rate ``lr``."""
        b1, b2 = ADAM_BETAS
        self.t += 1
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            num, den = (buf[:m.size].reshape(m.shape) for buf in self._scratch[m.dtype])
            if self.weight_decay:
                p.data *= 1.0 - lr * self.weight_decay
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=num)
            v *= b2
            np.multiply(g, g, out=num)
            num *= 1.0 - b2
            v += num
            np.divide(m, corr1, out=num)
            num *= lr
            np.divide(v, corr2, out=den)
            np.sqrt(den, out=den)
            den += ADAM_EPS
            num /= den
            p.data -= num


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """lr0 * (1 + cos(pi * step / total_steps)) / 2, from lr0 down to zero."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr0 * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0
