"""Segmentation training losses on class logits."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, constant, exp, log, softmax_channels, take_flat, tmean, tsum

__all__ = ["one_hot", "dice_loss", "ce_loss", "total_loss", "DICE_SMOOTHING"]

DICE_SMOOTHING = 1e-5


def one_hot(mask: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    """[H, W] integer ids -> [K, H, W] one-hot planes."""
    if mask.min() < 0 or mask.max() >= num_classes:
        raise ValueError(f"mask ids must lie in [0, {num_classes})")
    planes = np.zeros((num_classes,) + mask.shape, dtype=dtype)
    k_idx = np.asarray(mask, dtype=np.intp)
    h_idx, w_idx = np.indices(mask.shape)
    planes[k_idx, h_idx, w_idx] = 1.0
    return planes


def dice_loss(probs: Tensor, mask: np.ndarray, eps: float = DICE_SMOOTHING) -> Tensor:
    """1 - mean over classes of the smoothed overlap ratio
    (2 * sum(p*g) + eps) / (sum(p) + sum(g) + eps) against a one-hot mask."""
    k = probs.data.shape[0]
    target = constant(one_hot(mask, k, dtype=probs.data.dtype), like=probs)
    inter = tsum(probs * target, axis=(1, 2))
    denom = tsum(probs, axis=(1, 2)) + constant(target.data.sum(axis=(1, 2)), like=probs)
    dice = (inter * 2.0 + eps) / (denom + eps)
    return 1.0 - tmean(dice)


def ce_loss(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over pixels of -log softmax at the true class (max-stabilized)."""
    k, h, w = logits.data.shape
    if mask.shape != (h, w):
        raise ValueError(f"mask shape {mask.shape} does not match logits {h}x{w}")
    if mask.min() < 0 or mask.max() >= k:
        raise ValueError(f"mask ids must lie in [0, {k})")
    shift = logits.data.max(axis=0, keepdims=True)
    z = logits - constant(shift, like=logits)
    lse = log(tsum(exp(z), axis=0))
    flat = np.asarray(mask, dtype=np.intp) * (h * w) + np.arange(h * w).reshape(h, w)
    picked = take_flat(z, flat, (h, w))
    return tmean(lse - picked)


def total_loss(logits: Tensor, mask: np.ndarray, alpha: float = 0.6) -> Tensor:
    """Convex combination alpha * dice + (1 - alpha) * cross-entropy."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * dice_loss(softmax_channels(logits), mask) + (1.0 - alpha) * ce_loss(logits, mask)
