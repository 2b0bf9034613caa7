"""Segmentation training losses on class logits.

Logits are [..., K, H, W] and masks [..., H, W]: any leading shape is a
batch of images, all of one size, and a single image has the leading
shape ().
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, constant, exp, log, softmax_channels, tmean, tsum

__all__ = ["one_hot", "dice_loss", "ce_loss", "total_loss", "DICE_SMOOTHING"]

DICE_SMOOTHING = 1e-5


def one_hot(mask: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    """[..., H, W] integer ids -> [..., K, H, W] one-hot planes."""
    mask = np.asarray(mask)
    if mask.min() < 0 or mask.max() >= num_classes:
        raise ValueError(f"mask ids must lie in [0, {num_classes})")
    classes = np.arange(num_classes).reshape(num_classes, 1, 1)
    return (mask[..., None, :, :] == classes).astype(dtype)


def dice_loss(probs: Tensor, mask: np.ndarray) -> Tensor:
    """1 - mean over images and classes of the smoothed overlap ratio
    (2 * sum(p*g) + eps) / (sum(p) + sum(g) + eps), eps = DICE_SMOOTHING, of
    each image and class against a one-hot mask, the sums running over (H, W)."""
    k = probs.data.shape[-3]
    target = constant(one_hot(mask, k, dtype=probs.data.dtype), like=probs)
    inter = tsum(probs * target, axis=(-2, -1))
    denom = tsum(probs, axis=(-2, -1)) + constant(target.data.sum(axis=(-2, -1)), like=probs)
    dice = (inter * 2.0 + DICE_SMOOTHING) / (denom + DICE_SMOOTHING)
    return 1.0 - tmean(dice)


def ce_loss(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over all pixels of -log softmax at the true class (max-stabilized)."""
    *lead, k, h, w = logits.data.shape
    mask = np.asarray(mask)
    if mask.shape != (*lead, h, w):
        raise ValueError(f"mask shape {mask.shape} does not match logits {logits.data.shape}")
    target = constant(one_hot(mask, k, dtype=logits.data.dtype), like=logits)
    shift = logits.data.max(axis=-3, keepdims=True)
    z = logits - constant(shift, like=logits)
    lse = log(tsum(exp(z), axis=-3))
    picked = tsum(z * target, axis=-3)  # z at the true class of each pixel
    return tmean(lse - picked)


def total_loss(logits: Tensor, mask: np.ndarray, alpha: float) -> Tensor:
    """Convex combination alpha * dice + (1 - alpha) * cross-entropy."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * dice_loss(softmax_channels(logits), mask) + (1.0 - alpha) * ce_loss(logits, mask)
