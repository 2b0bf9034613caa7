"""Segmentation metrics on integer masks: per-class DSC and HD95."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

__all__ = ["MetricsReport", "dsc_metric", "hd95_metric", "boundary_pixels"]

_FULL_8 = np.ones((3, 3), dtype=bool)


@dataclass
class MetricsReport:
    """Per-class and mean DSC/HD95 plus loss components for one evaluation."""
    per_class_dsc: list[float] = field(default_factory=list)
    mean_dsc: float = 0.0
    per_class_hd95: list[float | None] = field(default_factory=list)
    mean_hd95: float | None = None
    loss: float | None = None
    dice_loss: float | None = None
    ce_loss: float | None = None

    def lines(self) -> list[str]:
        out = [f"mean_dsc={self.mean_dsc:.12g}"]
        out.append("mean_hd95=" + (f"{self.mean_hd95:.12g}" if self.mean_hd95 is not None else "nan"))
        for i, v in enumerate(self.per_class_dsc):
            out.append(f"dsc_class_{i}={v:.12g}")
        for i, v in enumerate(self.per_class_hd95):
            out.append(f"hd95_class_{i}=" + (f"{v:.12g}" if v is not None else "nan"))
        for name in ("loss", "dice_loss", "ce_loss"):
            v = getattr(self, name)
            if v is not None:
                out.append(f"{name}={v:.12g}")
        return out


def dsc_metric(pred: np.ndarray, true: np.ndarray, num_classes: int) -> np.ndarray:
    """Per-class 2|X n Y| / (|X| + |Y|); both masks empty scores 1.0, exactly
    one empty scores 0.0."""
    if pred.shape != true.shape:
        raise ValueError("mask shapes differ")
    out = np.empty(num_classes, dtype=np.float64)
    for cls in range(num_classes):
        p = pred == cls
        t = true == cls
        np_, nt = int(p.sum()), int(t.sum())
        if np_ == 0 and nt == 0:
            out[cls] = 1.0
        elif np_ == 0 or nt == 0:
            out[cls] = 0.0
        else:
            out[cls] = 2.0 * int((p & t).sum()) / (np_ + nt)
    return out


def boundary_pixels(region: np.ndarray) -> np.ndarray:
    """Region pixels with any differing 8-neighbour, counting beyond-edge as
    differing (so region pixels on the image border are boundary)."""
    region = np.asarray(region, dtype=bool)
    if not region.any():
        return region
    interior = ndimage.binary_erosion(region, structure=_FULL_8, border_value=0)
    return region & ~interior


def _percentile95(values: np.ndarray) -> float:
    return float(np.percentile(values, 95, method="linear"))


def hd95_metric(pred: np.ndarray, true: np.ndarray, num_classes: int) -> list[float | None]:
    """Per-class 95th-percentile boundary distance in pixels.

    Directed nearest-boundary Euclidean distances are computed both ways (via
    exact distance transforms) and the percentile is taken of the pooled
    bidirectional set, as MedPy's ``hd95`` does.  A class is skipped (None)
    when either mask has no boundary pixels.
    """
    out: list[float | None] = []
    for cls in range(num_classes):
        bp = boundary_pixels(pred == cls)
        bt = boundary_pixels(true == cls)
        if not bp.any() or not bt.any():
            out.append(None)
            continue
        dist_to_true = ndimage.distance_transform_edt(~bt)
        dist_to_pred = ndimage.distance_transform_edt(~bp)
        out.append(_percentile95(np.concatenate([dist_to_true[bp], dist_to_pred[bt]])))
    return out
