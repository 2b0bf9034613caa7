"""Segmentation metrics on integer masks: per-class DSC and HD95.

Both run on numpy alone.  HD95's boundary distances are exact: each is the
square root of the integer squared distance to the nearest pixel of the other
boundary, the same integers an exact Euclidean distance transform
(scipy.ndimage.distance_transform_edt) takes the root of.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MetricsReport", "dsc_metric", "hd95_metric", "boundary_pixels"]

_QUERY_CHUNK = 1 << 16  # (boundary pixel, column) pairs per pass of _squared_distances


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
    differing (so region pixels on the image border are boundary): the region
    less its erosion by the 3x3 square, from the eight shifted windows of the
    zero-padded region."""
    region = np.asarray(region, dtype=bool)
    h, w = region.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = region
    interior = region.copy()
    for di in range(3):
        for dj in range(3):
            if di != 1 or dj != 1:
                interior &= padded[di:di + h, dj:dj + w]
    return region & ~interior


def _squared_distances(queries: np.ndarray, feature: np.ndarray) -> np.ndarray:
    """The exact squared Euclidean distance from each pixel set in
    ``queries``, in row-major order, to the nearest pixel set in ``feature``
    (which has one).

    A column pass gives g, each pixel's row distance to the nearest feature
    pixel in its column, from the last feature row at or above it and the
    first at or below it.  A query (i, j) is then min over the feature
    columns x of g(i, x)^2 + (j - x)^2, taken in chunks of queries.
    """
    h, w = feature.shape
    dtype = np.int32 if (h - 1) ** 2 + (w - 1) ** 2 < 2 ** 31 else np.int64
    cols = np.flatnonzero(feature.any(axis=0)).astype(dtype)
    held = feature[:, cols]
    rows = np.arange(h, dtype=dtype)[:, None]
    above = np.maximum.accumulate(np.where(held, rows, -2 * h), axis=0)
    below = np.minimum.accumulate(np.where(held, rows, 3 * h)[::-1], axis=0)[::-1]
    g = np.minimum(rows - above, below - rows)
    g *= g
    qi, qj = np.nonzero(queries)
    qj = qj.astype(dtype)
    out = np.empty(qi.size, dtype)
    step = max(1, _QUERY_CHUNK // cols.size)
    for start in range(0, qi.size, step):
        d2 = qj[start:start + step, None] - cols
        d2 *= d2
        d2 += g[qi[start:start + step]]
        d2.min(axis=1, out=out[start:start + step])
    return out


def _percentile95(values: np.ndarray) -> float:
    return float(np.percentile(values, 95, method="linear"))


def hd95_metric(pred: np.ndarray, true: np.ndarray, num_classes: int) -> list[float | None]:
    """Per-class 95th-percentile boundary distance in pixels.

    Directed nearest-boundary Euclidean distances are computed both ways
    (exactly, by ``_squared_distances``) and the percentile is taken of the
    pooled bidirectional set, as MedPy's ``hd95`` does.  A class is skipped
    (None) when either mask has no boundary pixels.
    """
    out: list[float | None] = []
    for cls in range(num_classes):
        bp = boundary_pixels(pred == cls)
        bt = boundary_pixels(true == cls)
        if not bp.any() or not bt.any():
            out.append(None)
            continue
        squared = np.concatenate([_squared_distances(bp, bt), _squared_distances(bt, bp)])
        out.append(_percentile95(np.sqrt(squared.astype(np.float64))))
    return out
