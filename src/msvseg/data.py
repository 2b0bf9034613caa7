"""Synthetic segmentation data, augmentation, and the dataset directory format.

A sample is a [3, H, W] image in [0, 1] plus an integer class mask.  The
generator composes one anti-aliased ellipse or rectangle per foreground class
over a textured background so the task is learnable but not trivial, and is
fully determined by the seed.  Augmentation is one switch,
``AugmentConfig.enabled``, for six random techniques: two flips, a rotation,
noise, blur and a contrast change.

Dataset directory: a ``manifest.txt`` of key=value lines (version,
num_classes, one ``sample=<id>`` line per distinct sample; blank lines and
``#`` comments are skipped, any other line is an error) next to per-sample
``<id>.image.msvt`` / ``<id>.mask.msvt`` tensor records (masks are stored as
f32 records holding integer ids).  Sample ids match
``[A-Za-z0-9_-][A-Za-z0-9_.-]*``, so they cannot name a file outside the
directory.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .serial import load_tensor, save_tensor
from .tensor import Rng, Tensor

__all__ = ["SegSample", "AugmentConfig", "MAX_ROTATE_DEG", "augment", "gen_synthetic_dataset",
           "save_dataset", "load_dataset"]


@dataclass
class SegSample:
    image: Tensor          # [3, H, W] float in [0, 1]
    mask: np.ndarray       # [H, W] int32 class ids in [0, K)
    sample_id: str

    def validate(self, num_classes: int):
        img = self.image.data
        if img.ndim != 3 or img.shape[0] != 3 or img.size == 0:
            raise ValueError(f"sample {self.sample_id}: image must be [3, H, W] with H, W >= 1, "
                             f"got {img.shape}")
        if self.mask.shape != img.shape[1:]:
            raise ValueError(f"sample {self.sample_id}: mask is {self.mask.shape} but the "
                             f"image's [H, W] is {img.shape[1:]}")
        if self.mask.min() < 0 or self.mask.max() >= num_classes:
            raise ValueError(f"sample {self.sample_id}: mask ids must lie in [0, {num_classes})")
        if not np.isfinite(img).all():
            raise ValueError(f"sample {self.sample_id}: image has non-finite values")
        if img.min() < 0 or img.max() > 1:
            raise ValueError(f"sample {self.sample_id}: image values must lie in [0, 1]")
        return self


# -- resampling helpers ------------------------------------------------------------


def _bilinear_resize(img: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    c, h, w = img.shape
    oh, ow = out_hw
    if (h, w) == (oh, ow):
        return img.copy()
    ys = (np.arange(oh) + 0.5) * h / oh - 0.5
    xs = (np.arange(ow) + 0.5) * w / ow - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.intp)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    top = img[:, y0[:, None], x0[None, :]] * (1 - fx) + img[:, y0[:, None], x1[None, :]] * fx
    bot = img[:, y1[:, None], x0[None, :]] * (1 - fx) + img[:, y1[:, None], x1[None, :]] * fx
    return (top * (1 - fy) + bot * fy).astype(img.dtype)


def _nearest_resize(mask: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    h, w = mask.shape
    oh, ow = out_hw
    if (h, w) == (oh, ow):
        return mask.copy()
    ys = np.minimum(((np.arange(oh) + 0.5) * h / oh).astype(np.intp), h - 1)
    xs = np.minimum(((np.arange(ow) + 0.5) * w / ow).astype(np.intp), w - 1)
    return mask[ys[:, None], xs[None, :]]


def _rotation_grid(h: int, w: int, angle_deg: float):
    """Source coordinates for an inverse-mapped rotation about the center."""
    theta = math.radians(angle_deg)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    dy, dx = yy - cy, xx - cx
    src_y = cy + math.cos(theta) * dy - math.sin(theta) * dx
    src_x = cx + math.sin(theta) * dy + math.cos(theta) * dx
    return src_y, src_x


def _rotate_image(img: np.ndarray, angle_deg: float) -> np.ndarray:
    c, h, w = img.shape
    sy, sx = _rotation_grid(h, w, angle_deg)
    y0 = np.floor(sy).astype(np.intp)
    x0 = np.floor(sx).astype(np.intp)
    fy, fx = sy - y0, sx - x0
    out = np.zeros_like(img)
    for (oy, ox, wgt) in ((y0, x0, (1 - fy) * (1 - fx)), (y0, x0 + 1, (1 - fy) * fx),
                          (y0 + 1, x0, fy * (1 - fx)), (y0 + 1, x0 + 1, fy * fx)):
        valid = (oy >= 0) & (oy < h) & (ox >= 0) & (ox < w)
        cy = np.clip(oy, 0, h - 1)
        cx = np.clip(ox, 0, w - 1)
        out += img[:, cy, cx] * (wgt * valid)
    return out.astype(img.dtype)


def _rotate_mask(mask: np.ndarray, angle_deg: float) -> np.ndarray:
    h, w = mask.shape
    sy, sx = _rotation_grid(h, w, angle_deg)
    ny = np.rint(sy).astype(np.intp)
    nx = np.rint(sx).astype(np.intp)
    valid = (ny >= 0) & (ny < h) & (nx >= 0) & (nx < w)
    out = np.zeros_like(mask)
    out[valid] = mask[ny[valid], nx[valid]]
    return out


def _gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    radius = max(1, int(math.ceil(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel /= kernel.sum()
    pad_y = np.pad(img, ((0, 0), (radius, radius), (0, 0)), mode="edge")
    out = np.zeros_like(img, dtype=np.float64)
    for i, kv in enumerate(kernel):
        out += pad_y[:, i:i + img.shape[1], :] * kv
    pad_x = np.pad(out, ((0, 0), (0, 0), (radius, radius)), mode="edge")
    out2 = np.zeros_like(img, dtype=np.float64)
    for i, kv in enumerate(kernel):
        out2 += pad_x[:, :, i:i + img.shape[2]] * kv
    return out2.astype(img.dtype)


# -- augmentation -------------------------------------------------------------------


MAX_ROTATE_DEG = 25.0  # rotation angles are uniform in [-MAX_ROTATE_DEG, MAX_ROTATE_DEG]


@dataclass
class AugmentConfig:
    """An optional resize target and one switch for the six random techniques."""
    target_size: tuple[int, int] | None = None
    enabled: bool = False

    @classmethod
    def all_on(cls) -> "AugmentConfig":
        return cls(enabled=True)


def augment(sample: SegSample, rng: Rng, cfg: AugmentConfig) -> SegSample:
    """Resize to the target; then, if enabled, apply each technique in turn
    with probability 0.5, and otherwise draw nothing from ``rng``.  Geometry
    changes hit image and mask identically (mask via nearest neighbour);
    photometric changes hit the image only."""
    img = sample.image.data.astype(np.float32)
    mask = sample.mask.copy()
    if cfg.target_size is not None:
        img = _bilinear_resize(img, cfg.target_size)
        mask = _nearest_resize(mask, cfg.target_size)

    if cfg.enabled:
        if rng.random() < 0.5:
            img = img[:, :, ::-1].copy()
            mask = mask[:, ::-1].copy()
        if rng.random() < 0.5:
            img = img[:, ::-1, :].copy()
            mask = mask[::-1, :].copy()
        if rng.random() < 0.5:
            angle = rng.uniform(-MAX_ROTATE_DEG, MAX_ROTATE_DEG)
            img = _rotate_image(img, angle)
            mask = _rotate_mask(mask, angle)
        if rng.random() < 0.5:
            sigma = rng.uniform(0.01, 0.05)
            img = np.clip(img + rng.normal(img.shape).astype(np.float32) * sigma, 0.0, 1.0)
        if rng.random() < 0.5:
            img = _gaussian_blur(img, rng.uniform(0.5, 1.5))
        if rng.random() < 0.5:
            factor = rng.uniform(0.7, 1.3)
            mean = img.mean()
            img = np.clip((img - mean) * factor + mean, 0.0, 1.0)

    return SegSample(Tensor(np.ascontiguousarray(img, dtype=np.float32)),
                     mask.astype(np.int32), sample.sample_id)


# -- synthetic generator --------------------------------------------------------------


def _shape_coverage(rng: Rng, size: int) -> np.ndarray:
    """Anti-aliased coverage in [0, 1] of one random rotated ellipse or box."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    cy = rng.uniform(0.25, 0.75) * size
    cx = rng.uniform(0.25, 0.75) * size
    theta = rng.uniform(0.0, math.pi)
    dy, dx = yy - cy, xx - cx
    u = math.cos(theta) * dx + math.sin(theta) * dy
    v = -math.sin(theta) * dx + math.cos(theta) * dy
    ry = rng.uniform(0.12, 0.24) * size
    rx = rng.uniform(0.12, 0.24) * size
    if rng.random() < 0.5:
        dist = 1.0 - np.sqrt((u / rx) ** 2 + (v / ry) ** 2)
        edge = dist * min(rx, ry)      # approx. signed distance in pixels
    else:
        edge = np.minimum(rx - np.abs(u), ry - np.abs(v))
    return np.clip(edge + 0.5, 0.0, 1.0)


# shade draws per class before the palette gives up; over seeds 0-39 nine or
# fewer classes need at most 662 and 10 to 64 classes at most 1547
PALETTE_DRAWS = 100_000


def _palette_separation(num_classes: int) -> float:
    """The least distance between two class shades: 0.3 up to nine classes.
    Above nine, the shades fill the colour cube as densely as five shades
    0.3 apart do, so every count finds a palette; at 0.3, ten to thirteen
    classes found none for 5 to 38 of seeds 0-39."""
    if num_classes <= 9:
        return 0.3
    return 0.3 * (5 / (num_classes - 1)) ** (1 / 3)


def _class_palette(rng: Rng, num_classes: int) -> np.ndarray:
    """One RGB shade per class, kept ``_palette_separation`` apart so classes
    stay distinguishable under noise."""
    palette = np.zeros((num_classes, 3))
    separation = _palette_separation(num_classes)
    for cls in range(1, num_classes):
        for _ in range(PALETTE_DRAWS):
            cand = rng.uniform(0.4, 0.95, 3)
            if all(np.linalg.norm(cand - palette[j]) > separation for j in range(1, cls)):
                palette[cls] = cand
                break
        else:
            raise ValueError(f"no palette of {num_classes} classes: class {cls} found no shade "
                             f"{separation:.3g} from the others in {PALETTE_DRAWS} draws")
    return palette


def gen_synthetic_dataset(n: int, num_classes: int, size: int, rng: Rng) -> list[SegSample]:
    """n samples of ``size`` x ``size`` with one shape per class in [1, K).

    Class appearance is a dataset-level palette with small per-sample jitter;
    shapes are drawn in random order, so occlusion happens but rarely removes
    a class entirely.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes (background + 1)")
    palette = _class_palette(rng.child(0xC01), num_classes)
    samples = []
    for i in range(n):
        srng = rng.child(i)
        tex = _gaussian_blur(srng.random((1, size, size)), 2.0)[0]
        span = tex.max() - tex.min()
        tex = (tex - tex.min()) / (span if span > 0 else 1.0)
        gains = srng.uniform(0.5, 1.0, 3)
        img = 0.10 + 0.20 * tex[None, :, :] * gains[:, None, None]
        mask = np.zeros((size, size), dtype=np.int32)

        shades = np.clip(palette + srng.uniform(-0.04, 0.04, (num_classes, 3)), 0.0, 1.0)
        order = srng.permutation(num_classes - 1) + 1
        for cls in order:
            cov = _shape_coverage(srng.child(int(cls)), size)
            mask[cov > 0.5] = cls
            img = img * (1.0 - cov) + cov * shades[cls][:, None, None]

        img = np.clip(img + srng.normal(img.shape) * 0.015, 0.0, 1.0)
        samples.append(SegSample(Tensor(img.astype(np.float32)), mask, f"s{i:04d}"))
    return samples


# -- dataset directory io ----------------------------------------------------------------


_SAMPLE_ID = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")


def _checked_id(sid: str) -> str:
    """A sample id names files inside the dataset directory, so it may hold
    no path separator and may not start with a dot."""
    if not _SAMPLE_ID.fullmatch(sid):
        raise ValueError(f"invalid sample id {sid!r}: ids must match {_SAMPLE_ID.pattern}")
    return sid


def save_dataset(samples: list[SegSample], out_dir, num_classes: int):
    # every sample is checked before the directory is made, so a failed save
    # writes no file, and an existing dataset stays as it was
    ids = set()
    for s in samples:
        if _checked_id(s.sample_id) in ids:
            raise ValueError(f"sample {s.sample_id!r} appears twice")
        ids.add(s.sample_id)
        s.validate(num_classes)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["version=1", f"num_classes={num_classes}"]
    for s in samples:
        save_tensor(out_dir / f"{s.sample_id}.image.msvt", s.image.data.astype(np.float32))
        save_tensor(out_dir / f"{s.sample_id}.mask.msvt", s.mask.astype(np.float32))
        lines.append(f"sample={s.sample_id}")
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def load_dataset(in_dir) -> tuple[list[SegSample], int]:
    in_dir = Path(in_dir)
    manifest = in_dir / "manifest.txt"
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest.txt under {in_dir}")
    num_classes = None
    ids: dict[str, int] = {}  # sample id -> manifest line, in manifest order
    given: dict[str, int] = {}  # num_classes/version -> manifest line
    for lineno, line in enumerate(manifest.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"manifest line {lineno}: expected key=value, got {line!r}")
        if key in ("num_classes", "version"):
            if key in given:
                raise ValueError(f"manifest line {lineno}: {key} is already given on line "
                                 f"{given[key]}")
            given[key] = lineno
            try:
                number = int(value)
            except ValueError:
                raise ValueError(f"manifest line {lineno}: {key} must be an integer, "
                                 f"got {value!r}") from None
        if key == "num_classes":
            num_classes = number
            if num_classes < 1:
                raise ValueError(f"manifest line {lineno}: num_classes must be at least 1, "
                                 f"got {num_classes}")
        elif key == "sample":
            if value in ids:
                raise ValueError(f"manifest line {lineno}: sample {value!r} is already "
                                 f"listed on line {ids[value]}")
            ids[_checked_id(value)] = lineno
        elif key == "version":
            if number != 1:
                raise ValueError(f"manifest line {lineno}: unsupported dataset version {value}")
        else:
            raise ValueError(f"manifest line {lineno}: unknown key {key!r}")
    if num_classes is None:
        raise ValueError("manifest is missing num_classes")
    samples = []
    for sid in ids:
        img = _load_f32(in_dir / f"{sid}.image.msvt", sid)
        mask = _load_f32(in_dir / f"{sid}.mask.msvt", sid)
        # checked before the int cast: NaN, inf or 2**40 would cast to garbage, 2.5 to
        # a valid 2; NaN fails every comparison, so it is rejected here too
        if not ((mask >= 0) & (mask < num_classes) & (mask == np.trunc(mask))).all():
            raise ValueError(f"sample {sid}: mask values must be integer ids in [0, {num_classes})")
        samples.append(SegSample(Tensor(img), mask.astype(np.int32), sid).validate(num_classes))
    return samples, num_classes


def _load_f32(path: Path, sid: str) -> np.ndarray:
    arr = load_tensor(path)
    if arr.dtype != np.float32:
        raise ValueError(f"sample {sid}: {path.name} holds {arr.dtype}, datasets store f32")
    return arr
