"""U-shaped encoder-decoder assembly with four-path scan blocks.

Encoder: patch embedding then three patch-merging stages (widths C, 2C, 4C,
8C at strides 4, 8, 16, 32).  Decoder: three upsample + block stages fused
with encoder features by addition, then a 4x expanding head that emits
per-class logits at full input resolution.

Images enter as [..., 3, H, W] and logits leave as [..., K, H, W]; every
activation in between, the stage features included, is channels-last
[..., H, W, C].  The leading axes are a batch carried through every layer
unchanged: a training mini-batch [B, 3, H, W] is one forward pass and one
recorded graph, and a single [3, H, W] image is the leading shape ().
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import Module, Rng, Tensor, no_grad
from .blocks import (
    _UPSAMPLERS, DWCONV_KERNEL, FFN_EXPAND, BlockConfig, FLKPE, MSVSSBlock, PatchEmbed, PatchMerge,
    VSSBlock, make_upsampler,
)
from .scan import dt_rank

__all__ = ["ModelConfig", "FeatureBundle", "VSSUNet", "build_model",
           "count_params", "count_flops", "export_stage_features",
           "TOY_PRESET", "TINY224_PRESET"]

_DECODER_BLOCKS = {"vss": VSSBlock, "msvss": MSVSSBlock}


@dataclass
class ModelConfig:
    """Architecture and loss configuration; every ablation axis lives here."""
    base_channels: int = 16
    stage_depths: tuple[int, int, int, int] = (1, 1, 1, 1)
    num_classes: int = 4
    input_size: tuple[int, int] = (64, 64)
    kernel_set: tuple[int, ...] = (1, 3, 5)
    decoder_block: str = "msvss"
    upsampler: str = "lkpe"
    alpha: float = 0.6
    state_size: int = 8

    def validate(self):
        if len(self.input_size) != 2 or any(s < 32 or s % 32 for s in self.input_size):
            raise ValueError(f"input_size must be two positive multiples of 32, got {self.input_size}")
        if self.base_channels < 1:
            raise ValueError(f"base_channels must be >= 1, got {self.base_channels}")
        if self.state_size < 1:
            raise ValueError(f"state_size must be >= 1, got {self.state_size}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if len(self.stage_depths) != 4 or any(d < 1 for d in self.stage_depths):
            raise ValueError(f"stage_depths must be four positive ints, got {self.stage_depths}")
        if self.decoder_block not in _DECODER_BLOCKS:
            raise ValueError(f"decoder_block must be one of {sorted(_DECODER_BLOCKS)}")
        if self.upsampler not in _UPSAMPLERS:
            raise ValueError(f"upsampler must be one of {sorted(_UPSAMPLERS)}")
        if any(k % 2 == 0 or k < 1 for k in self.kernel_set):
            raise ValueError(f"kernel_set entries must be odd, got {self.kernel_set}")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        return self

    def stage_channels(self) -> tuple[int, int, int, int]:
        c = self.base_channels
        return c, 2 * c, 4 * c, 8 * c

    def block_config(self, channels: int) -> BlockConfig:
        return BlockConfig(channels=channels, kernel_set=tuple(self.kernel_set),
                           state_size=self.state_size)


TOY_PRESET = ModelConfig()
TINY224_PRESET = ModelConfig(base_channels=96, stage_depths=(2, 2, 4, 2),
                             num_classes=9, input_size=(224, 224), state_size=16)


@dataclass
class FeatureBundle:
    """Stage outputs of one forward pass (encoder f1e..f4e, decoder f1d..f3d),
    each [..., H, W, C] with the input's leading axes."""
    encoder: list[Tensor]
    decoder: list[Tensor]


def _chain(blocks, x: Tensor) -> Tensor:
    for block in blocks:
        x = block(x)
    return x


class VSSUNet(Module):
    def __init__(self, cfg: ModelConfig, rng: Rng):
        cfg.validate()
        self.cfg = cfg
        widths = cfg.stage_channels()
        block_cls = _DECODER_BLOCKS[cfg.decoder_block]

        # encoder stage i draws from stream 10 + i (child 0 its patch merge, child
        # 1 + d its block d), decoder stage i from 20 + i (child 0 its upsampler,
        # child 1 its block)
        def encoder(i):
            return [VSSBlock(rng.child(10 + i).child(1 + d), cfg.block_config(widths[i]))
                    for d in range(cfg.stage_depths[i])]

        def merge(i):
            return PatchMerge(rng.child(10 + i).child(0), widths[i - 1])

        def decoder(i):
            stream, width = rng.child(20 + i), widths[3 - i]
            return (make_upsampler(cfg.upsampler, stream.child(0), width),
                    block_cls(stream.child(1), cfg.block_config(width // 2)))

        # attributes are assigned in checkpoint order; the generic walk names them
        self.patch_embed, self.enc1 = PatchEmbed(rng.child(0), widths[0]), encoder(0)
        self.merge1, self.enc2 = merge(1), encoder(1)
        self.merge2, self.enc3 = merge(2), encoder(2)
        self.merge3, self.enc4 = merge(3), encoder(3)
        self.up1, self.dec1 = decoder(0)
        self.up2, self.dec2 = decoder(1)
        self.up3, self.dec3 = decoder(2)
        self.head = FLKPE(rng.child(30), widths[0], cfg.num_classes)

    def forward_features(self, img: Tensor) -> tuple[Tensor, FeatureBundle]:
        if img.data.ndim < 3:
            raise ValueError(f"expected [..., 3, H, W] images, got {img.data.shape}")
        c, h, w = img.data.shape[-3:]
        if c != 3:
            raise ValueError(f"expected a 3-channel image, got {c}")
        if h % 32 or w % 32:
            raise ValueError(f"input extents {h}x{w} must be divisible by 32")

        f1 = _chain(self.enc1, self.patch_embed(img))
        f2 = _chain(self.enc2, self.merge1(f1))
        f3 = _chain(self.enc3, self.merge2(f2))
        f4 = _chain(self.enc4, self.merge3(f3))
        d1 = self.dec1(self.up1(f4) + f3)
        d2 = self.dec2(self.up2(d1) + f2)
        d3 = self.dec3(self.up3(d2) + f1)
        return self.head(d3), FeatureBundle([f1, f2, f3, f4], [d1, d2, d3])

    def forward(self, img: Tensor) -> Tensor:
        logits, _ = self.forward_features(img)
        return logits


def build_model(cfg: ModelConfig, rng: Rng) -> VSSUNet:
    return VSSUNet(cfg, rng)


def count_params(model: VSSUNet) -> int:
    return sum(p.size for p in model.parameters())


# -- analytic FLOP accounting --------------------------------------------------------

def _scan_block_macs(length: int, channels: int, state_size: int,
                     ffn_kernels: tuple[int, ...]) -> int:
    """Multiply-adds of one scan block on a ``length``-pixel map whose FFN
    adds depthwise convolutions of ``ffn_kernels`` (``()``: a plain MLP)."""
    inner = 2 * channels
    rank = dt_rank(inner)
    macs = length * channels * inner                     # proj_in
    macs += inner * DWCONV_KERNEL ** 2 * length          # depthwise conv
    # delta/B/C projections
    per_path = length * (inner * rank + rank * inner + 2 * inner * state_size)
    per_path += length * state_size * inner              # scan recurrence convention
    macs += 4 * per_path
    macs += length * inner * channels                    # proj_out
    hidden = channels * FFN_EXPAND
    macs += length * channels * hidden                   # ffn expand
    macs += sum(hidden * k * k * length for k in ffn_kernels)
    macs += length * hidden * channels                   # ffn reduce
    return macs


def _upsampler_macs(kind: str, length: int, channels: int) -> int:
    if kind == "lkpe":
        return length * channels * 2 * channels + 2 * channels * DWCONV_KERNEL ** 2 * length
    if kind in ("patch_expand", "transposed_conv"):
        return length * channels * 2 * channels
    if kind == "upsample_block":
        return 4 * length * channels * (channels // 2) * 9
    raise ValueError(kind)


def count_flops(model: VSSUNet, input_size: tuple[int, int] | None = None) -> int:
    """FLOPs of the forward pass of one image, with 1 multiply-add = 2 FLOPs
    and the scan recurrence counted as L*N*C multiply-adds per path.  Norms,
    activations and residual additions are not counted."""
    cfg = model.cfg
    h, w = input_size or cfg.input_size
    widths = cfg.stage_channels()
    lengths = [(h // s) * (w // s) for s in (4, 8, 16, 32)]

    macs = lengths[0] * 48 * widths[0]  # patch embedding
    for i, (width, depth) in enumerate(zip(widths, cfg.stage_depths)):
        if i > 0:
            macs += lengths[i] * 4 * widths[i - 1] * width  # patch merge
        macs += depth * _scan_block_macs(lengths[i], width, cfg.state_size, ())

    dec = ((widths[3], lengths[3]), (widths[2], lengths[2]), (widths[1], lengths[1]))
    ffn_kernels = cfg.kernel_set if cfg.decoder_block == "msvss" else ()
    for width, length in dec:
        macs += _upsampler_macs(cfg.upsampler, length, width)
        macs += _scan_block_macs(length * 4, width // 2, cfg.state_size, ffn_kernels)

    macs += lengths[0] * widths[0] * 16 * widths[0]                 # head expand
    macs += 16 * widths[0] * DWCONV_KERNEL ** 2 * lengths[0]        # head depthwise
    macs += 16 * lengths[0] * widths[0] * cfg.num_classes           # head 1x1
    return 2 * macs


# -- feature export --------------------------------------------------------------------

def write_pgm(path, gray: np.ndarray):
    """Binary 8-bit portable graymap."""
    gray = np.asarray(gray, dtype=np.uint8)
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def channel_mean_heatmap(feature: np.ndarray) -> np.ndarray:
    """Average an [H, W, C] map over channels, min-max normalized to [0, 255]."""
    mean = feature.mean(axis=-1)
    lo, hi = float(mean.min()), float(mean.max())
    if hi - lo < 1e-12:
        return np.full(mean.shape, 128, dtype=np.uint8)
    return np.round((mean - lo) / (hi - lo) * 255.0).astype(np.uint8)


def export_stage_features(model: VSSUNet, img: Tensor, out_dir) -> list[str]:
    """Write one channel-mean heatmap per decoder stage, numbered from the
    bottom of the decoder (nearest the bottleneck) to the top."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with no_grad():
        _, bundle = model.forward_features(img)
    paths = []
    for i, feat in enumerate(bundle.decoder, start=1):
        path = out_dir / f"decoder_layer_{i}.pgm"
        write_pgm(path, channel_mean_heatmap(feat.data))
        paths.append(str(path))
    return paths
