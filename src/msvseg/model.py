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

from dataclasses import dataclass, field, replace
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
        h, w = self.input_size
        if h % 32 or w % 32:
            raise ValueError(f"input size {h}x{w} must be divisible by 32")
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
    encoder: list[Tensor] = field(default_factory=list)
    decoder: list[Tensor] = field(default_factory=list)


class VSSUNet(Module):
    def __init__(self, cfg: ModelConfig, rng: Rng):
        cfg.validate()
        self.cfg = cfg
        widths = cfg.stage_channels()

        self.patch_embed = PatchEmbed(rng.child(0), widths[0])
        self.enc_stages = []
        self.merges = []
        for i, (width, depth) in enumerate(zip(widths, cfg.stage_depths)):
            stage_rng = rng.child(10 + i)
            if i > 0:
                self.merges.append(PatchMerge(stage_rng.child(0), widths[i - 1]))
            self.enc_stages.append([VSSBlock(stage_rng.child(1 + d), cfg.block_config(width))
                                    for d in range(depth)])

        block_cls = _DECODER_BLOCKS[cfg.decoder_block]
        self.ups = []
        self.dec_blocks = []
        for i, width in enumerate((widths[3], widths[2], widths[1])):
            stage_rng = rng.child(20 + i)
            self.ups.append(make_upsampler(cfg.upsampler, stage_rng.child(0), width))
            self.dec_blocks.append(block_cls(stage_rng.child(1), cfg.block_config(width // 2)))

        self.head = FLKPE(rng.child(30), widths[0], cfg.num_classes)

    # encoder stage lists are plain lists of Modules; named_parameters handles them
    def named_parameters(self, prefix: str = ""):
        yield from self.patch_embed.named_parameters(f"{prefix}patch_embed.")
        for i, stage in enumerate(self.enc_stages):
            if i > 0:
                yield from self.merges[i - 1].named_parameters(f"{prefix}merge{i}.")
            for d, block in enumerate(stage):
                yield from block.named_parameters(f"{prefix}enc{i + 1}.{d}.")
        for i, (up, block) in enumerate(zip(self.ups, self.dec_blocks)):
            yield from up.named_parameters(f"{prefix}up{i + 1}.")
            yield from block.named_parameters(f"{prefix}dec{i + 1}.")
        yield from self.head.named_parameters(f"{prefix}head.")

    def forward_features(self, img: Tensor) -> tuple[Tensor, FeatureBundle]:
        if img.data.ndim < 3:
            raise ValueError(f"expected [..., 3, H, W] images, got {img.data.shape}")
        c, h, w = img.data.shape[-3:]
        if c != 3:
            raise ValueError(f"expected a 3-channel image, got {c}")
        if h % 32 or w % 32:
            raise ValueError(f"input extents {h}x{w} must be divisible by 32")

        bundle = FeatureBundle()
        x = self.patch_embed(img)
        for i, stage in enumerate(self.enc_stages):
            if i > 0:
                x = self.merges[i - 1](x)
            for block in stage:
                x = block(x)
            bundle.encoder.append(x)

        skips = [bundle.encoder[2], bundle.encoder[1], bundle.encoder[0]]
        x = bundle.encoder[3]
        for up, block, skip in zip(self.ups, self.dec_blocks, skips):
            x = block(up(x) + skip)
            bundle.decoder.append(x)

        logits = self.head(x)
        return logits, bundle

    def forward(self, img: Tensor) -> Tensor:
        logits, _ = self.forward_features(img)
        return logits


def build_model(cfg: ModelConfig, rng: Rng) -> VSSUNet:
    return VSSUNet(cfg, rng)


def count_params(model: VSSUNet) -> int:
    return sum(p.size for p in model.parameters())


# -- analytic FLOP accounting --------------------------------------------------------

def _scan_block_macs(length: int, channels: int, cfg: ModelConfig) -> int:
    """Multiply-adds of one VSS/MSVSS block on a ``length``-pixel map."""
    inner = 2 * channels
    rank = dt_rank(inner)
    n = cfg.state_size
    macs = length * channels * inner                     # proj_in
    macs += inner * DWCONV_KERNEL ** 2 * length          # depthwise conv
    per_path = length * (inner * rank + rank * inner + 2 * inner * n)  # delta/B/C projections
    per_path += length * n * inner                       # scan recurrence convention
    macs += 4 * per_path
    macs += length * inner * channels                    # proj_out
    hidden = channels * FFN_EXPAND
    macs += length * channels * hidden                   # ffn expand
    if cfg.decoder_block == "msvss":
        macs += sum(hidden * k * k * length for k in cfg.kernel_set)
    macs += length * hidden * channels                   # ffn reduce
    return macs


def _encoder_block_macs(length: int, channels: int, cfg: ModelConfig) -> int:
    # encoder blocks are plain-FFN VSS blocks regardless of the decoder choice
    saved = replace(cfg, decoder_block="vss")
    return _scan_block_macs(length, channels, saved)


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
        macs += depth * _encoder_block_macs(lengths[i], width, cfg)

    dec = ((widths[3], lengths[3]), (widths[2], lengths[2]), (widths[1], lengths[1]))
    for width, length in dec:
        macs += _upsampler_macs(cfg.upsampler, length, width)
        macs += _scan_block_macs(length * 4, width // 2, cfg)

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
