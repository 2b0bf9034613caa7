"""Network building blocks: scan blocks, multi-scale FFN, patch resamplers.

Feature maps are channels-first [C, H, W].  Linear projections and layer
norms act on the channel extent (the map is transposed to channels-last
around them); pixel shuffles and nearest-neighbour upsampling are reshapes
and transposes of the map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    Module, Rng, Tensor, batch_norm2d, channels_first, channels_last, constant,
    conv2d, depthwise_conv2d, gelu, init_kaiming_uniform, init_trunc_normal,
    init_zeros, init_ones, layer_norm, linear, mul, relu, reshape, silu, transpose,
)
from .scan import SS2D

__all__ = [
    "BlockConfig", "Linear", "DepthwiseConv2d", "ChannelLayerNorm", "BatchNorm2d",
    "pixel_shuffle", "space_to_depth", "upsample_nearest2x",
    "SS2DBlock", "MultiScaleFFN", "MLPFFN", "MSVSSBlock", "VSSBlock",
    "PatchEmbed", "PatchMerge", "LKPE", "PatchExpand", "TransposedConvUp",
    "UpsampleConv", "FLKPE", "make_upsampler",
]


@dataclass
class BlockConfig:
    """Shared block hyperparameters."""
    channels: int
    ffn_expand: int = 4
    kernel_set: tuple[int, ...] = (1, 3, 5)
    dwconv_kernel: int = 3
    pixel_shuffle_factor: int = 2
    state_size: int = 16
    dt_rank: int | None = None

    def __post_init__(self):
        if not self.kernel_set:
            raise ValueError("kernel_set must not be empty")
        if any(k % 2 == 0 for k in self.kernel_set):
            raise ValueError(f"kernel_set entries must be odd, got {self.kernel_set}")


# -- leaf layers -----------------------------------------------------------------

class Linear(Module):
    def __init__(self, rng: Rng, in_features: int, out_features: int, bias: bool = True):
        super().__init__()
        self.weight = init_trunc_normal(rng, (in_features, out_features), std=0.02)
        self.bias = init_zeros((out_features,)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def forward_chw(self, x: Tensor) -> Tensor:
        return channels_first(self.forward(channels_last(x)))


class DepthwiseConv2d(Module):
    def __init__(self, rng: Rng, channels: int, kernel_size: int):
        super().__init__()
        self.kernel = init_kaiming_uniform(rng, (channels, kernel_size, kernel_size),
                                           fan_in=kernel_size * kernel_size)

    def forward(self, x: Tensor) -> Tensor:
        return depthwise_conv2d(x, self.kernel)


class ChannelLayerNorm(Module):
    """Layer normalization over the channel extent of a [C, H, W] map."""

    def __init__(self, channels: int, eps: float = 1e-5):
        super().__init__()
        self.gamma = init_ones((channels,))
        self.beta = init_zeros((channels,))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return channels_first(layer_norm(channels_last(x), self.gamma, self.beta, self.eps))

    def forward_last(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)


class BatchNorm2d(Module):
    """Per-channel batch normalization of a [C, H, W] map (batch of one).

    Train and eval mode both normalize each map with its own statistics over
    (H, W), so the layer keeps no running buffers and checkpoints stay
    parameters-only.
    """

    def __init__(self, channels: int, eps: float = 1e-5):
        super().__init__()
        self.gamma = init_ones((channels,))
        self.beta = init_zeros((channels,))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return batch_norm2d(x, self.gamma, self.beta, self.eps)


# -- layout resamplers ----------------------------------------------------------------

def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """[C, H, W] -> [C/r^2, rH, rW]; channel group g of output channel c lands
    at spatial offset (g // r, g % r) inside the r x r cell."""
    c, h, w = x.data.shape
    if c % (r * r) != 0:
        raise ValueError(f"pixel_shuffle: {c} channels not divisible by r^2={r * r}")
    cells = transpose(reshape(x, (c // (r * r), r, r, h, w)), (0, 3, 1, 4, 2))
    return reshape(cells, (c // (r * r), h * r, w * r))


def space_to_depth(x: Tensor, r: int) -> Tensor:
    """[C, H, W] -> [C*r^2, H/r, W/r], exact inverse of pixel_shuffle."""
    c, h, w = x.data.shape
    if h % r != 0 or w % r != 0:
        raise ValueError(f"space_to_depth: spatial extents {h}x{w} not divisible by {r}")
    cells = transpose(reshape(x, (c, h // r, r, w // r, r)), (0, 2, 4, 1, 3))
    return reshape(cells, (c * r * r, h // r, w // r))


def upsample_nearest2x(x: Tensor) -> Tensor:
    """[C, H, W] -> [C, 2H, 2W], each pixel repeated over a 2 x 2 cell."""
    c, h, w = x.data.shape
    cells = mul(reshape(x, (c, h, 1, w, 1)), constant(np.ones((2, 1, 2)), like=x))
    return reshape(cells, (c, 2 * h, 2 * w))


# -- scan blocks ----------------------------------------------------------------

class SS2DBlock(Module):
    """Channel-doubling projection, 3x3 depthwise conv, SiLU, four-path scan,
    layer norm, then projection back to the input width."""

    def __init__(self, rng: Rng, cfg: BlockConfig):
        super().__init__()
        c = cfg.channels
        self.proj_in = Linear(rng.child(0), c, 2 * c)
        self.dwconv = DepthwiseConv2d(rng.child(1), 2 * c, cfg.dwconv_kernel)
        self.ss2d = SS2D(rng.child(2), 2 * c, cfg.state_size, cfg.dt_rank)
        self.norm = ChannelLayerNorm(2 * c)
        self.proj_out = Linear(rng.child(3), 2 * c, c)

    def forward(self, x: Tensor) -> Tensor:
        h = self.proj_in.forward_chw(x)
        h = silu(self.dwconv(h))
        h = self.norm(self.ss2d(h))
        return self.proj_out.forward_chw(h)


class MultiScaleFFN(Module):
    """Four-fold channel expansion, GELU, parallel depthwise convolutions of
    the configured kernel sizes summed with the expanded features, then
    reduction back to the input width."""

    def __init__(self, rng: Rng, cfg: BlockConfig):
        super().__init__()
        c, hidden = cfg.channels, cfg.channels * cfg.ffn_expand
        self.expand = Linear(rng.child(0), c, hidden)
        self.branches = [DepthwiseConv2d(rng.child(10 + i), hidden, k)
                         for i, k in enumerate(cfg.kernel_set)]
        self.reduce = Linear(rng.child(1), hidden, c)

    def forward(self, x: Tensor) -> Tensor:
        h = gelu(self.expand.forward_chw(x))
        s = h
        for branch in self.branches:
            s = s + branch(h)
        return self.reduce.forward_chw(s)


class MLPFFN(Module):
    """Plain two-layer feed-forward (expansion, GELU, reduction)."""

    def __init__(self, rng: Rng, cfg: BlockConfig):
        super().__init__()
        c, hidden = cfg.channels, cfg.channels * cfg.ffn_expand
        self.expand = Linear(rng.child(0), c, hidden)
        self.reduce = Linear(rng.child(1), hidden, c)

    def forward(self, x: Tensor) -> Tensor:
        return self.reduce.forward_chw(gelu(self.expand.forward_chw(x)))


class _ResidualPair(Module):
    """Pre-norm residual wrapper shared by the VSS flavors."""

    def __init__(self, rng: Rng, cfg: BlockConfig, ffn: Module):
        super().__init__()
        self.norm1 = ChannelLayerNorm(cfg.channels)
        self.mixer = SS2DBlock(rng.child(0), cfg)
        self.norm2 = ChannelLayerNorm(cfg.channels)
        self.ffn = ffn

    def forward(self, x: Tensor) -> Tensor:
        x = self.mixer(self.norm1(x)) + x
        return self.ffn(self.norm2(x)) + x


class MSVSSBlock(_ResidualPair):
    """Visual state-space block with the multi-scale feed-forward network."""

    def __init__(self, rng: Rng, cfg: BlockConfig):
        super().__init__(rng, cfg, MultiScaleFFN(rng.child(1), cfg))


class VSSBlock(_ResidualPair):
    """Visual state-space block with a plain MLP feed-forward (baseline)."""

    def __init__(self, rng: Rng, cfg: BlockConfig):
        super().__init__(rng, cfg, MLPFFN(rng.child(1), cfg))


# -- encoder resamplers -----------------------------------------------------------

class PatchEmbed(Module):
    """Non-overlapping 4x4 patch projection to C channels, then layer norm."""

    def __init__(self, rng: Rng, in_channels: int, out_channels: int):
        super().__init__()
        self.proj = Linear(rng, in_channels * 16, out_channels)
        self.norm = ChannelLayerNorm(out_channels)

    def forward(self, img: Tensor) -> Tensor:
        c, h, w = img.data.shape
        if h % 4 or w % 4:
            raise ValueError(f"patch_embed: spatial extents {h}x{w} not divisible by 4")
        return self.norm(self.proj.forward_chw(space_to_depth(img, 4)))


class PatchMerge(Module):
    """Gather 2x2 neighborhoods into channels, layer-normalize, project to 2C."""

    def __init__(self, rng: Rng, channels: int):
        super().__init__()
        self.norm = ChannelLayerNorm(4 * channels)
        self.proj = Linear(rng, 4 * channels, 2 * channels, bias=False)

    def forward(self, x: Tensor) -> Tensor:
        c, h, w = x.data.shape
        if h % 2 or w % 2:
            raise ValueError(f"patch_merge: spatial extents {h}x{w} must be even")
        return self.proj.forward_chw(self.norm(space_to_depth(x, 2)))


# -- decoder upsamplers -------------------------------------------------------------

class LKPE(Module):
    """Large-kernel patch expanding: double channels, batch-norm, ReLU,
    depthwise conv, pixel-shuffle, layer norm.  At the default factor 2:
    [C,H,W] -> [C/2,2H,2W]."""

    def __init__(self, rng: Rng, channels: int, dwconv_kernel: int = 3, factor: int = 2):
        super().__init__()
        if (2 * channels) % (factor * factor):
            raise ValueError(f"LKPE: 2*{channels} channels not divisible by {factor}^2")
        self.factor = factor
        self.expand = Linear(rng.child(0), channels, 2 * channels)
        self.bn = BatchNorm2d(2 * channels)
        self.dwconv = DepthwiseConv2d(rng.child(1), 2 * channels, dwconv_kernel)
        self.norm = ChannelLayerNorm(2 * channels // (factor * factor))

    def forward(self, x: Tensor) -> Tensor:
        h = relu(self.bn(self.expand.forward_chw(x)))
        h = self.dwconv(h)
        return self.norm(pixel_shuffle(h, self.factor))


class PatchExpand(Module):
    """Channel-doubling projection then pixel-shuffle and layer norm (LKPE
    without the BN/ReLU/depthwise stage; ablation baseline)."""

    def __init__(self, rng: Rng, channels: int, factor: int = 2):
        super().__init__()
        if (2 * channels) % (factor * factor):
            raise ValueError(f"PatchExpand: 2*{channels} channels not divisible by {factor}^2")
        self.factor = factor
        self.expand = Linear(rng, channels, 2 * channels, bias=False)
        self.norm = ChannelLayerNorm(2 * channels // (factor * factor))

    def forward(self, x: Tensor) -> Tensor:
        return self.norm(pixel_shuffle(self.expand.forward_chw(x), self.factor))


class TransposedConvUp(Module):
    """Learned stride-2 2x2 transposed convolution halving channels.

    With a 2x2 kernel and stride 2 the output blocks do not overlap, so the
    layer is a linear map to 4x(C/2) channels followed by a pixel shuffle.
    """

    def __init__(self, rng: Rng, channels: int):
        super().__init__()
        if channels % 2:
            raise ValueError("TransposedConvUp needs an even channel count")
        self.proj = Linear(rng, channels, 4 * (channels // 2))

    def forward(self, x: Tensor) -> Tensor:
        return pixel_shuffle(self.proj.forward_chw(x), 2)


class UpsampleConv(Module):
    """Nearest-neighbour 2x upsampling followed by a 3x3 convolution halving
    channels."""

    def __init__(self, rng: Rng, channels: int):
        super().__init__()
        if channels % 2:
            raise ValueError("UpsampleConv needs an even channel count")
        fan_in = channels * 9
        self.weight = init_kaiming_uniform(rng, (channels // 2, channels, 3, 3), fan_in=fan_in)
        self.bias = init_zeros((channels // 2,))

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(upsample_nearest2x(x), self.weight, self.bias)


_UPSAMPLERS = {
    "lkpe": lambda rng, c, cfg: LKPE(rng, c, cfg.dwconv_kernel, cfg.pixel_shuffle_factor),
    "patch_expand": lambda rng, c, cfg: PatchExpand(rng, c, cfg.pixel_shuffle_factor),
    "transposed_conv": lambda rng, c, cfg: TransposedConvUp(rng, c),
    "upsample_block": lambda rng, c, cfg: UpsampleConv(rng, c),
}


def make_upsampler(kind: str, rng: Rng, channels: int, cfg: BlockConfig) -> Module:
    try:
        factory = _UPSAMPLERS[kind]
    except KeyError:
        raise ValueError(f"unknown upsampler '{kind}' (choose from {sorted(_UPSAMPLERS)})") from None
    return factory(rng, channels, cfg)


class FLKPE(Module):
    """Final 4x upsampling head: expand channels 16x, batch-norm, ReLU, 3x3
    depthwise conv, pixel-shuffle by 4, layer norm, 1x1 projection to class
    logits.  [C,H,W] -> [K,4H,4W]."""

    def __init__(self, rng: Rng, channels: int, num_classes: int, dwconv_kernel: int = 3):
        super().__init__()
        self.expand = Linear(rng.child(0), channels, 16 * channels)
        self.bn = BatchNorm2d(16 * channels)
        self.dwconv = DepthwiseConv2d(rng.child(1), 16 * channels, dwconv_kernel)
        self.norm = ChannelLayerNorm(channels)
        self.head = Linear(rng.child(2), channels, num_classes)

    def forward(self, x: Tensor) -> Tensor:
        h = relu(self.bn(self.expand.forward_chw(x)))
        h = self.dwconv(h)
        h = self.norm(pixel_shuffle(h, 4))
        return self.head.forward_chw(h)
