"""Network building blocks: scan blocks, multi-scale FFN, patch resamplers.

Feature maps are channels-last [..., H, W, C]: any leading shape is a batch
of maps, carried through every block unchanged, and a single map has the
leading shape ().  Linear projections and layer norms act on the trailing
extent of the map as it is; batch norm normalizes each map over its own
(H, W).  Pixel shuffles and nearest-neighbour upsampling are reshapes and
transposes of the map.  Only the model's boundary speaks the image layout:
PatchEmbed takes [..., 3, H, W] images and FLKPE emits [..., K, H, W] logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    Module, Rng, Tensor, constant, conv2d, depthwise_conv2d, gelu,
    init_kaiming_uniform, init_trunc_normal, init_zeros, init_ones, linear,
    merge_kernels, mul, normalize, relu, reshape, silu, transpose,
)
from .scan import SS2D

__all__ = [
    "FFN_EXPAND", "DWCONV_KERNEL", "BlockConfig", "Linear", "DepthwiseConv2d",
    "ChannelLayerNorm", "BatchNorm2d", "pixel_shuffle", "space_to_depth", "upsample_nearest2x",
    "SS2DBlock", "MultiScaleFFN", "MLPFFN", "MSVSSBlock", "VSSBlock",
    "PatchEmbed", "PatchMerge", "LKPE", "PatchExpand", "TransposedConvUp",
    "UpsampleConv", "FLKPE",
]


# Fixed by the architecture: the FFN's channel expansion and the kernel size of
# the depthwise convolutions in the scan blocks, LKPE and FLKPE.
FFN_EXPAND = 4
DWCONV_KERNEL = 3


@dataclass
class BlockConfig:
    """Shared block hyperparameters; ``ModelConfig.validate`` checks the
    kernel set."""
    channels: int
    kernel_set: tuple[int, ...] = (1, 3, 5)
    state_size: int = 16


# -- leaf layers -----------------------------------------------------------------

class Linear(Module):
    def __init__(self, rng: Rng, in_features: int, out_features: int, bias: bool = True):
        self.weight = init_trunc_normal(rng, (in_features, out_features), std=0.02)
        self.bias = init_zeros((out_features,)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class DepthwiseConv2d(Module):
    def __init__(self, rng: Rng, channels: int, kernel_size: int):
        self.kernel = init_kaiming_uniform(rng, (channels, kernel_size, kernel_size),
                                           fan_in=kernel_size * kernel_size)

    def forward(self, x: Tensor) -> Tensor:
        return depthwise_conv2d(x, self.kernel)


class ChannelLayerNorm(Module):
    """Layer normalization over the channel extent of [..., H, W, C] maps."""

    def __init__(self, channels: int):
        self.gamma = init_ones((channels,))
        self.beta = init_zeros((channels,))

    def forward(self, x: Tensor) -> Tensor:
        return normalize(x, self.gamma, self.beta, axes=-1)


class BatchNorm2d(Module):
    """Per-channel normalization of [..., H, W, C] maps over (H, W).

    Training and evaluation alike normalize each map with its own statistics
    over (H, W), never across the leading batch axes, so a map's output does
    not depend on the other maps of its batch, the layer keeps no running
    buffers and checkpoints stay parameters-only.
    """

    def __init__(self, channels: int):
        self.gamma = init_ones((channels,))
        self.beta = init_zeros((channels,))

    def forward(self, x: Tensor) -> Tensor:
        return normalize(x, self.gamma, self.beta, axes=(-3, -2))


# -- layout resamplers ----------------------------------------------------------------

def _moved(x: Tensor, cell_axes) -> Tensor:
    """Transpose the trailing axes of ``x`` by ``cell_axes`` (numbered from
    the first trailing axis), keeping its leading axes in place."""
    lead = x.data.ndim - len(cell_axes)
    return transpose(x, tuple(range(lead)) + tuple(lead + a for a in cell_axes))


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """[..., H, W, C] -> [..., rH, rW, C/r^2]; channel group g of output
    channel c lands at spatial offset (g // r, g % r) inside the r x r cell."""
    *lead, h, w, c = x.data.shape
    if c % (r * r) != 0:
        raise ValueError(f"pixel_shuffle: {c} channels not divisible by r^2={r * r}")
    cells = _moved(reshape(x, (*lead, h, w, c // (r * r), r, r)), (0, 3, 1, 4, 2))
    return reshape(cells, (*lead, h * r, w * r, c // (r * r)))


def space_to_depth(x: Tensor, r: int) -> Tensor:
    """[..., H, W, C] -> [..., H/r, W/r, C*r^2], exact inverse of pixel_shuffle."""
    *lead, h, w, c = x.data.shape
    if h % r != 0 or w % r != 0:
        raise ValueError(f"space_to_depth: spatial extents {h}x{w} not divisible by {r}")
    cells = _moved(reshape(x, (*lead, h // r, r, w // r, r, c)), (0, 2, 4, 1, 3))
    return reshape(cells, (*lead, h // r, w // r, c * r * r))


def upsample_nearest2x(x: Tensor) -> Tensor:
    """[..., H, W, C] -> [..., 2H, 2W, C], each pixel repeated over a 2 x 2 cell."""
    *lead, h, w, c = x.data.shape
    cells = mul(reshape(x, (*lead, h, 1, w, 1, c)), constant(np.ones((2, 1, 2, 1)), like=x))
    return reshape(cells, (*lead, 2 * h, 2 * w, c))


# -- scan blocks ----------------------------------------------------------------

class SS2DBlock(Module):
    """Channel-doubling projection, 3x3 depthwise conv, SiLU, four-path scan,
    layer norm, then projection back to the input width."""

    def __init__(self, rng: Rng, cfg: BlockConfig):
        c = cfg.channels
        self.proj_in = Linear(rng.child(0), c, 2 * c)
        self.dwconv = DepthwiseConv2d(rng.child(1), 2 * c, DWCONV_KERNEL)
        self.ss2d = SS2D(rng.child(2), 2 * c, cfg.state_size)
        self.norm = ChannelLayerNorm(2 * c)
        self.proj_out = Linear(rng.child(3), 2 * c, c)

    def forward(self, x: Tensor) -> Tensor:
        h = self.proj_in(x)
        h = silu(self.dwconv(h))
        h = self.norm(self.ss2d(h))
        return self.proj_out(h)


class MultiScaleFFN(Module):
    """Four-fold channel expansion, GELU, parallel depthwise convolutions of
    the configured kernel sizes summed with the expanded features, then
    reduction back to the input width.

    The parallel branches and the identity run as one depthwise convolution:
    their kernels, zero-padded to the largest size and centred, plus 1 at the
    centre tap, are summed into one kernel by one recorded op (structural
    re-parameterisation, Ding et al. 2021).  Each branch keeps its own
    parameter, so checkpoints keep the per-branch kernels.
    """

    def __init__(self, rng: Rng, cfg: BlockConfig):
        c, hidden = cfg.channels, cfg.channels * FFN_EXPAND
        self.expand = Linear(rng.child(0), c, hidden)
        self.branches = [DepthwiseConv2d(rng.child(10 + i), hidden, k)
                         for i, k in enumerate(cfg.kernel_set)]
        self.reduce = Linear(rng.child(1), hidden, c)

    def forward(self, x: Tensor) -> Tensor:
        h = gelu(self.expand(x))
        kernel = merge_kernels([branch.kernel for branch in self.branches])
        return self.reduce(depthwise_conv2d(h, kernel))


class MLPFFN(Module):
    """Plain two-layer feed-forward (expansion, GELU, reduction)."""

    def __init__(self, rng: Rng, cfg: BlockConfig):
        c, hidden = cfg.channels, cfg.channels * FFN_EXPAND
        self.expand = Linear(rng.child(0), c, hidden)
        self.reduce = Linear(rng.child(1), hidden, c)

    def forward(self, x: Tensor) -> Tensor:
        return self.reduce(gelu(self.expand(x)))


class _ResidualPair(Module):
    """Pre-norm residual wrapper shared by the VSS flavors."""

    def __init__(self, rng: Rng, cfg: BlockConfig, ffn: Module):
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
    """Non-overlapping 4x4 patch projection of [..., 3, H, W] images to
    [..., H/4, W/4, C] maps, then layer norm.  The images enter channels-last
    through one transpose."""

    def __init__(self, rng: Rng, out_channels: int):
        self.proj = Linear(rng, 3 * 16, out_channels)
        self.norm = ChannelLayerNorm(out_channels)

    def forward(self, img: Tensor) -> Tensor:
        h, w = img.data.shape[-2:]
        if h % 4 or w % 4:
            raise ValueError(f"patch_embed: spatial extents {h}x{w} not divisible by 4")
        return self.norm(self.proj(space_to_depth(_moved(img, (1, 2, 0)), 4)))


class PatchMerge(Module):
    """Gather 2x2 neighborhoods into channels, layer-normalize, project to 2C."""

    def __init__(self, rng: Rng, channels: int):
        self.norm = ChannelLayerNorm(4 * channels)
        self.proj = Linear(rng, 4 * channels, 2 * channels, bias=False)

    def forward(self, x: Tensor) -> Tensor:
        h, w = x.data.shape[-3:-1]
        if h % 2 or w % 2:
            raise ValueError(f"patch_merge: spatial extents {h}x{w} must be even")
        return self.proj(self.norm(space_to_depth(x, 2)))


# -- decoder upsamplers -------------------------------------------------------------

class LKPE(Module):
    """Large-kernel patch expanding: double channels, batch-norm, ReLU,
    depthwise conv, 2x pixel-shuffle, layer norm:
    [...,H,W,C] -> [...,2H,2W,C/2]."""

    def __init__(self, rng: Rng, channels: int):
        if channels % 2:
            raise ValueError("LKPE needs an even channel count")
        self.expand = Linear(rng.child(0), channels, 2 * channels)
        self.bn = BatchNorm2d(2 * channels)
        self.dwconv = DepthwiseConv2d(rng.child(1), 2 * channels, DWCONV_KERNEL)
        self.norm = ChannelLayerNorm(channels // 2)

    def forward(self, x: Tensor) -> Tensor:
        h = relu(self.bn(self.expand(x)))
        h = self.dwconv(h)
        return self.norm(pixel_shuffle(h, 2))


class PatchExpand(Module):
    """Channel-doubling projection then pixel-shuffle and layer norm (LKPE
    without the BN/ReLU/depthwise stage; ablation baseline)."""

    def __init__(self, rng: Rng, channels: int):
        if channels % 2:
            raise ValueError("PatchExpand needs an even channel count")
        self.expand = Linear(rng, channels, 2 * channels, bias=False)
        self.norm = ChannelLayerNorm(channels // 2)

    def forward(self, x: Tensor) -> Tensor:
        return self.norm(pixel_shuffle(self.expand(x), 2))


class TransposedConvUp(Module):
    """Learned stride-2 2x2 transposed convolution halving channels.

    With a 2x2 kernel and stride 2 the output blocks do not overlap, so the
    layer is a linear map to 4x(C/2) channels followed by a pixel shuffle.
    """

    def __init__(self, rng: Rng, channels: int):
        if channels % 2:
            raise ValueError("TransposedConvUp needs an even channel count")
        self.proj = Linear(rng, channels, 4 * (channels // 2))

    def forward(self, x: Tensor) -> Tensor:
        return pixel_shuffle(self.proj(x), 2)


class UpsampleConv(Module):
    """Nearest-neighbour 2x upsampling followed by a 3x3 convolution halving
    channels."""

    def __init__(self, rng: Rng, channels: int):
        if channels % 2:
            raise ValueError("UpsampleConv needs an even channel count")
        fan_in = channels * 9
        self.weight = init_kaiming_uniform(rng, (channels // 2, channels, 3, 3), fan_in=fan_in)
        self.bias = init_zeros((channels // 2,))

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(upsample_nearest2x(x), self.weight, self.bias)


_UPSAMPLERS = {
    "lkpe": LKPE,
    "patch_expand": PatchExpand,
    "transposed_conv": TransposedConvUp,
    "upsample_block": UpsampleConv,
}


class FLKPE(Module):
    """Final 4x upsampling head: expand channels 16x, batch-norm, ReLU, 3x3
    depthwise conv, pixel-shuffle by 4, layer norm, 1x1 projection to class
    logits, transposed to the class-first layout of the losses.
    [...,H,W,C] -> [...,K,4H,4W]."""

    def __init__(self, rng: Rng, channels: int, num_classes: int):
        self.expand = Linear(rng.child(0), channels, 16 * channels)
        self.bn = BatchNorm2d(16 * channels)
        self.dwconv = DepthwiseConv2d(rng.child(1), 16 * channels, DWCONV_KERNEL)
        self.norm = ChannelLayerNorm(channels)
        self.head = Linear(rng.child(2), channels, num_classes)

    def forward(self, x: Tensor) -> Tensor:
        h = relu(self.bn(self.expand(x)))
        h = self.dwconv(h)
        h = self.norm(pixel_shuffle(h, 4))
        return _moved(self.head(h), (2, 0, 1))
