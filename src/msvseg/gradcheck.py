"""Finite-difference validation suite for every differentiable op and block.

Each entry builds a pure scalar function plus its float64 inputs, runs the
central-difference comparison across several seeds and reports the worst
relative error against its tolerance.  The CLI `gradcheck` subcommand and the
acceptance tests both run this suite.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import (
    BatchNorm2d, BlockConfig, FLKPE, LKPE, MSVSSBlock, MultiScaleFFN, PatchEmbed, PatchExpand,
    PatchMerge, SS2DBlock, TransposedConvUp, UpsampleConv, VSSBlock,
)
from .losses import ce_loss, dice_loss, total_loss
from .model import ModelConfig, build_model
from .scan import SS2D, _scan_op
from .tensor import Rng, Tensor, finite_diff_grad_check

__all__ = ["CheckResult", "run_gradient_suite", "OP_TOL", "BLOCK_TOL", "MODEL_TOL"]

OP_TOL = 1e-4
TIGHT_TOL = 1e-6
LOSS_TOL = 1e-5
BLOCK_TOL = 1e-4
MODEL_TOL = 1e-3
# parameter coordinates spot-checked per block parameter tensor
BLOCK_COORDS = 8


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float
    seeds: int

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol


def _t(rng: Rng, shape, scale=1.0, positive=False, away_from_zero=False):
    data = rng.normal(shape) * scale
    if positive:
        data = np.abs(data) + 0.1
    if away_from_zero:
        data = data + 0.2 * np.sign(data)
    return Tensor(data, dtype=np.float64, requires_grad=True)


def _square_sum(y: Tensor) -> Tensor:
    # sum of squares mixes coordinates so gradients are not trivially constant
    return T.tsum(T.mul(y, y))


def _f64_params(module, jitter_rng: Rng | None = None, jitter: float = 0.05) -> list[Tensor]:
    """Cast parameters to float64; with a jitter rng, also nudge them off the
    initialization point so checks run at a generic point (zero-initialized
    biases otherwise park ReLU inputs exactly on the kink)."""
    params = []
    for i, (_, p) in enumerate(module.named_parameters()):
        p.data = p.data.astype(np.float64)
        if jitter_rng is not None:
            p.data += jitter_rng.child(i).uniform(-jitter, jitter, p.data.shape)
        params.append(p)
    return params


# -- op-level checks -------------------------------------------------------------


def _op_cases(seed: int):
    r = Rng(seed)
    x = _t(r.child(0), (4, 8))
    w = _t(r.child(1), (8, 3))
    b = _t(r.child(2), (3,))
    yield "op.linear", TIGHT_TOL, (lambda x, w, b: _square_sum(T.linear(x, w, b))), [x, w, b]

    c = _t(r.child(3), (6, 6, 3))
    k = _t(r.child(4), (3, 3, 3))
    yield "op.depthwise_conv2d", TIGHT_TOL, (lambda c, k: _square_sum(T.depthwise_conv2d(c, k))), [c, k]
    k1 = _t(r.child(35), (3, 1, 1))
    yield "op.merge_kernels", TIGHT_TOL, (lambda k1, k: _square_sum(T.merge_kernels([k1, k]))), [k1, k]

    w4 = _t(r.child(5), (4, 3, 3, 3), scale=0.5)
    b4 = _t(r.child(6), (4,))
    yield "op.conv2d", TIGHT_TOL, (lambda c, w4, b4: _square_sum(T.conv2d(c, w4, b4))), [c, w4, b4]

    xn = _t(r.child(7), (5, 6))
    g = _t(r.child(8), (6,))
    be = _t(r.child(9), (6,))
    yield "op.layer_norm", OP_TOL, (lambda xn, g, be: _square_sum(T.normalize(xn, g, be, -1))), [xn, g, be]

    xb = _t(r.child(10), (4, 4, 3))
    gb = _t(r.child(11), (3,))
    bb = _t(r.child(12), (3,))
    yield "op.batch_norm2d", OP_TOL, (lambda xb, gb, bb: _square_sum(T.normalize(xb, gb, bb, (0, 1)))), [xb, gb, bb]

    # a leading batch of two maps: each map is convolved and normalized on its own
    cb = _t(r.child(32), (2, 4, 5, 3))
    yield "op.depthwise_conv2d_batched", TIGHT_TOL, (lambda cb, k: _square_sum(T.depthwise_conv2d(cb, k))), [cb, k]
    bn = BatchNorm2d(3)
    bn_inputs = [_t(r.child(33), (2, 4, 4, 3))] + _f64_params(bn, jitter_rng=r.child(34))
    yield "op.batch_norm2d_batched", OP_TOL, (lambda xb, *_: _square_sum(bn(xb))), bn_inputs

    for name, fn in (("silu", T.silu), ("gelu", T.gelu), ("relu", T.relu),
                     ("softplus", T.softplus)):
        # crc32, not hash(): str hashes are salted per process (PYTHONHASHSEED)
        xa = _t(r.child(20 + zlib.crc32(name.encode()) % 100), (3, 5), away_from_zero=True)
        yield f"op.{name}", TIGHT_TOL, (lambda xa, fn=fn: _square_sum(fn(xa))), [xa]

    xs1 = _t(r.child(30), (4, 3))
    xs2 = _t(r.child(31), (3,))
    yield "op.sub", TIGHT_TOL, (lambda xs1, xs2: _square_sum(xs1 - xs2) + _square_sum(xs2 - xs1)), [xs1, xs2]
    yield "op.neg", TIGHT_TOL, (lambda xs1, xs2: _square_sum(-xs1 * xs2)), [xs1, xs2]

    xp = _t(r.child(13), (4, 3), positive=True)
    yield "op.log", TIGHT_TOL, (lambda xp: _square_sum(T.log(xp))), [xp]
    yield "op.exp", TIGHT_TOL, (lambda xp: _square_sum(T.exp(xp))), [xp]

    xs = _t(r.child(14), (4, 3, 3))
    ww = Tensor(r.child(15).normal((4, 3, 3)), dtype=np.float64)

    def softmax_fn(xs):
        return T.tsum(T.mul(T.softmax_channels(xs), T.constant(ww.data, like=xs)))

    yield "op.softmax_channels", OP_TOL, softmax_fn, [xs]

    # the scan op on two paths of two sequences each, [2, 2, L, C], so that
    # repeating A and D per sequence and summing their gradients back per
    # path are checked too; delta > 0 and A < 0, as the model feeds them
    xq = _t(r.child(19), (2, 2, 6, 3))
    dq = _t(r.child(37), (2, 2, 6, 3), positive=True)
    aq = _t(r.child(38), (2, 3, 4), positive=True)
    aq.data = -aq.data
    bq, cq = _t(r.child(39), (2, 2, 6, 4)), _t(r.child(40), (2, 2, 6, 4))
    sq = _t(r.child(41), (2, 3))
    yield "op.selective_scan", OP_TOL, (lambda *args: _square_sum(_scan_op(*args))), [xq, dq, aq, bq, cq, sq]

    ss = SS2D(Rng(seed + 3), channels=3, n_state=4)
    fm = _t(r.child(21), (4, 5, 3))
    ss_inputs = [fm] + _f64_params(ss)

    def ss2d_fn(*args):
        return _square_sum(ss(args[0]))

    yield "op.ss2d", OP_TOL, ss2d_fn, ss_inputs

    fb = _t(r.child(35), (2, 3, 4, 3))
    yield "op.ss2d_batched", OP_TOL, (lambda fb, *_: _square_sum(ss(fb))), [fb] + ss_inputs[1:]

    # losses
    mask = Rng(seed + 4).integers(0, 3, (5, 5)).astype(np.int32)
    lg = _t(r.child(22), (3, 5, 5))
    yield "op.dice_loss", LOSS_TOL, (lambda lg: dice_loss(T.softmax_channels(lg), mask)), [lg]
    yield "op.ce_loss", LOSS_TOL, (lambda lg: ce_loss(lg, mask)), [lg]
    yield "op.total_loss", LOSS_TOL, (lambda lg: total_loss(lg, mask, 0.6)), [lg]

    masks = Rng(seed + 9).integers(0, 3, (2, 4, 4)).astype(np.int32)
    lb = _t(r.child(36), (2, 3, 4, 4))
    yield "op.dice_loss_batched", LOSS_TOL, (lambda lb: dice_loss(T.softmax_channels(lb), masks)), [lb]
    yield "op.ce_loss_batched", LOSS_TOL, (lambda lb: ce_loss(lb, masks)), [lb]


# -- block-level checks -------------------------------------------------------------


def _block_cases(seed: int):
    r = Rng(seed * 7919 + 13)
    cfg6 = BlockConfig(channels=6, kernel_set=(1, 3, 5), state_size=4)

    builders = {
        "block.ss2d_block": (lambda rng: SS2DBlock(rng, cfg6), (5, 5, 6)),
        "block.ms_ffn": (lambda rng: MultiScaleFFN(rng, cfg6), (5, 5, 6)),
        "block.msvss": (lambda rng: MSVSSBlock(rng, BlockConfig(channels=8, state_size=4)), (6, 6, 8)),
        "block.vss": (lambda rng: VSSBlock(rng, BlockConfig(channels=8, state_size=4)), (6, 6, 8)),
        "block.patch_embed": (lambda rng: PatchEmbed(rng, 6), (3, 8, 8)),
        "block.patch_merge": (lambda rng: PatchMerge(rng, 4), (6, 6, 4)),
        "block.lkpe": (lambda rng: LKPE(rng, 8), (4, 4, 8)),
        "block.patch_expand": (lambda rng: PatchExpand(rng, 8), (4, 4, 8)),
        "block.transposed_conv": (lambda rng: TransposedConvUp(rng, 8), (4, 4, 8)),
        "block.upsample_block": (lambda rng: UpsampleConv(rng, 8), (4, 4, 8)),
        "block.flkpe": (lambda rng: FLKPE(rng, 4, 3), (4, 4, 4)),
    }
    for name, (builder, shape) in builders.items():
        module = builder(Rng(seed * 31 + len(name)))
        params = _f64_params(module, jitter_rng=Rng(seed * 17 + 3))
        x = _t(r.child(zlib.crc32(name.encode()) % 1000), shape, scale=0.8)
        inputs = [x] + params

        # the fd harness perturbs tensors in place, so close over them directly
        def fn(*args, module=module, x=x):
            return _square_sum(module(x))

        yield name, BLOCK_TOL, fn, inputs


def _model_case(seed: int):
    cfg = ModelConfig(base_channels=8, stage_depths=(1, 1, 1, 1), num_classes=3,
                      input_size=(32, 32), state_size=4)
    model = build_model(cfg, Rng(seed + 5))
    params = _f64_params(model, jitter_rng=Rng(seed + 8))
    img = Tensor(Rng(seed + 6).random((3, 32, 32)), dtype=np.float64)
    mask = Rng(seed + 7).integers(0, 3, (32, 32)).astype(np.int32)

    def fn(*args):
        return total_loss(model.forward(img), mask, 0.6)

    return "model.micro_full", MODEL_TOL, fn, params


# -- suite runner ----------------------------------------------------------------------


def run_gradient_suite(seed: int = 0, op_seeds: int = 20, block_seeds: int = 3,
                       include_model: bool = True, model_coords: int = 5) -> list[CheckResult]:
    """Run the whole suite; ops over ``op_seeds`` seeds, blocks over
    ``block_seeds``.  Block/model parameters are spot-checked at
    BLOCK_COORDS/``model_coords`` coordinates per tensor (inputs fully)."""
    worst: dict[str, CheckResult] = {}

    def record(name, tol, err, seeds):
        prev = worst.get(name)
        if prev is None or err > prev.max_err:
            worst[name] = CheckResult(name, err, tol, seeds)

    for s in range(op_seeds):
        for name, tol, fn, inputs in _op_cases(seed + s):
            err = finite_diff_grad_check(fn, inputs, max_coords=64, rng=Rng(seed + s))
            record(name, tol, err, op_seeds)

    for s in range(block_seeds):
        for name, tol, fn, inputs in _block_cases(seed + s):
            first, rest = inputs[0], inputs[1:]
            err = finite_diff_grad_check(fn, [first], retry_threshold=BLOCK_TOL / 2)
            err_p = finite_diff_grad_check(fn, rest, max_coords=BLOCK_COORDS, rng=Rng(seed + s),
                                           retry_threshold=BLOCK_TOL / 2)
            record(name, tol, max(err, err_p), block_seeds)

    if include_model:
        name, tol, fn, params = _model_case(seed)
        err = finite_diff_grad_check(fn, params, max_coords=model_coords, rng=Rng(seed),
                                     retry_threshold=MODEL_TOL / 2)
        record(name, tol, err, 1)

    return list(worst.values())
