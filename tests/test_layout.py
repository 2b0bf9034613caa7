"""Channels-last activation layout: equivalence with the channels-first
model it replaced, and guards on the recorded graph: no transpose pairs or
composed norms coming back, and no engine op that the model stopped using."""

import ast
import collections
import contextlib
import itertools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import held_bytes, step_peaks
from msvseg import scan, tensor
from msvseg.blocks import _UPSAMPLERS
from msvseg.gradcheck import _f64_params
from msvseg.losses import total_loss
from msvseg.model import _DECODER_BLOCKS, TINY224_PRESET, TOY_PRESET, ModelConfig, build_model
from msvseg.tensor import Rng, Tensor

# Recorded with the last channels-first implementation ([C, H, W] activations,
# a transpose pair around every linear and layer norm) on the f64 micro model
# of the gradient suite's model.micro_full: sum(logits * W) for a fixed random
# W, and every parameter gradient of total_loss projected on a fixed random
# direction.
CHANNELS_FIRST_REFERENCE = {
    "lkpe": (4.606414010844449, 0.03370343001876201),
    "patch_expand": (0.09679259779830618, 0.006134762933778522),
    "transposed_conv": (1.83077474064428, 0.1613082459918561),
    "upsample_block": (5.458407788601114, 0.1112432330543526),
}


def _per_path_slots(model):
    """(tensor, index) pairs in the parameter order of the model the reference
    was recorded with, which stored each scan path's parameters as tensors of
    their own: every SS2D's stacked [4, ...] tensors stand there as four
    per-path slices, path by path."""
    named = dict(model.named_parameters())
    slots = []
    for name, p in named.items():
        owner, _, leaf = name.rpartition(".")
        if not owner.endswith(".ss2d"):
            slots.append((p, ...))
        elif leaf == "a_log":  # the first of the seven stacked quantities
            stacked = [t for n, t in named.items() if n.rpartition(".")[0] == owner]
            slots.extend((t, i) for i in range(4) for t in stacked)
    return slots


def _micro_probe(upsampler, seed=0):
    cfg = ModelConfig(base_channels=8, stage_depths=(1, 1, 1, 1), num_classes=3,
                      input_size=(32, 32), state_size=4, upsampler=upsampler)
    model = build_model(cfg, Rng(seed + 5))
    _f64_params(model)
    slots = _per_path_slots(model)
    jitter = Rng(seed + 8)
    for i, (p, k) in enumerate(slots):
        p.data[k] += jitter.child(i).uniform(-0.05, 0.05, p.data[k].shape)
    img = Tensor(Rng(seed + 6).random((3, 32, 32)), dtype=np.float64)
    mask = Rng(seed + 7).integers(0, 3, (32, 32)).astype(np.int32)
    logits = model.forward(img)
    probe = float(np.sum(logits.data * Rng(90).normal(logits.data.shape)))
    total_loss(logits, mask, 0.6).backward()
    projection = sum(float(np.dot(p.grad[k].ravel(), Rng(91).child(i).normal(p.data[k].size)))
                     for i, (p, k) in enumerate(slots))
    return probe, projection


@pytest.mark.parametrize("upsampler", sorted(CHANNELS_FIRST_REFERENCE))
def test_matches_channels_first_model(upsampler):
    probe, projection = _micro_probe(upsampler)
    ref_probe, ref_projection = CHANNELS_FIRST_REFERENCE[upsampler]
    assert abs(probe - ref_probe) <= 1e-12 * abs(ref_probe)
    assert abs(projection - ref_projection) <= 1e-12 * abs(ref_projection)


@contextlib.contextmanager
def _recorded_ops():
    """Counts the ops recorded inside the block by (module, function that
    called ``record_op``, op name)."""
    counts = collections.Counter()
    originals = {module: module.record_op for module in (tensor, scan)}

    def counting(record_op):
        def counted(out_data, parents, backward_fn, name):
            caller = sys._getframe(1)
            counts[caller.f_globals["__name__"], caller.f_code.co_name, name] += 1
            return record_op(out_data, parents, backward_fn, name)
        return counted

    for module, record_op in originals.items():
        module.record_op = counting(record_op)
    try:
        yield counts
    finally:
        for module, record_op in originals.items():
            module.record_op = record_op


def _toy_op_counts(lead=()):
    """Recorded ops, by name, of one toy forward plus loss over images of
    leading shape ``lead``."""
    with _recorded_ops() as sites:
        model = build_model(TOY_PRESET, Rng(0))
        img = Tensor(Rng(1).random(lead + (3, 64, 64)).astype(np.float32))
        mask = Rng(2).integers(0, 4, lead + (64, 64)).astype(np.int32)
        total_loss(model.forward(img), mask, TOY_PRESET.alpha)
    counts = collections.Counter()
    for (_, _, name), n in sites.items():
        counts[name] += n
    return counts


def _record_op_sites(module):
    """(module, function, op name) of every ``record_op`` call in the
    module's source that names its op with a literal."""
    tree = ast.parse(Path(module.__file__).read_text())
    sites = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        # calls in fn's own body, not in the functions nested in it
        todo = list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "record_op"
                    and isinstance(node.args[-1], ast.Constant)):
                sites.add((module.__name__, fn.name, node.args[-1].value))
            todo.extend(ast.iter_child_nodes(node))
    return sites


def test_every_engine_op_is_recorded_by_the_model():
    # cross_scan and cross_merge stay for the acceptance module, which calls them
    kept = {(scan.__name__, name, name) for name in ("cross_scan", "cross_merge")}
    with _recorded_ops() as used:
        for upsampler, block in itertools.product(sorted(_UPSAMPLERS), sorted(_DECODER_BLOCKS)):
            cfg = ModelConfig(base_channels=8, stage_depths=(1, 1, 1, 1), num_classes=3,
                              input_size=(32, 32), state_size=4, upsampler=upsampler,
                              decoder_block=block)
            img = Tensor(Rng(6).random((3, 32, 32)).astype(np.float32))
            mask = Rng(7).integers(0, 3, (32, 32)).astype(np.int32)
            total_loss(build_model(cfg, Rng(5)).forward(img), mask, cfg.alpha)
    sites = _record_op_sites(tensor) | _record_op_sites(scan)
    assert len(sites) > 15, sites
    assert sites - kept - set(used) == set()


def test_toy_forward_and_loss_record_ten_transposes():
    # one at the image entry, one per space-to-depth (patch embed, three
    # merges), one per pixel shuffle (three LKPE, the head), one for the logits
    counts = _toy_op_counts()
    assert counts["selective_scan"] == 7  # the wrappers saw the whole forward
    assert counts["transpose"] == 10
    # 29 layer norms and 4 batch norms, each one fused op with no sqrt inside
    assert counts["normalize"] == 33
    assert counts["sqrt"] == 0
    # each subtraction is one op: softmax shift, CE shift, lse - picked, 1 - dice
    assert counts["sub"] == 4
    # each SS2D is one recorded op: its cross-scan, projections, softplus,
    # A = -exp(A_log) and merge record nothing of their own
    assert counts["cross_scan"] == 0 and counts["cross_merge"] == 0
    # each of the three decoder MS-FFNs merges its branch kernels and the
    # identity into one kernel: one depthwise conv, no branch adds
    assert counts["merge_kernels"] == 3
    assert counts["depthwise_conv2d"] == 14
    assert counts["add"] == 21
    # each scan quantity is one stored [4, ...] tensor, and cross-entropy
    # picks the true-class logit through the one-hot target: no re-stacking
    # or gather ops
    assert counts["stack"] == 0 and counts["take_flat"] == 0
    assert sum(counts.values()) == 182


def test_toy_batch_of_eight_records_the_graph_of_one_image():
    counts = _toy_op_counts((8,))
    assert counts == _toy_op_counts()
    assert counts["transpose"] == 10
    assert counts["normalize"] == 33
    assert counts["selective_scan"] == 7
    assert counts["merge_kernels"] == 3
    assert sum(counts.values()) == 182


# Distinct arrays, parameters aside, that the toy graph of a batch of eight
# holds for backward: 38.9 MB when each SS2D recorded its cross-scan,
# projections, softplus and exp/neg as ops of their own (the four-path copy,
# the dt pre-activation and delta stayed alive), 27.2 MB with SS2D as one op
# that keeps only its input map and the scan's block-entry states, 24.5 MB
# with gelu keeping only its input, not Phi(x) beside it, 15.5 MB with the
# outputs of normalize, gelu, silu and relu formed again in their
# consumers' backward instead of kept.
TOY_HELD_MB_BOUND = 17.0
# The same for one 224x224 sample at width 48 (the wide224_train model):
# 110.3 MB before the recompute, 69.1 MB with it.
WIDE224_HELD_MB_BOUND = 75.0
# Traced peak of a toy step on a batch of eight above its start
# (``step_peaks``): 27.8 MB, set by the patch embed's layer-norm backward,
# before the recompute; 21.8 MB, set by the last scan's backward, with it.
TOY_STEP_PEAK_MB_BOUND = 24.0


def _held_mb(cfg, lead):
    size = cfg.input_size[0]
    model = build_model(cfg, Rng(0))
    img = Tensor(Rng(1).random(lead + (3, size, size)).astype(np.float32))
    mask = Rng(2).integers(0, cfg.num_classes, lead + (size, size)).astype(np.int32)
    loss = total_loss(model.forward(img), mask, cfg.alpha)
    by_op = held_bytes(loss, model.parameters())
    return sum(by_op.values()) / 2 ** 20, by_op


def test_toy_graph_holds_less_than_the_bound_at_backward():
    held, by_op = _held_mb(TOY_PRESET, (8,))
    assert held < TOY_HELD_MB_BOUND, by_op


def test_wide224_graph_holds_less_than_the_bound_at_backward():
    cfg = replace(TINY224_PRESET, base_channels=48, stage_depths=(1, 1, 1, 1))
    held, by_op = _held_mb(cfg, (1,))
    assert held < WIDE224_HELD_MB_BOUND, by_op


def test_toy_step_peaks_below_the_bound():
    model = build_model(TOY_PRESET, Rng(0))
    img = Tensor(Rng(1).random((8, 3, 64, 64)).astype(np.float32))
    mask = Rng(2).integers(0, 4, (8, 64, 64)).astype(np.int32)
    points = step_peaks(lambda: total_loss(model.forward(img), mask, TOY_PRESET.alpha))
    assert {p.label for p in points} >= {"forward", "walk"}
    assert any(p.label.startswith("selective_scan ") for p in points)
    assert points[0].peak_mb < TOY_STEP_PEAK_MB_BOUND, points[:5]
