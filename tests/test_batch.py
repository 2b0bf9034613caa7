"""One batched graph: a [B, 3, H, W] mini-batch through one forward pass
matches the per-image forward passes it replaced, and so does its loss and
every parameter gradient."""

import numpy as np
import pytest

from msvseg import tensor as T
from msvseg.blocks import (
    FLKPE, LKPE, BatchNorm2d, BlockConfig, MSVSSBlock, PatchEmbed, PatchMerge,
    pixel_shuffle, space_to_depth, upsample_nearest2x,
)
from msvseg.gradcheck import _f64_params
from msvseg.losses import ce_loss, dice_loss, one_hot, total_loss
from msvseg.model import TOY_PRESET, ModelConfig, build_model
from msvseg.scan import SS2D, cross_merge, cross_scan
from msvseg.tensor import Rng, Tensor, no_grad

LEAD = (2, 3)  # two leading axes: any leading shape is a batch


def _f64(module):
    _f64_params(module, jitter_rng=Rng(1))
    return module


def _k(seed, shape):
    return Tensor(Rng(seed).normal(shape), dtype=np.float64)


# layer, trailing input shape: each maps [*LEAD, ...] inputs map by map
LAYERS = {
    "depthwise_conv2d": (lambda x: T.depthwise_conv2d(x, _k(10, (4, 3, 5))), (5, 6, 4)),
    "conv2d": (lambda x: T.conv2d(x, _k(11, (2, 4, 3, 3)), _k(12, (2,))), (5, 6, 4)),
    "softmax_channels": (T.softmax_channels, (4, 5, 6)),
    "pixel_shuffle": (lambda x: pixel_shuffle(x, 2), (3, 4, 8)),
    "space_to_depth": (lambda x: space_to_depth(x, 2), (4, 6, 2)),
    "upsample_nearest2x": (upsample_nearest2x, (3, 4, 2)),
    "cross_merge_of_cross_scan": (lambda x: cross_merge(cross_scan(x), 3, 5), (3, 5, 2)),
    "batch_norm": (_f64(BatchNorm2d(4)), (5, 6, 4)),
    "patch_embed": (_f64(PatchEmbed(Rng(13), 6)), (3, 8, 8)),
    "patch_merge": (_f64(PatchMerge(Rng(14), 4)), (4, 6, 4)),
    "ss2d": (_f64(SS2D(Rng(15), 4, n_state=3)), (3, 5, 4)),
    "msvss_block": (_f64(MSVSSBlock(Rng(16), BlockConfig(channels=8, state_size=4))), (4, 4, 8)),
    "lkpe": (_f64(LKPE(Rng(17), 8)), (3, 4, 8)),
    "flkpe": (_f64(FLKPE(Rng(18), 4, 3)), (3, 4, 4)),
}


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_layer_maps_every_leading_index_on_its_own(name):
    layer, shape = LAYERS[name]
    x = Rng(20).normal(LEAD + shape)
    batched = layer(Tensor(x, dtype=np.float64)).data
    for idx in np.ndindex(*LEAD):
        one = layer(Tensor(x[idx], dtype=np.float64)).data
        assert batched[idx].shape == one.shape
        assert np.max(np.abs(batched[idx] - one)) <= 1e-12 * max(1.0, np.max(np.abs(one)))


def test_one_hot_of_a_batch_stacks_the_planes():
    masks = Rng(24).integers(0, 3, LEAD + (4, 5))
    planes = one_hot(masks, 3)
    assert planes.shape == LEAD + (3, 4, 5)
    for idx in np.ndindex(*LEAD):
        assert np.array_equal(planes[idx], one_hot(masks[idx], 3))


def test_batched_losses_are_the_mean_of_per_image_losses():
    logits = Rng(25).normal(LEAD + (3, 4, 5)) * 3
    masks = Rng(26).integers(0, 3, LEAD + (4, 5)).astype(np.int32)
    for loss in (ce_loss, lambda lg, m: dice_loss(T.softmax_channels(lg), m)):
        batched = loss(Tensor(logits, dtype=np.float64), masks).item()
        per_image = np.mean([loss(Tensor(logits[idx], dtype=np.float64), masks[idx]).item()
                             for idx in np.ndindex(*LEAD)])
        assert abs(batched - per_image) <= 1e-12 * abs(per_image)


def test_ce_loss_rejects_a_mask_batch_of_another_shape():
    with pytest.raises(ValueError):
        ce_loss(_k(27, (2, 3, 4, 4)), np.zeros((3, 4, 4), dtype=np.int32))


def _micro_model(upsampler):
    cfg = ModelConfig(base_channels=8, stage_depths=(1, 1, 1, 1), num_classes=3,
                      input_size=(32, 32), state_size=4, upsampler=upsampler)
    model = build_model(cfg, Rng(5))
    return model, _f64_params(model, jitter_rng=Rng(8))


def _grads(params):
    grads = [p.grad.copy() for p in params]
    for p in params:
        p.grad = None
    return grads


@pytest.mark.parametrize("upsampler", ["lkpe", "patch_expand", "transposed_conv", "upsample_block"])
def test_batch_matches_per_sample_loop(upsampler):
    model, params = _micro_model(upsampler)
    images = Rng(6).random((3, 3, 32, 32))
    masks = Rng(7).integers(0, 3, (3, 32, 32)).astype(np.int32)

    logits = model.forward(Tensor(images, dtype=np.float64))
    loss = total_loss(logits, masks, 0.6)
    loss.backward()
    batched = _grads(params)

    total = None
    for i, (img, mask) in enumerate(zip(images, masks)):
        one = model.forward(Tensor(img, dtype=np.float64))
        assert np.max(np.abs(logits.data[i] - one.data)) <= 1e-12 * np.max(np.abs(one.data))
        term = total_loss(one, mask, 0.6)
        total = term if total is None else total + term
    mean = total * (1.0 / len(images))
    assert abs(loss.item() - mean.item()) <= 1e-12 * abs(mean.item())
    mean.backward()
    looped = _grads(params)

    # biases right before a per-map batch norm have a true gradient of 0, so
    # both sides compute noise there: compare against the largest gradient
    scale = max(float(np.max(np.abs(g))) for g in looped)
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(batched, looped))
    assert worst <= 1e-12 * scale


def test_toy_f32_batch_logits_match_single_images():
    model = build_model(TOY_PRESET, Rng(0))
    images = Rng(1).random((4, 3, 64, 64)).astype(np.float32)
    with no_grad():
        batched = model.forward(Tensor(images)).data
        for i, img in enumerate(images):
            single = model.forward(Tensor(img)).data
            assert np.max(np.abs(batched[i] - single)) <= 1e-6
