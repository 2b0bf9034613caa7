"""Model assembly: shapes, determinism, accounting, feature export."""

import hashlib
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from msvseg import scan
from msvseg.blocks import _UPSAMPLERS
from msvseg.losses import ce_loss, dice_loss, total_loss
from msvseg.model import (ModelConfig, TINY224_PRESET, TOY_PRESET, VSSUNet, build_model,
                          channel_mean_heatmap, count_flops, count_params,
                          export_stage_features, write_pgm)
from msvseg.serial import load_checkpoint, save_checkpoint
from msvseg.tensor import Rng, Tensor, softmax_channels, tsum


def micro_cfg(**kw):
    base = dict(base_channels=8, stage_depths=(1, 1, 1, 1), num_classes=3,
                input_size=(32, 32), state_size=4)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def toy_model():
    return build_model(ModelConfig(), Rng(42))


class TestConfigValidation:
    def test_indivisible_input_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(input_size=(60, 64)).validate()

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ModelConfig(alpha=1.5).validate()

    def test_unknown_decoder_block(self):
        with pytest.raises(ValueError):
            ModelConfig(decoder_block="attention").validate()

    def test_unknown_upsampler(self):
        with pytest.raises(ValueError):
            ModelConfig(upsampler="bilinear").validate()

    @pytest.mark.parametrize("kernel_set", [(), (1, 2), (-1,), (0, 3)],
                             ids=["empty", "even", "negative", "zero"])
    def test_kernel_set_needs_odd_sizes_of_at_least_one(self, kernel_set):
        # the one check of kernel_set: the blocks take it as given
        with pytest.raises(ValueError, match=r"kernel_set must be one or more odd sizes >= 1"):
            ModelConfig(kernel_set=kernel_set).validate()

    def test_stage_widths(self):
        assert ModelConfig(base_channels=96).stage_channels() == (96, 192, 384, 768)


class TestForward:
    def test_toy_smoke_and_shapes(self, toy_model):
        img = Tensor(Rng(1).random((3, 64, 64)).astype(np.float32))
        logits, bundle = toy_model.forward_features(img)
        assert logits.data.shape == (4, 64, 64)
        assert [f.data.shape for f in bundle.encoder] == [
            (16, 16, 16), (8, 8, 32), (4, 4, 64), (2, 2, 128)]
        assert [f.data.shape for f in bundle.decoder] == [
            (4, 4, 64), (8, 8, 32), (16, 16, 16)]

    def test_repeat_forward_identical(self, toy_model):
        img = Tensor(Rng(2).random((3, 64, 64)).astype(np.float32))
        y1 = toy_model.forward(img)
        y2 = toy_model.forward(img)
        assert np.array_equal(y1.data, y2.data)

    def test_wrong_channel_count_rejected(self, toy_model):
        with pytest.raises(ValueError):
            toy_model.forward(Tensor(np.zeros((1, 64, 64), dtype=np.float32)))

    def test_indivisible_extent_rejected(self, toy_model):
        with pytest.raises(ValueError):
            toy_model.forward(Tensor(np.zeros((3, 60, 64), dtype=np.float32)))

    def test_other_divisible_size_accepted(self, toy_model):
        y = toy_model.forward(Tensor(Rng(3).random((3, 32, 96)).astype(np.float32)))
        assert y.data.shape == (4, 32, 96)


class TestStageLayout:
    STAGES = ["patch_embed", "enc1", "merge1", "enc2", "merge2", "enc3", "merge3", "enc4",
              "up1", "dec1", "up2", "dec2", "up3", "dec3", "head"]

    def test_generic_walk_names_the_stages_in_checkpoint_order(self, toy_model):
        assert "named_parameters" not in vars(VSSUNet)
        runs = []  # first-level prefixes, one entry per contiguous run of names
        for name, _ in toy_model.named_parameters():
            stage = name.partition(".")[0]
            if not runs or runs[-1] != stage:
                runs.append(stage)
        assert runs == self.STAGES

    def test_every_name_is_an_attribute_path(self):
        model = build_model(micro_cfg(stage_depths=(2, 1, 3, 1)), Rng(0))
        for name, p in model.named_parameters():
            node = model
            for part in name.split("."):
                node = node[int(part)] if part.isdigit() else getattr(node, part)
            assert node is p, name


class TestGradientFlow:
    def test_every_parameter_gets_finite_gradient(self):
        model = build_model(micro_cfg(), Rng(19))
        img = Tensor(Rng(20).random((3, 32, 32)).astype(np.float32))
        logits = model.forward(img)
        model.zero_grad()
        tsum(logits * logits).backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name

    def test_zero_grad_unsets_every_gradient(self):
        model = build_model(micro_cfg(), Rng(19))
        logits = model.forward(Tensor(Rng(20).random((3, 32, 32)).astype(np.float32)))
        tsum(logits * logits).backward()
        model.zero_grad()
        for name, p in model.named_parameters():
            assert p.grad is None, name

    # the model configs of the benchmark's toy_train, wide224_train and
    # tiny224_infer workloads, at 64x64: its step clock reads every
    # parameter's gradient after one training loss's backward
    @pytest.mark.parametrize("cfg", [
        TOY_PRESET,
        replace(TINY224_PRESET, base_channels=48, stage_depths=(1, 1, 1, 1), input_size=(64, 64)),
        replace(TINY224_PRESET, input_size=(64, 64)),
    ], ids=["toy", "wide224", "tiny224"])
    def test_training_loss_reaches_every_parameter(self, cfg):
        model = build_model(cfg, Rng(21))
        images = Tensor(Rng(22).random((2, 3, 64, 64)).astype(np.float32))
        masks = Rng(23).integers(0, cfg.num_classes, (2, 64, 64)).astype(np.int32)
        model.zero_grad()
        logits = model.forward(images)
        loss = (cfg.alpha * dice_loss(softmax_channels(logits), masks)
                + (1.0 - cfg.alpha) * ce_loss(logits, masks))
        loss.backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name


class TestGraphMemory:
    def test_training_forward_holds_only_what_backward_reads(self):
        # the heap a toy batch's forward and loss leave for backward: 60.2 MB
        # when the graph held every activation, 39.6 MB when nodes hold only
        # what their backward reads (numpy 2.4)
        cfg = TOY_PRESET
        model = build_model(cfg, Rng(24))
        images = Tensor(Rng(25).random((8, 3, 64, 64)).astype(np.float32))
        masks = Rng(26).integers(0, cfg.num_classes, (8, 64, 64)).astype(np.int32)
        tracemalloc.start()
        try:
            logits = model.forward(images)
            loss = (cfg.alpha * dice_loss(softmax_channels(logits), masks)
                    + (1.0 - cfg.alpha) * ce_loss(logits, masks))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 48 * 2 ** 20, f"{held / 2 ** 20:.1f} MB"
        loss.backward()


class TestDeterminism:
    def test_same_seed_bit_identical_build(self):
        m1 = build_model(micro_cfg(), Rng(11))
        m2 = build_model(micro_cfg(), Rng(11))
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_different_seed_differs(self):
        m1 = build_model(micro_cfg(), Rng(11))
        m2 = build_model(micro_cfg(), Rng(12))
        same = all(np.array_equal(p1.data, p2.data)
                   for (_, p1), (_, p2) in zip(m1.named_parameters(), m2.named_parameters()))
        assert not same

    @staticmethod
    def _step(upsampler, dtype):
        """Logits and every parameter gradient of a micro model at batch 2."""
        cfg = micro_cfg(upsampler=upsampler)
        model = build_model(cfg, Rng(17))
        params = list(model.parameters())
        for p in params:
            p.data = p.data.astype(dtype)
        img = Tensor(Rng(18).random((2, 3, 32, 32)), dtype=dtype)
        mask = Rng(19).integers(0, cfg.num_classes, (2, 32, 32)).astype(np.int32)
        logits = model.forward(img)
        total_loss(logits, mask, cfg.alpha).backward()
        return [logits.data] + [p.grad for p in params]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("upsampler", sorted(_UPSAMPLERS))
    def test_scan_thread_count_changes_no_value(self, upsampler, dtype, monkeypatch):
        # the threads that each SS2D path pair ran on, per worker count; the
        # micro model's maps are below the size from which SS2D starts a thread
        monkeypatch.setattr(scan, "_THREAD_MIN_STATE", 0)
        pair_threads = {1: set(), 2: set()}
        for name in ("_forward_pair", "_backward_pair"):
            def recording(k, *args, _run=getattr(scan, name)):
                pair_threads[workers].add((k, threading.get_ident()))
                return _run(k, *args)
            monkeypatch.setattr(scan, name, recording)
        results = {}
        for workers in (1, 2):
            monkeypatch.setattr(scan, "fill_workers", lambda: workers)
            results[workers] = self._step(upsampler, dtype)
        main = threading.get_ident()
        assert pair_threads[1] == {(0, main), (1, main)}  # one worker starts no thread
        assert {k for k, ident in pair_threads[2] if ident != main} == {1}
        for single, paired in zip(results[1], results[2]):
            assert single.dtype == paired.dtype == dtype and np.array_equal(single, paired)


class TestAccounting:
    def test_single_linear_param_count(self):
        from msvseg.blocks import Linear
        assert sum(p.size for p in Linear(Rng(0), 8, 3).parameters()) == 27

    def test_count_params_equals_checkpoint_extent_sum(self, toy_model, tmp_path):
        path = tmp_path / "c.msvc"
        save_checkpoint(path, "model.base_channels=16\n",
                        [(n, p.data) for n, p in toy_model.named_parameters()])
        _, tensors = load_checkpoint(path)
        assert count_params(toy_model) == sum(int(np.prod(a.shape)) for a in tensors.values())

    def test_hand_counted_micro_block_model(self):
        # patch embedding alone: 48*C + C weights+bias, plus 2*C layer norm
        from msvseg.blocks import PatchEmbed
        pe = PatchEmbed(Rng(1), 8)
        assert sum(p.size for p in pe.parameters()) == 48 * 8 + 8 + 2 * 8

    def test_flops_positive_and_monotone_in_resolution(self, toy_model):
        f64 = count_flops(toy_model)
        f128 = count_flops(build_model(replace(TOY_PRESET, input_size=(128, 128)), Rng(0)))
        assert 0 < f64 < f128

    @pytest.mark.parametrize("cfg, flops, params", [
        (TOY_PRESET, 26_984_448, 581_364),
        (TINY224_PRESET, 13_950_182_400, 34_048_713),
    ], ids=["toy", "tiny224"])
    def test_counts_pinned(self, cfg, flops, params):
        model = build_model(cfg, Rng(0))
        assert (count_flops(model), count_params(model)) == (flops, params)

    @pytest.mark.parametrize("kw, flops, params", [
        (dict(upsampler="lkpe", decoder_block="msvss"), 26_984_448, 581_364),
        (dict(upsampler="lkpe", decoder_block="vss"), 24_977_408, 565_684),
        (dict(upsampler="patch_expand", decoder_block="msvss"), 26_855_424, 575_988),
        (dict(upsampler="patch_expand", decoder_block="vss"), 24_848_384, 560_308),
        (dict(upsampler="transposed_conv", decoder_block="msvss"), 26_855_424, 576_212),
        (dict(upsampler="transposed_conv", decoder_block="vss"), 24_848_384, 560_532),
        (dict(upsampler="upsample_block", decoder_block="msvss"), 33_146_880, 629_636),
        (dict(upsampler="upsample_block", decoder_block="vss"), 31_139_840, 613_956),
        (dict(stage_depths=(1, 2, 1, 2), kernel_set=(3, 5, 7), input_size=(64, 96)),
         51_723_264, 885_300),
        (dict(upsampler="upsample_block", stage_depths=(2, 1, 1, 3), kernel_set=(1, 3),
              input_size=(96, 64), state_size=4), 53_302_272, 1_086_692),
    ], ids=["lkpe-msvss", "lkpe-vss", "patch_expand-msvss", "patch_expand-vss",
            "transposed_conv-msvss", "transposed_conv-vss", "upsample_block-msvss",
            "upsample_block-vss", "depths1212-k357-64x96", "upsample_block-depths2113-96x64"])
    def test_variant_counts_pinned(self, kw, flops, params):
        # toy width; every upsampler and decoder block, and non-square maps
        model = build_model(replace(TOY_PRESET, **kw), Rng(0))
        assert (count_flops(model), count_params(model)) == (flops, params)

    # sha256 over every parameter's name and bytes: the initialization bit for
    # bit; a deliberate change of it re-records these
    @pytest.mark.parametrize("cfg, digest", [
        (TOY_PRESET, "5d66491ac37007ed69b994f276281eaea7c6fb070b9a3e65cac5e511caf07baa"),
        (TINY224_PRESET, "12023eab26a05a52e1d5a5c0b196c03d90081aafd25c4c8a3eb9de3a026639df"),
    ], ids=["toy", "tiny224"])
    def test_initial_parameters_pinned(self, cfg, digest):
        h = hashlib.sha256()
        for name, p in build_model(cfg, Rng(0)).named_parameters():
            h.update(name.encode())
            h.update(p.data.tobytes())
        assert h.hexdigest() == digest

    def test_tiny224_reference_scale(self):
        model = build_model(TINY224_PRESET, Rng(0))
        params_m = count_params(model) / 1e6
        flops_g = count_flops(model) / 1e9
        # diagnostic only; encoder internals are conventions, so just assert
        # the counts land in the published ballpark rather than gating exactly
        assert 20 < params_m < 50
        assert 8 < flops_g < 25


class TestFeatureExport:
    def test_three_files_written(self, toy_model, tmp_path):
        img = Tensor(Rng(4).random((3, 64, 64)).astype(np.float32))
        paths = export_stage_features(toy_model, img, tmp_path)
        assert len(paths) == 3
        for i, p in enumerate(paths, start=1):
            assert p.endswith(f"decoder_layer_{i}.pgm")
            head = open(p, "rb").read(2)
            assert head == b"P5"

    def test_constant_feature_uniform_gray(self):
        gray = channel_mean_heatmap(np.full((4, 4, 5), 2.5))
        assert np.all(gray == 128)

    def test_channel_mean_matches_direct_average(self):
        feat = Rng(5).normal((5, 5, 6))
        gray = channel_mean_heatmap(feat)
        mean = feat.mean(axis=-1)
        expect = np.round((mean - mean.min()) / (mean.max() - mean.min()) * 255).astype(np.uint8)
        assert np.array_equal(gray, expect)

    def test_pgm_roundtrip_header(self, tmp_path):
        gray = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "x.pgm"
        write_pgm(path, gray)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        assert raw[-12:] == gray.tobytes()


class TestAblationConstruction:
    @pytest.mark.parametrize("decoder_block", ["vss", "msvss"])
    @pytest.mark.parametrize("upsampler", ["patch_expand", "lkpe"])
    def test_component_matrix_builds(self, decoder_block, upsampler):
        cfg = micro_cfg(decoder_block=decoder_block, upsampler=upsampler)
        model = build_model(cfg, Rng(13))
        y = model.forward(Tensor(Rng(14).random((3, 32, 32)).astype(np.float32)))
        assert y.data.shape == (3, 32, 32)

    @pytest.mark.parametrize("kernel_set", [(1, 3, 5), (3, 5, 7), (1, 3, 5, 7)])
    def test_kernel_sets_build(self, kernel_set):
        model = build_model(micro_cfg(kernel_set=kernel_set), Rng(15))
        y = model.forward(Tensor(Rng(16).random((3, 32, 32)).astype(np.float32)))
        assert y.data.shape == (3, 32, 32)
