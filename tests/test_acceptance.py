"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (each test also prints an explicit PASS line on success).
"""

import math
import sys
import time

import numpy as np
import pytest

from conftest import dsc_set_oracle, hd95_bruteforce
from msvseg import scan as S
from msvseg.cli import main as cli_main
from msvseg.data import gen_synthetic_dataset
from msvseg.gradcheck import run_gradient_suite
from msvseg.losses import ce_loss, dice_loss, total_loss
from msvseg.metrics import dsc_metric, hd95_metric
from msvseg.model import ModelConfig, build_model, count_params
from msvseg.serial import load_checkpoint, save_checkpoint
from msvseg.tensor import Rng, Tensor, softmax_channels
from msvseg.train import TrainConfig, train_loop
from msvseg.config import config_to_text


def _ok(name):
    print(f"PASS: {name}", file=sys.stderr)


class TestGradientSuite:
    def test_every_op_and_block_passes_fd_checks(self):
        t0 = time.time()
        results = run_gradient_suite(seed=0, op_seeds=20, block_seeds=3,
                                     include_model=True, model_coords=5)
        elapsed = time.time() - t0
        failures = [(r.name, r.max_err, r.tol) for r in results if not r.passed]
        assert not failures, f"gradient failures: {failures}"
        names = {r.name for r in results}
        for required in ("block.ss2d_block", "block.ms_ffn", "block.msvss", "block.vss",
                         "block.lkpe", "block.flkpe", "model.micro_full"):
            assert required in names
        ops = [r for r in results if r.name.startswith("op.")]
        blocks = [r for r in results if r.name.startswith("block.")]
        assert all(r.seeds >= 20 for r in ops)
        assert all(r.seeds >= 3 for r in blocks)
        assert all(r.tol <= 1e-4 for r in ops + blocks)
        model_res = next(r for r in results if r.name == "model.micro_full")
        assert model_res.tol <= 1e-3
        assert elapsed <= 300, f"gradient suite took {elapsed:.0f}s (budget 300s)"
        _ok(f"gradient suite ({len(results)} checks, {elapsed:.0f}s)")


class TestScanOracle:
    def test_chunked_equals_sequential_200_cases(self):
        worst = 0.0
        for case in range(200):
            rng = Rng(9000 + case)
            length = int(rng.integers(1, 513))
            n = int(rng.integers(1, 17))
            c = int(rng.integers(1, 9))
            x = rng.normal((1, length, c))
            delta = np.log1p(np.exp(rng.normal((1, length, c)))) + 1e-4
            a = -np.exp(rng.normal((1, c, n)) * 0.4)
            b = rng.normal((1, length, n))
            c_out = rng.normal((1, length, n))
            skip = rng.normal((1, c))
            y_ref, _, _ = S._scan_forward_core(x, delta, a, b, c_out, skip, None)
            for chunk in (1, 2, 7, 64, length):
                y, _, _ = S._scan_forward_core(x, delta, a, b, c_out, skip, chunk)
                worst = max(worst, float(np.max(np.abs(y - y_ref))))
        assert worst <= 1e-12, f"worst chunked deviation {worst:.3e}"
        _ok(f"scan oracle (200 cases, worst deviation {worst:.2e})")

    def test_cross_merge_of_cross_scan_is_four_x_exact(self):
        for seed in range(20):
            rng = Rng(500 + seed)
            c = int(rng.integers(1, 6))
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 9))
            fmap = Tensor(rng.normal((h, w, c)), dtype=np.float64)
            merged = S.cross_merge(S.cross_scan(fmap), h, w)
            assert np.array_equal(merged.data, 4.0 * fmap.data)
        _ok("cross_merge o cross_scan = 4 x identity (exact)")


def _structured_mask(seed, size, k=4):
    return gen_synthetic_dataset(1, k, size, Rng(seed))[0].mask


class TestMetricOracles:
    def test_hd95_matches_allpairs_bruteforce_50_masks(self):
        checked = 0
        for case in range(50):
            rng = Rng(3000 + case)
            if case % 2 == 0:
                size = int(rng.integers(24, 65))
                pred = _structured_mask(7000 + case, size)
                true = _structured_mask(8000 + case, size)
            else:
                size = int(rng.integers(8, 25))
                pred = rng.integers(0, 3, (size, size)).astype(np.int32)
                true = rng.integers(0, 3, (size, size)).astype(np.int32)
            got = hd95_metric(pred, true, 4 if case % 2 == 0 else 3)
            expected = hd95_bruteforce(pred, true, 4 if case % 2 == 0 else 3)
            for g, e in zip(got, expected):
                if e is None:
                    assert g is None
                else:
                    assert g == pytest.approx(e, abs=1e-12)
                    checked += 1
        assert checked > 100
        _ok(f"hd95 vs all-pairs brute force (50 masks, {checked} class values)")

    def test_dsc_matches_set_counting_100_pairs(self):
        for case in range(100):
            rng = Rng(4000 + case)
            pred = rng.integers(0, 4, (32, 32)).astype(np.int32)
            true = rng.integers(0, 4, (32, 32)).astype(np.int32)
            assert np.array_equal(dsc_metric(pred, true, 4), dsc_set_oracle(pred, true, 4))
        _ok("dsc vs set counting (100 pairs, exact)")

    def test_identical_masks(self):
        mask = _structured_mask(42, 48)
        assert np.array_equal(dsc_metric(mask, mask, 4), np.ones(4))
        for v in hd95_metric(mask, mask, 4):
            assert v is None or v == 0.0
        _ok("identical masks: DSC 1.0, HD95 0.0")


class TestLossContract:
    def test_convex_combination_to_1e12(self):
        for seed in range(20):
            rng = Rng(600 + seed)
            k = int(rng.integers(2, 6))
            logits = Tensor(rng.normal((k, 6, 6)) * 3, dtype=np.float64)
            mask = rng.integers(0, k, (6, 6)).astype(np.int32)
            d = dice_loss(softmax_channels(logits), mask).item()
            c = ce_loss(logits, mask).item()
            t = total_loss(logits, mask, 0.6).item()
            assert abs(t - (0.6 * d + 0.4 * c)) <= 1e-12
        _ok("total loss = 0.6*dice + 0.4*ce (to 1e-12)")

    def test_uniform_logits_ce_is_ln_k(self):
        for k in (2, 3, 4, 9):
            mask = Rng(k).integers(0, k, (8, 8)).astype(np.int32)
            loss = ce_loss(Tensor(np.zeros((k, 8, 8)), dtype=np.float64), mask)
            assert abs(loss.item() - math.log(k)) <= 1e-9
        _ok("uniform-logit CE = ln K (to 1e-9)")


class TestOverfit:
    def test_toy_config_reaches_dsc_095_within_500_steps(self):
        samples = gen_synthetic_dataset(8, 4, 64, Rng(123))
        model = build_model(ModelConfig(), Rng(42))
        cfg = TrainConfig(lr=3e-3, weight_decay=1e-4, batch_size=8, max_epochs=1000,
                          max_steps=500, eval_every=25, stop_dsc=0.96, seed=0)
        t0 = time.time()
        result = train_loop(model, samples, cfg)
        elapsed = time.time() - t0
        assert result.steps_run <= 500
        assert elapsed <= 900, f"overfit took {elapsed:.0f}s (budget 900s)"
        assert result.best_dsc >= 0.95, f"best train DSC {result.best_dsc:.4f} < 0.95"
        _ok(f"overfit: DSC {result.best_dsc:.3f} at step {result.best_step} in {elapsed:.0f}s")


class TestAblationPlumbing:
    def _one_train_eval_step(self, cfg: ModelConfig):
        samples = gen_synthetic_dataset(2, cfg.num_classes, 32, Rng(55))
        model = build_model(cfg, Rng(10))
        tc = TrainConfig(max_epochs=1, max_steps=1, batch_size=2, eval_every=1, seed=1)
        result = train_loop(model, samples, tc)
        assert result.steps_run == 1
        assert math.isfinite(result.history[0]["loss"])

    def test_component_matrix(self):
        for decoder_block in ("vss", "msvss"):
            for upsampler in ("patch_expand", "lkpe"):
                cfg = ModelConfig(base_channels=8, stage_depths=(1, 1, 1, 1),
                                  num_classes=3, input_size=(32, 32), state_size=4,
                                  decoder_block=decoder_block, upsampler=upsampler)
                self._one_train_eval_step(cfg)
        _ok("component matrix: {vss,msvss} x {patch_expand,lkpe} train+eval")

    def test_all_upsamplers(self):
        for upsampler in ("patch_expand", "lkpe", "transposed_conv", "upsample_block"):
            cfg = ModelConfig(base_channels=8, stage_depths=(1, 1, 1, 1), num_classes=3,
                              input_size=(32, 32), state_size=4, upsampler=upsampler)
            self._one_train_eval_step(cfg)
        _ok("all four upsamplers train+eval")

    def test_all_kernel_sets(self):
        for kernel_set in ((1, 3, 5), (3, 5, 7), (1, 3, 5, 7)):
            cfg = ModelConfig(base_channels=8, stage_depths=(1, 1, 1, 1), num_classes=3,
                              input_size=(32, 32), state_size=4, kernel_set=kernel_set)
            self._one_train_eval_step(cfg)
        _ok("kernel sets [1,3,5] / [3,5,7] / [1,3,5,7] train+eval")


class TestShapeLadder:
    def test_c96_at_224(self):
        cfg = ModelConfig(base_channels=96, stage_depths=(1, 1, 1, 1), num_classes=9,
                          input_size=(224, 224), state_size=16)
        model = build_model(cfg, Rng(0))
        img = Tensor(Rng(1).random((3, 224, 224)).astype(np.float32))
        from msvseg.tensor import no_grad
        with no_grad():
            logits, bundle = model.forward_features(img)
        assert [f.data.shape for f in bundle.encoder] == [
            (56, 56, 96), (28, 28, 192), (14, 14, 384), (7, 7, 768)]
        assert logits.data.shape == (9, 224, 224)
        _ok("shape ladder 96/192/384/768 and 9x224x224 head")


class TestAccounting:
    def test_count_params_equals_checkpoint_sum(self, tmp_path):
        model = build_model(ModelConfig(), Rng(21))
        path = tmp_path / "acc.msvc"
        save_checkpoint(path, config_to_text(model.cfg),
                        [(n, p.data) for n, p in model.named_parameters()])
        _, tensors = load_checkpoint(path)
        extent_sum = sum(int(np.prod(a.shape)) for a in tensors.values())
        assert count_params(model) == extent_sum
        _ok(f"count_params == checkpoint extent sum ({extent_sum})")

    def test_count_cli_prints_reference_diagnostic(self, capsys):
        assert cli_main(["count", "--preset", "tiny224"]) == 0
        out = capsys.readouterr().out
        assert "35.93" in out and "15.53" in out
        assert "computed" in out
        assert "not a pass/fail gate" in out
        _ok("count --preset tiny224 prints computed values beside the reference")


class TestDeterminism:
    def test_two_cli_trains_byte_identical(self, tmp_path):
        data_dir = tmp_path / "data"
        assert cli_main(["gen-data", "--out-dir", str(data_dir), "--n", "3",
                         "--classes", "4", "--size", "64", "--seed", "2"]) == 0
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            code = cli_main(["train", "--data", str(data_dir), "--out-dir", str(out),
                             "--quiet", "--seed", "17", "--threads", "1",
                             "--set", "train.max_steps=3", "--set", "train.eval_every=1",
                             "--set", "train.batch_size=3"])
            assert code == 0
        ck1 = (outs[0] / "checkpoint.msvc").read_bytes()
        ck2 = (outs[1] / "checkpoint.msvc").read_bytes()
        log1 = (outs[0] / "train_log.csv").read_bytes()
        log2 = (outs[1] / "train_log.csv").read_bytes()
        assert ck1 == ck2
        assert log1 == log2
        _ok("two seeded train runs: byte-identical checkpoint and log")
