"""CLI subcommands, exit codes, artifact determinism."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msvseg.cli import _build_parser, main
from msvseg.config import config_to_text
from msvseg.model import ModelConfig
from msvseg.serial import load_checkpoint, load_tensor, save_checkpoint, save_tensor


def run(args):
    return main(args)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    assert run(["gen-data", "--out-dir", str(path), "--n", "3", "--classes", "4",
                "--size", "64", "--seed", "5"]) == 0
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("run")
    code = run(["train", "--data", str(dataset_dir), "--out-dir", str(out), "--quiet",
                "--set", "train.max_steps=2", "--set", "train.eval_every=1",
                "--set", "train.batch_size=2", "--seed", "3"])
    assert code == 0
    return out


class TestExitCodes:
    def test_unknown_subcommand_is_invalid_args(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_arg(self):
        assert run(["train"]) == 1

    def test_unknown_config_key_rejected(self, dataset_dir, tmp_path, capsys):
        assert run(["train", "--data", str(dataset_dir), "--out-dir", str(tmp_path),
                    "--set", "train.warp_speed=9"]) == 1
        # deleted fields, as an old config or checkpoint still names them
        for item in ("model.skip_fusion=add", "model.dt_rank=2", "model.ffn_expand=4",
                     "model.dwconv_kernel=3"):
            assert run(["train", "--data", str(dataset_dir), "--out-dir", str(tmp_path),
                        "--set", item]) == 1
            key = item.partition("=")[0]
            assert f"unknown configuration key: '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("item", ["train.augment.rotate=true", "train.augment.flip_h=on",
                                      "train.augment.max_rotate_deg=90"])
    def test_per_technique_augment_key_rejected(self, item, dataset_dir, tmp_path, capsys):
        # augmentation is one switch, train.augment.enabled
        assert run(["train", "--data", str(dataset_dir), "--out-dir", str(tmp_path),
                    "--set", item]) == 1
        key = item.partition("=")[0]
        assert f"unknown configuration key: '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "checkpoint.msvc").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_zero_step_run_is_invalid_args(self, value, dataset_dir, tmp_path, capsys):
        assert run(["train", "--data", str(dataset_dir), "--out-dir", str(tmp_path),
                    "--set", f"train.max_steps={value}"]) == 1
        assert "max_steps" in capsys.readouterr().err
        assert not (tmp_path / "checkpoint.msvc").exists()

    @pytest.mark.parametrize("item", ["model.state_size=0", "model.base_channels=0",
                                      "model.input_size=0,0", "model.input_size=64",
                                      "model.input_size=64,64,64"])
    def test_invalid_model_value_names_its_key(self, item, capsys):
        assert run(["count", "--set", item]) == 1
        key = item.partition("=")[0].removeprefix("model.")
        assert f"error: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["bench-scan", "--lengths", "0"], "--lengths"),
        (["bench-scan", "--lengths", "8,-1"], "--lengths"),
        (["bench-scan", "--state-size", "0"], "--state-size"),
        (["bench-scan", "--channels", "0"], "--channels"),
        (["gen-data", "--n", "0"], "--n"),
        (["gen-data", "--n", "-1"], "--n"),
        (["gen-data", "--size", "0"], "--size"),
        (["gradcheck", "--op-seeds", "0"], "--op-seeds"),
        (["gradcheck", "--op-seeds", "-2"], "--op-seeds"),
        (["gradcheck", "--block-seeds", "0"], "--block-seeds"),
    ], ids=["length-0", "length-neg", "state-size-0", "channels-0", "n-0", "n-neg", "size-0",
            "op-seeds-0", "op-seeds-neg", "block-seeds-0"])
    def test_size_below_one_is_invalid_args(self, argv, flag, tmp_path, capsys):
        # small valid sizes for the other arguments; argparse keeps the last value
        small = {"bench-scan": ["--lengths", "8", "--state-size", "2", "--channels", "2"],
                 "gen-data": ["--n", "1", "--size", "32"],
                 "gradcheck": ["--op-seeds", "1", "--block-seeds", "1", "--skip-model"]}[argv[0]]
        out = tmp_path / "out"
        assert run([argv[0], *small, *argv[1:], "--out-dir", str(out)]) == 1
        assert f"error: {flag} must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lengths", ["8,,16", "8,x", "8.5", ""],
                             ids=["empty-entry", "word", "fraction", "empty"])
    def test_malformed_lengths_name_the_flag(self, lengths, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["bench-scan", "--lengths", lengths, "--state-size", "2", "--channels", "2",
                    "--out-dir", str(out)]) == 1
        assert "error: --lengths must be comma-separated integers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("classes", ["13", "14"])
    def test_class_count_without_a_palette_is_invalid_args(self, classes, tmp_path):
        # its own interpreter with a timeout, so an endless palette search fails the test
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "msvseg", "gen-data", "--classes", classes,
                               "--n", "1", "--size", "16", "--out-dir", str(out)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert f"error: no palette of {classes} classes" in proc.stderr
        assert not out.exists()

    def test_bad_override_format(self, dataset_dir, tmp_path):
        assert run(["train", "--data", str(dataset_dir), "--out-dir", str(tmp_path),
                    "--set", "no_equals_sign"]) == 1

    def test_missing_dataset_dir(self, tmp_path):
        assert run(["train", "--data", str(tmp_path / "missing"),
                    "--out-dir", str(tmp_path)]) == 1

    def test_gradcheck_fast_passes(self):
        assert run(["gradcheck", "--op-seeds", "3", "--block-seeds", "1", "--skip-model",
                    "--seed", "7"]) == 0

    def test_gradcheck_failure_exits_three(self, monkeypatch):
        from msvseg import cli as cli_mod
        from msvseg.gradcheck import CheckResult

        def fake_suite(**kwargs):
            return [CheckResult("op.broken", 1.0, 1e-4, 1)]

        monkeypatch.setattr(cli_mod, "run_gradient_suite", fake_suite)
        assert run(["gradcheck", "--op-seeds", "3", "--block-seeds", "1"]) == 3

    def test_divergence_exits_two(self, dataset_dir, tmp_path):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["train", "--data", str(dataset_dir), "--out-dir", str(tmp_path),
                        "--quiet", "--set", "train.lr=1e18", "--set", "train.max_steps=8",
                        "--set", "train.eval_every=8"])
        assert code == 2


    def test_mixed_size_dataset_is_invalid_input(self, tmp_path, capsys):
        from msvseg.data import gen_synthetic_dataset, save_dataset
        from msvseg.tensor import Rng

        big = gen_synthetic_dataset(1, 4, 64, Rng(1))
        small = gen_synthetic_dataset(1, 4, 32, Rng(2))
        small[0].sample_id = "small"
        save_dataset(big + small, tmp_path / "data", 4)
        code = run(["train", "--data", str(tmp_path / "data"), "--out-dir", str(tmp_path / "out"),
                    "--quiet", "--set", "train.max_steps=1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "s0000 is (3, 64, 64)" in err and "small is (3, 32, 32)" in err
        assert not (tmp_path / "out" / "checkpoint.msvc").exists()


class TestConfigFile:
    def test_shipped_overfit_config_parses(self, dataset_dir, tmp_path):
        from pathlib import Path
        shipped = Path(__file__).resolve().parent.parent / "configs" / "toy_overfit.cfg"
        code = run(["train", "--data", str(dataset_dir), "--out-dir", str(tmp_path),
                    "--quiet", "--config", str(shipped),
                    "--set", "train.max_steps=2", "--set", "train.eval_every=2"])
        assert code == 0
        assert (tmp_path / "checkpoint.msvc").exists()

    def test_augment_switch_trains(self, dataset_dir, tmp_path):
        code = run(["train", "--data", str(dataset_dir), "--out-dir", str(tmp_path), "--quiet",
                    "--set", "train.augment.enabled=true", "--set", "train.max_steps=1"])
        assert code == 0
        assert len((tmp_path / "train_log.csv").read_text().splitlines()) == 2

    def test_cli_override_beats_file(self, dataset_dir, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("train.max_steps=50\ntrain.eval_every=1\n")
        code = run(["train", "--data", str(dataset_dir), "--out-dir", str(tmp_path),
                    "--quiet", "--config", str(cfg), "--set", "train.max_steps=1"])
        assert code == 0
        log = (tmp_path / "train_log.csv").read_text().splitlines()
        assert len(log) == 2  # header + single step


class TestArtifacts:
    def test_train_writes_checkpoint_and_log(self, trained_dir):
        assert (trained_dir / "checkpoint.msvc").exists()
        log = (trained_dir / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,step,lr,loss,dice_loss,ce_loss,mean_dsc,mean_hd95"
        assert len(log) == 3  # eval every step, 2 steps

    def test_eval_writes_metrics(self, trained_dir, dataset_dir, tmp_path, capsys):
        assert run(["eval", "--checkpoint", str(trained_dir / "checkpoint.msvc"),
                    "--data", str(dataset_dir), "--out-dir", str(tmp_path)]) == 0
        text = (tmp_path / "metrics.txt").read_text()
        assert text.startswith("mean_dsc=")
        out = capsys.readouterr().out
        assert "mean_dsc=" in out

    def test_eval_byte_stable(self, trained_dir, dataset_dir, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            assert run(["eval", "--checkpoint", str(trained_dir / "checkpoint.msvc"),
                        "--data", str(dataset_dir), "--out-dir", str(d)]) == 0
        assert (a_dir / "metrics.txt").read_bytes() == (b_dir / "metrics.txt").read_bytes()

    def test_eval_truncated_checkpoint_is_invalid_input(self, trained_dir, dataset_dir, tmp_path):
        truncated = tmp_path / "truncated.msvc"
        truncated.write_bytes((trained_dir / "checkpoint.msvc").read_bytes()[:30])
        assert run(["eval", "--checkpoint", str(truncated), "--data", str(dataset_dir),
                    "--out-dir", str(tmp_path)]) == 1

    @staticmethod
    def _checkpoint_with_first_tensor(trained_dir, path, value):
        text, tensors = load_checkpoint(trained_dir / "checkpoint.msvc")
        first = next(iter(tensors))
        tensors[first] = np.full_like(tensors[first], value)
        save_checkpoint(path, text, tensors.items())
        return first

    def test_eval_nonfinite_checkpoint_is_invalid_input(self, trained_dir, dataset_dir,
                                                        tmp_path, capsys):
        ckpt = tmp_path / "nan.msvc"
        name = self._checkpoint_with_first_tensor(trained_dir, ckpt, np.nan)
        assert run(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_dir),
                    "--out-dir", str(tmp_path)]) == 1
        assert name in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("command", ["eval", "export-features"])
    def test_overflowing_checkpoint_is_invalid_input(self, trained_dir, dataset_dir,
                                                     tmp_path, capsys, command):
        # finite in float32, but the forward pass overflows
        ckpt = tmp_path / "huge.msvc"
        self._checkpoint_with_first_tensor(trained_dir, ckpt, 3e38)
        assert run([command, "--checkpoint", str(ckpt), "--data", str(dataset_dir),
                    "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "invalid checkpoint" in err and "op '" in err

    @pytest.mark.parametrize("value", [np.inf, 1e38])
    def test_eval_bad_image_names_the_sample(self, trained_dir, dataset_dir, tmp_path,
                                             capsys, value):
        # images are checked on load, so a forward overflow can only come from the checkpoint
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        image = sorted(data.glob("*.image.msvt"))[0]
        save_tensor(image, np.full_like(load_tensor(image), value))
        assert run(["eval", "--checkpoint", str(trained_dir / "checkpoint.msvc"),
                    "--data", str(data), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert image.name.split(".")[0] in err and "checkpoint" not in err

    def test_eval_manifest_id_outside_dataset_is_invalid_input(self, trained_dir, dataset_dir,
                                                               tmp_path, capsys):
        data, outside = tmp_path / "data", tmp_path / "outside"
        shutil.copytree(dataset_dir, data)
        shutil.copytree(dataset_dir, outside)
        manifest = data / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("sample=s0000", "sample=../outside/s0000"))
        assert run(["eval", "--checkpoint", str(trained_dir / "checkpoint.msvc"),
                    "--data", str(data), "--out-dir", str(tmp_path / "out")]) == 1
        assert "../outside/s0000" in capsys.readouterr().err

    def test_eval_repeated_manifest_sample_is_invalid_input(self, trained_dir, dataset_dir,
                                                            tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = data / "manifest.txt"
        manifest.write_text(manifest.read_text() + "sample=s0000\n")
        assert run(["eval", "--checkpoint", str(trained_dir / "checkpoint.msvc"),
                    "--data", str(data), "--out-dir", str(tmp_path / "out")]) == 1
        assert "sample 's0000' is already listed" in capsys.readouterr().err

    def test_eval_repeated_manifest_num_classes_is_invalid_input(self, trained_dir, dataset_dir,
                                                                 tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = data / "manifest.txt"
        manifest.write_text(manifest.read_text() + "num_classes=7\n")
        assert run(["eval", "--checkpoint", str(trained_dir / "checkpoint.msvc"),
                    "--data", str(data), "--out-dir", str(tmp_path / "out")]) == 1
        assert "num_classes is already given on line 2" in capsys.readouterr().err

    def test_eval_per_path_scan_checkpoint_is_invalid_input(self, trained_dir, dataset_dir,
                                                            tmp_path, capsys):
        # each SS2D quantity split into one tensor per path, as `...ss2d.paths.{i}.{name}`
        text, tensors = load_checkpoint(trained_dir / "checkpoint.msvc")
        per_path = {}
        for name, array in tensors.items():
            owner, _, leaf = name.rpartition(".")
            if owner.endswith(".ss2d"):
                per_path.update((f"{owner}.paths.{i}.{leaf}", part) for i, part in enumerate(array))
            else:
                per_path[name] = array
        assert len(per_path) > len(tensors)
        ckpt = tmp_path / "per_path.msvc"
        save_checkpoint(ckpt, text, per_path.items())
        assert run(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_dir),
                    "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "does not match the model" in err and ".ss2d.paths.0." in err

    @pytest.mark.parametrize("command", ["eval", "export-features"])
    def test_checkpoint_with_removed_model_key_is_invalid_input(self, trained_dir, dataset_dir,
                                                                tmp_path, capsys, command):
        # checkpoints written before the FFN expansion, depthwise kernel and
        # step rank became constants carry their keys
        text, tensors = load_checkpoint(trained_dir / "checkpoint.msvc")
        old = text + "model.ffn_expand=4\nmodel.dwconv_kernel=3\nmodel.dt_rank=none\n"
        ckpt = tmp_path / "old.msvc"
        save_checkpoint(ckpt, old, tensors.items())
        assert run([command, "--checkpoint", str(ckpt), "--data", str(dataset_dir),
                    "--out-dir", str(tmp_path / "out")]) == 1
        assert "unknown configuration key: 'model.ffn_expand'" in capsys.readouterr().err

    def test_model_alpha_weights_train_and_eval_loss(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--data", str(dataset_dir), "--out-dir", str(out), "--quiet",
                    "--set", "train.max_steps=1", "--set", "model.alpha=0.3", "--seed", "3"]) == 0
        header, row = (out / "train_log.csv").read_text().splitlines()
        logged = dict(zip(header.split(","), map(float, row.split(","))))
        assert logged["loss"] == pytest.approx(
            0.3 * logged["dice_loss"] + 0.7 * logged["ce_loss"], rel=1e-5)
        capsys.readouterr()
        assert run(["eval", "--checkpoint", str(out / "checkpoint.msvc"),
                    "--data", str(dataset_dir), "--out-dir", str(tmp_path / "eval")]) == 0
        report = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        loss, dice, ce = (float(report[k]) for k in ("loss", "dice_loss", "ce_loss"))
        assert loss == pytest.approx(0.3 * dice + 0.7 * ce, rel=1e-9)
        assert loss != pytest.approx(0.6 * dice + 0.4 * ce, rel=1e-3)

    def test_export_features(self, trained_dir, dataset_dir, tmp_path):
        out = tmp_path / "feat"
        assert run(["export-features", "--checkpoint", str(trained_dir / "checkpoint.msvc"),
                    "--data", str(dataset_dir), "--out-dir", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["decoder_layer_1.pgm", "decoder_layer_2.pgm", "decoder_layer_3.pgm"]

    def test_export_bad_index(self, trained_dir, dataset_dir, tmp_path):
        assert run(["export-features", "--checkpoint", str(trained_dir / "checkpoint.msvc"),
                    "--data", str(dataset_dir), "--out-dir", str(tmp_path),
                    "--index", "99"]) == 1

    def test_bench_scan_csv(self, tmp_path):
        assert run(["bench-scan", "--out-dir", str(tmp_path), "--lengths", "64,128",
                    "--state-size", "4", "--channels", "2"]) == 0
        lines = (tmp_path / "bench_scan.csv").read_text().splitlines()
        assert lines[0] == "path_count,L,N,C,variant,wall_ns,checksum"
        assert len(lines) == 5

    def test_bench_scan_defaults_to_the_tiny224_stage_one_shape(self):
        args = _build_parser().parse_args(["bench-scan"])
        assert (args.lengths, args.channels, args.state_size) == ("3136", 192, 16)

    def test_count_prints_reference_for_tiny224(self, capsys):
        assert run(["count", "--preset", "tiny224"]) == 0
        out = capsys.readouterr().out
        assert "35.93" in out and "15.53" in out
        assert "not a pass/fail gate" in out

    def test_count_toy_has_no_reference(self, capsys):
        assert run(["count", "--preset", "toy"]) == 0
        out = capsys.readouterr().out
        assert "35.93" not in out


class TestDeterminism:
    def test_two_trains_byte_identical(self, dataset_dir, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            code = run(["train", "--data", str(dataset_dir), "--out-dir", str(d), "--quiet",
                        "--set", "train.max_steps=2", "--set", "train.eval_every=1",
                        "--set", "train.batch_size=2", "--seed", "9", "--threads", "1"])
            assert code == 0
        c1 = (dirs[0] / "checkpoint.msvc").read_bytes()
        c2 = (dirs[1] / "checkpoint.msvc").read_bytes()
        assert c1 == c2
        assert (dirs[0] / "train_log.csv").read_bytes() == (dirs[1] / "train_log.csv").read_bytes()

    def test_checkpoint_config_blob_rebuilds_model(self, trained_dir):
        text, tensors = load_checkpoint(trained_dir / "checkpoint.msvc")
        assert "model.base_channels=16" in text
        assert all(arr.dtype == np.float32 for arr in tensors.values())

    def test_config_text_lists_the_model_keys(self):
        keys = [line.partition("=")[0] for line in config_to_text(ModelConfig()).splitlines()]
        assert keys == ["model.base_channels", "model.stage_depths", "model.num_classes",
                        "model.input_size", "model.kernel_set", "model.decoder_block",
                        "model.upsampler", "model.alpha", "model.state_size"]
