"""Command-line entry point.

Subcommands: gen-data, train, eval, gradcheck, export-features, count.
Each takes only the options it reads:
  --seed     gen-data, train, gradcheck
  --out-dir  gen-data, train, eval, export-features
  --threads  train, eval
Exit codes: 0 ok, 1 invalid arguments, 2 runtime failure, 3 gradient-check
failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import (apply_overrides, build_configs, config_to_text, parse_kv_text,
                     preset_model_config)
from .data import gen_synthetic_dataset, load_dataset, save_dataset
from .gradcheck import run_gradient_suite
from .model import (ModelConfig, VSSUNet, build_model, count_flops, count_params,
                    export_stage_features)
from .serial import load_checkpoint, save_checkpoint
from .tensor import NonFiniteError, Rng, deferred_fills
from .train import TrainConfig, evaluate, train_loop

# published full-model reference for the tiny encoder at 224x224 (diagnostic only)
REFERENCE_TINY224 = {"params_m": 35.93, "flops_g": 15.53}


class _InvalidArgs(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad args; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _InvalidArgs(message)


def _add_threads(p):
    p.add_argument("--threads", type=int, default=1,
                   help="step workers: threads that run training and evaluation steps (only 1 "
                        "is implemented; higher values warn). Parameter initialisation and "
                        "the scans use the available CPUs whatever this says")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="msvseg", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset directory")
    p.add_argument("--seed", type=int, default=0, help="seed of the drawn images and masks")
    p.add_argument("--out-dir", default="out", help="directory for the dataset")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--size", type=int, default=64)

    p = sub.add_parser("train", help="train a model, write checkpoint + CSV log")
    p.add_argument("--seed", type=int, default=None, help="override the configured train.seed")
    p.add_argument("--out-dir", default="out", help="directory for the checkpoint and log")
    _add_threads(p)
    p.add_argument("--config", default=None, help="key=value configuration file")
    p.add_argument("--preset", default="toy", help="base model preset (toy|tiny224)")
    p.add_argument("--data", required=True, help="dataset directory (from gen-data)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="config override, wins over the file")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--out-dir", default="out", help="directory for metrics.txt")
    _add_threads(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("gradcheck", help="run the finite-difference suite")
    p.add_argument("--seed", type=int, default=0, help="seed of the checked inputs")
    p.add_argument("--op-seeds", type=int, default=20)
    p.add_argument("--block-seeds", type=int, default=3)
    p.add_argument("--skip-model", action="store_true")

    p = sub.add_parser("export-features", help="write decoder heatmaps for one sample")
    p.add_argument("--out-dir", default="out", help="directory for the heatmaps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--index", type=int, default=0)

    p = sub.add_parser("count", help="print parameter and FLOP counts")
    p.add_argument("--preset", default="toy", help="toy|tiny224")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    return parser


def _load_configs(args) -> tuple[ModelConfig, TrainConfig]:
    base_model = preset_model_config(args.preset)
    kv = parse_kv_text(Path(args.config).read_text()) if args.config else {}
    kv = apply_overrides(kv, args.set)
    return build_configs(kv, model_base=base_model)


def _undrawn_model(model_cfg: ModelConfig) -> VSSUNet:
    """The module tree with its parameters allocated and their draws
    discarded, for a caller that replaces or only counts them."""
    with deferred_fills():
        return VSSUNet(model_cfg, Rng(0))


def _restore_model(checkpoint_path):
    config_text, tensors = load_checkpoint(checkpoint_path)
    model_cfg, _ = build_configs(parse_kv_text(config_text))
    model = _undrawn_model(model_cfg)  # every parameter is replaced below
    names = [n for n, _ in model.named_parameters()]
    missing = [n for n in names if n not in tensors]
    extra = [n for n in tensors if n not in names]
    if missing or extra:
        raise ValueError(f"checkpoint does not match the model: missing={missing[:3]} extra={extra[:3]}")
    for name, p in model.named_parameters():
        if tensors[name].shape != p.data.shape:
            raise ValueError(f"checkpoint tensor {name} has shape {tensors[name].shape}, "
                             f"expected {p.data.shape}")
        with np.errstate(over="ignore"):  # a float64 value beyond float32 range becomes inf
            arr = tensors[name].astype(p.data.dtype, copy=False)
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint tensor {name} has non-finite values as {arr.dtype}")
        p.data = arr  # adopt the loaded array: the parameters are held once
    return model, model_cfg


@contextmanager
def _restored_forward(checkpoint_path):
    """Report a forward pass that overflows on restored parameters as an
    invalid checkpoint (exit 1), not a runtime failure."""
    try:
        yield
    except NonFiniteError as exc:
        raise ValueError(f"invalid checkpoint {checkpoint_path}: its parameters overflow "
                         f"in the forward pass: {exc}") from exc


def _require_positive(flag: str, value: int):
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")


def _cmd_gen_data(args) -> int:
    _require_positive("--n", args.n)
    _require_positive("--size", args.size)
    samples = gen_synthetic_dataset(args.n, args.classes, args.size, Rng(args.seed))
    save_dataset(samples, args.out_dir, args.classes)
    print(f"wrote {len(samples)} samples ({args.classes} classes, {args.size}x{args.size}) to {args.out_dir}")
    return 0


def _check_threads(args):
    _require_positive("--threads", args.threads)
    if args.threads > 1:
        print("note: step workers are not implemented; the flag is ignored (each scan "
              "runs on up to two threads whatever it says)", file=sys.stderr)


def _cmd_train(args) -> int:
    _check_threads(args)
    model_cfg, train_cfg = _load_configs(args)
    if args.seed is not None:
        train_cfg.seed = args.seed
    samples, num_classes = load_dataset(args.data)
    if num_classes != model_cfg.num_classes:
        raise ValueError(f"dataset has {num_classes} classes but the model expects "
                         f"{model_cfg.num_classes}; set model.num_classes")
    model = build_model(model_cfg, Rng(train_cfg.seed))
    progress = None if args.quiet else (lambda row: print(
        f"step {row['step']:5d} lr {row['lr']:.3e} loss {row['loss']:.4f} "
        f"dsc {row['mean_dsc']:.4f}", flush=True))
    result = train_loop(model, samples, train_cfg, progress=progress)

    out_dir = Path(args.out_dir)  # made only once there is a checkpoint to write
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / "checkpoint.msvc"
    save_checkpoint(ckpt, config_to_text(model_cfg),
                    [(name, result.best_state[name]) for name, _ in model.named_parameters()])
    (out_dir / "train_log.csv").write_text(result.history_csv())
    print(f"best mean DSC {result.best_dsc:.4f} at step {result.best_step} "
          f"({result.steps_run} steps); checkpoint: {ckpt}")
    return 0


def _cmd_eval(args) -> int:
    _check_threads(args)
    model, model_cfg = _restore_model(args.checkpoint)
    samples, num_classes = load_dataset(args.data)
    if num_classes != model_cfg.num_classes:
        raise ValueError(f"dataset has {num_classes} classes but the checkpointed model "
                         f"expects {model_cfg.num_classes}")
    with _restored_forward(args.checkpoint):
        report = evaluate(model, samples, alpha=model_cfg.alpha)
    text = "\n".join(report.lines()) + "\n"
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.txt").write_text(text)
    print(text, end="")
    return 0


def _cmd_gradcheck(args) -> int:
    _require_positive("--op-seeds", args.op_seeds)
    _require_positive("--block-seeds", args.block_seeds)
    results = run_gradient_suite(seed=args.seed, op_seeds=args.op_seeds,
                                 block_seeds=args.block_seeds, include_model=not args.skip_model)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in sorted(results, key=lambda r: r.name):
        status = "pass" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{status}  {r.name:<{width}}  max rel err {r.max_err:.3e}  (tol {r.tol:g}, seeds {r.seeds})")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 3


def _cmd_export_features(args) -> int:
    model, _ = _restore_model(args.checkpoint)
    samples, _ = load_dataset(args.data)
    if not 0 <= args.index < len(samples):
        raise ValueError(f"--index {args.index} outside the dataset (n={len(samples)})")
    with _restored_forward(args.checkpoint):
        paths = export_stage_features(model, samples[args.index].image, args.out_dir)
    for p in paths:
        print(p)
    return 0


def _cmd_count(args) -> int:
    model_cfg, _ = _load_configs(args)
    model = _undrawn_model(model_cfg)
    params = count_params(model)
    flops = count_flops(model)
    h, w = model_cfg.input_size
    print(f"preset: {args.preset}  input: {h}x{w}  classes: {model_cfg.num_classes}")
    print(f"{'':24s}{'#FLOPs (G)':>12s}{'#Params (M)':>13s}")
    print(f"{'computed':24s}{flops / 1e9:12.2f}{params / 1e6:13.2f}")
    if args.preset == "tiny224":
        print(f"{'published reference':24s}{REFERENCE_TINY224['flops_g']:12.2f}"
              f"{REFERENCE_TINY224['params_m']:13.2f}")
        print("reference shown as a diagnostic only (encoder internals differ), not a pass/fail gate")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "export-features": _cmd_export_features,
    "count": _cmd_count,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:  # refused under the subcommand's usage line, not the root's
            commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            commands.choices[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    except _InvalidArgs as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
