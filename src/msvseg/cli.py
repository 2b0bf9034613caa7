"""Command-line entry point.

Subcommands: gen-data, train, eval, gradcheck, bench-scan, export-features,
count.  Every subcommand honors --seed; artifacts land under --out-dir.
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
from .model import (ModelConfig, build_model, count_flops, count_params,
                    export_stage_features)
from .scan import run_scan_benchmark
from .serial import load_checkpoint, save_checkpoint
from .tensor import NonFiniteError, Rng
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


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="override the configured seed")
    p.add_argument("--out-dir", default="out", help="directory for artifacts")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads (only 1 is implemented; higher values warn)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="msvseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset directory")
    _add_common(p)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--size", type=int, default=64)

    p = sub.add_parser("train", help="train a model, write checkpoint + CSV log")
    _add_common(p)
    p.add_argument("--config", default=None, help="key=value configuration file")
    p.add_argument("--preset", default="toy", help="base model preset (toy|tiny224)")
    p.add_argument("--data", required=True, help="dataset directory (from gen-data)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="config override, wins over the file")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("gradcheck", help="run the finite-difference suite")
    _add_common(p)
    p.add_argument("--op-seeds", type=int, default=20)
    p.add_argument("--block-seeds", type=int, default=3)
    p.add_argument("--skip-model", action="store_true")

    p = sub.add_parser("bench-scan", help="benchmark the streamed scan against the sequential reference")
    _add_common(p)
    # the defaults are the tiny224 preset's stage 1
    p.add_argument("--lengths", default="3136")
    p.add_argument("--state-size", type=int, default=16)
    p.add_argument("--channels", type=int, default=192)

    p = sub.add_parser("export-features", help="write decoder heatmaps for one sample")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--index", type=int, default=0)

    p = sub.add_parser("count", help="print parameter and FLOP counts")
    _add_common(p)
    p.add_argument("--preset", default="toy", help="toy|tiny224")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    return parser


def _load_configs(args) -> tuple[ModelConfig, TrainConfig]:
    base_model = preset_model_config(getattr(args, "preset", "toy") or "toy")
    kv = {}
    if getattr(args, "config", None):
        kv = parse_kv_text(Path(args.config).read_text())
    kv = apply_overrides(kv, getattr(args, "set", []))
    model_cfg, train_cfg = build_configs(kv, model_base=base_model)
    if args.seed is not None:
        train_cfg.seed = args.seed
    return model_cfg, train_cfg


def _restore_model(checkpoint_path):
    config_text, tensors = load_checkpoint(checkpoint_path)
    model_cfg, _ = build_configs(parse_kv_text(config_text))
    model = build_model(model_cfg, Rng(0))
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
            p.data[...] = tensors[name]
        if not np.isfinite(p.data).all():
            raise ValueError(f"checkpoint tensor {name} has non-finite values as {p.data.dtype}")
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


def _require_positive(flag: str, *values: int):
    if any(v < 1 for v in values):
        raise ValueError(f"{flag} must be >= 1, got {','.join(map(str, values))}")


def _cmd_gen_data(args) -> int:
    _require_positive("--n", args.n)
    _require_positive("--size", args.size)
    seed = args.seed if args.seed is not None else 0
    samples = gen_synthetic_dataset(args.n, args.classes, args.size, Rng(seed))
    save_dataset(samples, args.out_dir, args.classes)
    print(f"wrote {len(samples)} samples ({args.classes} classes, {args.size}x{args.size}) to {args.out_dir}")
    return 0


def _cmd_train(args) -> int:
    model_cfg, train_cfg = _load_configs(args)
    samples, num_classes = load_dataset(args.data)
    if num_classes != model_cfg.num_classes:
        raise ValueError(f"dataset has {num_classes} classes but the model expects "
                         f"{model_cfg.num_classes}; set model.num_classes")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    model = build_model(model_cfg, Rng(train_cfg.seed))
    progress = None if args.quiet else (lambda row: print(
        f"step {row['step']:5d} lr {row['lr']:.3e} loss {row['loss']:.4f} "
        f"dsc {row['mean_dsc']:.4f}", flush=True))
    result = train_loop(model, samples, train_cfg, progress=progress)

    ckpt = out_dir / "checkpoint.msvc"
    save_checkpoint(ckpt, config_to_text(model_cfg),
                    [(name, result.best_state[name]) for name, _ in model.named_parameters()])
    (out_dir / "train_log.csv").write_text(result.history_csv())
    print(f"best mean DSC {result.best_dsc:.4f} at step {result.best_step} "
          f"({result.steps_run} steps); checkpoint: {ckpt}")
    return 0


def _cmd_eval(args) -> int:
    model, model_cfg = _restore_model(args.checkpoint)
    samples, num_classes = load_dataset(args.data)
    if num_classes != model_cfg.num_classes:
        raise ValueError("dataset class count does not match the checkpointed model")
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
    seed = args.seed if args.seed is not None else 0
    results = run_gradient_suite(seed=seed, op_seeds=args.op_seeds, block_seeds=args.block_seeds,
                                 include_model=not args.skip_model)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in sorted(results, key=lambda r: r.name):
        status = "pass" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{status}  {r.name:<{width}}  max rel err {r.max_err:.3e}  (tol {r.tol:g}, seeds {r.seeds})")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 3


def _cmd_bench_scan(args) -> int:
    try:
        lengths = tuple(int(v) for v in args.lengths.split(","))
    except ValueError:
        raise ValueError(f"--lengths must be comma-separated integers, got {args.lengths!r}") from None
    _require_positive("--lengths", *lengths)
    _require_positive("--state-size", args.state_size)
    _require_positive("--channels", args.channels)
    seed = args.seed if args.seed is not None else 0
    rows = run_scan_benchmark(lengths=lengths, n_state=args.state_size,
                              channels=args.channels, seed=seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "bench_scan.csv"
    lines = ["path_count,L,N,C,variant,wall_ns,checksum"]
    for r in rows:
        lines.append(f"{r['path_count']},{r['L']},{r['N']},{r['C']},{r['variant']},"
                     f"{r['wall_ns']},{r['checksum']}")
    csv_path.write_text("\n".join(lines) + "\n")
    for r in rows:
        print(f"L={r['L']:5d} {r['variant']:>10s}: {r['elements_per_s'] / 1e6:8.2f} M elem/s")
    print(f"wrote {csv_path}")
    return 0


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
    model = build_model(model_cfg, Rng(0))
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
    "bench-scan": _cmd_bench_scan,
    "export-features": _cmd_export_features,
    "count": _cmd_count,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _InvalidArgs as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "threads", 1) != 1:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 1
        print("note: within-op parallelism is not implemented; running single-threaded",
              file=sys.stderr)
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
