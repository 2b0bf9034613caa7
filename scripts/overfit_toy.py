"""Overfit the toy configuration on a small synthetic set and report metrics.

Example:
    python scripts/overfit_toy.py --steps 500 --seed 0 --out-dir out/overfit
"""

import argparse
import time
from pathlib import Path

from msvseg.config import config_to_text
from msvseg.data import gen_synthetic_dataset, save_dataset
from msvseg.model import ModelConfig, build_model
from msvseg.serial import save_checkpoint
from msvseg.tensor import Rng
from msvseg.train import TrainConfig, evaluate, train_loop


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--classes", type=int, default=4)
    ap.add_argument("--steps", type=int, default=500)
    ap.add_argument("--lr", type=float, default=3e-3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--stop-dsc", type=float, default=0.96)
    ap.add_argument("--out-dir", default="out/overfit")
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    samples = gen_synthetic_dataset(args.n, args.classes, args.size, Rng(123))
    save_dataset(samples, out_dir / "data", args.classes)

    model_cfg = ModelConfig(num_classes=args.classes, input_size=(args.size, args.size))
    model = build_model(model_cfg, Rng(42))
    train_cfg = TrainConfig(lr=args.lr, weight_decay=1e-4, batch_size=args.n,
                            max_epochs=100 * args.steps, max_steps=args.steps,
                            eval_every=25, stop_dsc=args.stop_dsc, seed=args.seed)

    t0 = time.time()
    result = train_loop(model, samples, train_cfg, progress=lambda row: print(
        f"step {row['step']:4d}  lr {row['lr']:.3e}  loss {row['loss']:.4f}  "
        f"dsc {row['mean_dsc']:.4f}"))
    elapsed = time.time() - t0

    (out_dir / "train_log.csv").write_text(result.history_csv())
    save_checkpoint(out_dir / "checkpoint.msvc", config_to_text(model_cfg),
                    [(n, result.best_state[n]) for n, _ in model.named_parameters()])

    report = evaluate(model, samples, alpha=model_cfg.alpha)
    print(f"\nfinished in {elapsed:.0f}s ({result.steps_run} steps)")
    print(f"best mean DSC {result.best_dsc:.4f} at step {result.best_step}")
    print("final per-class DSC:", " ".join(f"{v:.3f}" for v in report.per_class_dsc))
    hd = "n/a" if report.mean_hd95 is None else f"{report.mean_hd95:.2f}px"
    print(f"final mean HD95: {hd}")
    print(f"artifacts under {out_dir}/")


if __name__ == "__main__":
    main()
