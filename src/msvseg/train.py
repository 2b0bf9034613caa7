"""Training and evaluation loops at desk scale.

One optimizer step = one shuffled mini-batch, augmented per sample and
stacked into [B, 3, H, W] images, one forward pass over the whole batch, the
combined dice + cross-entropy loss averaged over the batch, one backward, an
AdamW update at the cosine-annealed learning rate.  The loop runs max_steps
(at least 1) steps, capped at max_epochs reshuffled epochs, and evaluates
every eval_every steps and after the last; it keeps the best mean-DSC
parameters and logs a CSV row at every evaluation.  Evaluation runs one
image per forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import AugmentConfig, SegSample, augment
from .losses import ce_loss, dice_loss
from .metrics import MetricsReport, dsc_metric, hd95_metric
from .optim import AdamW, cosine_lr
from .tensor import NonFiniteError, Rng, Tensor, no_grad, softmax_channels

CSV_HEADER = "epoch,step,lr,loss,dice_loss,ce_loss,mean_dsc,mean_hd95"

__all__ = ["TrainConfig", "TrainResult", "train_loop", "evaluate", "CSV_HEADER"]


@dataclass
class TrainConfig:
    lr: float = 5e-4
    weight_decay: float = 1e-4
    batch_size: int = 8
    max_epochs: int = 200
    max_steps: int | None = 200
    seed: int = 0
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    eval_every: int = 25
    stop_dsc: float | None = None

    def validate(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        size = self.augment.target_size
        if size is not None and (len(size) != 2 or min(size) < 1):
            raise ValueError("target_size must be none or two positive integers, "
                             f"got {','.join(map(str, size))}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.eval_every < 1:
            raise ValueError("batch_size, max_epochs and eval_every must be >= 1")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1 or none, got {self.max_steps}")
        if self.stop_dsc is not None and not 0.0 <= self.stop_dsc <= 1.0:
            raise ValueError(f"stop_dsc must be none or a value in [0, 1], got {self.stop_dsc}")
        return self


@dataclass
class TrainResult:
    best_dsc: float
    best_step: int
    steps_run: int
    best_state: dict[str, np.ndarray]
    history: list[dict]

    def history_csv(self) -> str:
        rows = [CSV_HEADER]
        for row in self.history:
            hd = row["mean_hd95"]
            rows.append("{epoch},{step},{lr:.10g},{loss:.10g},{dice_loss:.10g},{ce_loss:.10g},{mean_dsc:.10g},{hd}".format(
                hd=f"{hd:.10g}" if hd is not None else "nan", **row))
        return "\n".join(rows) + "\n"


def evaluate(model, samples: list[SegSample], *, alpha: float) -> MetricsReport:
    """Argmax predictions per sample, then DSC/HD95 averaged over samples and
    then over classes.  HD95 skips (sample, class) pairs where either
    boundary is empty; a class with no valid pair reports None."""
    if not samples:
        raise ValueError("evaluate: empty sample list")
    num_classes = model.cfg.num_classes
    dsc_rows = []
    hd_sums = np.zeros(num_classes)
    hd_counts = np.zeros(num_classes, dtype=int)
    loss_sum = dice_sum = ce_sum = 0.0
    for s in samples:
        with no_grad():
            logits = model.forward(s.image)
            d = dice_loss(softmax_channels(logits), s.mask).item()
            c = ce_loss(logits, s.mask).item()
        dice_sum += d
        ce_sum += c
        loss_sum += alpha * d + (1.0 - alpha) * c
        pred = logits.data.argmax(axis=0)
        dsc_rows.append(dsc_metric(pred, s.mask, num_classes))
        for cls, value in enumerate(hd95_metric(pred, s.mask, num_classes)):
            if value is not None:
                hd_sums[cls] += value
                hd_counts[cls] += 1

    n = len(samples)
    per_class_dsc = np.mean(dsc_rows, axis=0)
    per_class_hd95 = [hd_sums[c] / hd_counts[c] if hd_counts[c] else None
                      for c in range(num_classes)]
    valid_hd = [v for v in per_class_hd95 if v is not None]
    return MetricsReport(
        per_class_dsc=[float(v) for v in per_class_dsc],
        mean_dsc=float(per_class_dsc.mean()),
        per_class_hd95=per_class_hd95,
        mean_hd95=float(np.mean(valid_hd)) if valid_hd else None,
        loss=loss_sum / n, dice_loss=dice_sum / n, ce_loss=ce_sum / n,
    )


def _snapshot(model) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in model.named_parameters()}


def _check_one_shape(samples: list[SegSample]):
    """A mini-batch is one stacked array, so without a resize target every
    training image must have the same shape."""
    first = samples[0]
    for sample in samples[1:]:
        if sample.image.data.shape != first.image.data.shape:
            raise ValueError(
                f"train_loop: training images differ in shape: sample {first.sample_id} is "
                f"{first.image.data.shape} but sample {sample.sample_id} is "
                f"{sample.image.data.shape}; set augment.target_size to resize them")


def train_loop(model, samples: list[SegSample], cfg: TrainConfig,
               eval_samples: list[SegSample] | None = None,
               progress=None) -> TrainResult:
    """Run the optimization; deterministic for a fixed seed.  A non-finite
    loss, or a non-finite value in a step or an evaluation, aborts with a
    diagnostic naming the step.  Returns history plus the best-DSC state."""
    cfg.validate()
    if not samples:
        raise ValueError("train_loop: empty dataset")
    if cfg.augment.target_size is None:
        _check_one_shape(samples)
    eval_samples = eval_samples or samples
    rng = Rng(cfg.seed)
    shuffle_rng = rng.child(1)
    augment_rng = rng.child(2)

    opt = AdamW(model.parameters(), weight_decay=cfg.weight_decay)
    n = len(samples)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.max_epochs * steps_per_epoch
    if cfg.max_steps is not None:
        total_steps = min(total_steps, cfg.max_steps)

    alpha = model.cfg.alpha
    history: list[dict] = []
    # DSC lies in [0, 1], so the first evaluation always takes the snapshot
    best_dsc, best_step, best_state = -1.0, 0, None
    run_loss = run_dice = run_ce = 0.0
    run_count = 0

    model.zero_grad()
    for step in range(total_steps):
        epoch, k = divmod(step, steps_per_epoch)
        if k == 0:
            order = shuffle_rng.permutation(n)
        batch = [int(i) for i in order[k * cfg.batch_size:(k + 1) * cfg.batch_size]]
        picked = [augment(samples[i], augment_rng.child(epoch * n + i), cfg.augment)
                  for i in batch]
        images = Tensor(np.stack([sample.image.data for sample in picked]))
        masks = np.stack([sample.mask for sample in picked])
        try:
            logits = model.forward(images)
            d = dice_loss(softmax_channels(logits), masks)
            c = ce_loss(logits, masks)
        except NonFiniteError as exc:
            ids = ", ".join(sample.sample_id for sample in picked)
            raise RuntimeError(
                f"training diverged at step {step} on the batch of samples {ids}: {exc}") from exc
        loss_tensor = alpha * d + (1.0 - alpha) * c
        loss_value = loss_tensor.item()
        if not math.isfinite(loss_value):
            raise RuntimeError(f"training diverged at step {step}: loss={loss_value}")
        loss_tensor.backward()
        lr = cosine_lr(step, total_steps, cfg.lr)
        opt.step(lr)
        # the applied gradients are dead: dropped here, they are not held
        # through the evaluation below or by the model this returns
        model.zero_grad()

        run_loss += loss_value
        run_dice += d.item()
        run_ce += c.item()
        run_count += 1

        done = step + 1
        if done % cfg.eval_every == 0 or done == total_steps:
            try:
                report = evaluate(model, eval_samples, alpha=alpha)
            except NonFiniteError as exc:
                raise RuntimeError(f"training diverged in the evaluation after step {step}: "
                                   f"{exc}") from exc
            row = {
                "epoch": epoch, "step": done, "lr": lr,
                "loss": run_loss / run_count, "dice_loss": run_dice / run_count,
                "ce_loss": run_ce / run_count, "mean_dsc": report.mean_dsc,
                "mean_hd95": report.mean_hd95,
            }
            history.append(row)
            run_loss = run_dice = run_ce = 0.0
            run_count = 0
            if progress is not None:
                progress(row)
            if report.mean_dsc > best_dsc:
                best_dsc = report.mean_dsc
                best_step = done
                best_state = _snapshot(model)
            if cfg.stop_dsc is not None and report.mean_dsc >= cfg.stop_dsc:
                break

    return TrainResult(best_dsc=best_dsc, best_step=best_step, steps_run=history[-1]["step"],
                       best_state=best_state, history=history)
