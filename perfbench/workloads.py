"""The three benchmark workloads, driven through msvseg's public Python API.

Every workload is a closed loop with one client in one process.  A training
workload repeats one *episode*: restore the initial parameters, then run
``train.train_loop`` for a fixed number of steps, whose only evaluation is
its final one.  Its timed unit is a step, from one ``AdamW.step`` return to
the next; an episode's first step starts at the ``train_loop`` call.  The
inference workload's timed unit is one ``train.evaluate`` call on one image.
Episodes and images repeat until ``--seconds`` have passed.

Every episode and image is checked against a reference recorded from the
seed commit (``reference.json``).  The inputs are made from
``seed % SLOTS``, so every seed has a recorded reference.
"""

from __future__ import annotations

import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from msvseg import data, serial, train
from msvseg.config import build_configs, config_to_text, parse_kv_text
from msvseg.data import AugmentConfig
from msvseg.model import TINY224_PRESET, ModelConfig, build_model, count_flops
from msvseg.optim import AdamW
from msvseg.tensor import Rng

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
OUT_DIR = HERE / "out"

SLOTS = 16
# Relative tolerance of each checked value, fixed here.  Each is several
# times the largest drift that a pure reordering of float32 sums caused, and
# smaller than what the injected bugs listed in README.md caused.  The
# tolerance is a share of the reference or, where the reference lies closer
# to zero, of the workload's median magnitude of that value over all slots:
# the rounding noise of a projection scales with the projected vector, not
# with the projection, and grad_checksum lands near zero on some slots.
RTOL = {"loss": 1e-4, "grad_checksum": 1e-2, "param_checksum": 2e-2, "image_loss": 1e-5}
# Gain on the inference checkpoint's classifier weights, so that the class
# scores are far from uniform and the per-image loss depends on every layer.
HEAD_GAIN = 25.0


@dataclass(frozen=True)
class TrainSpec:
    name: str
    model_cfg: ModelConfig
    n_samples: int
    batch_size: int
    steps: int        # optimizer steps per episode
    eval_count: int   # images in the episode's final evaluation

    @property
    def samples_per_unit(self) -> int:
        return self.batch_size


@dataclass(frozen=True)
class InferSpec:
    name: str
    model_cfg: ModelConfig
    n_images: int     # distinct images, evaluated in turn

    samples_per_unit = 1


WORKLOADS = {
    "toy_train": TrainSpec("toy_train", ModelConfig(), n_samples=8, batch_size=8,
                           steps=8, eval_count=8),
    "wide224_train": TrainSpec("wide224_train",
                               replace(TINY224_PRESET, base_channels=48, stage_depths=(1, 1, 1, 1)),
                               n_samples=4, batch_size=1, steps=3, eval_count=1),
    "tiny224_infer": InferSpec("tiny224_infer", TINY224_PRESET, n_images=2),
}


def load_reference(name: str, slot: int):
    """The reference values of one slot (a list of them, one per image, for
    inference) and, per value, its median magnitude over every slot."""
    rows = json.loads(REFERENCE_PATH.read_text())[name]
    flat = [r for row in rows for r in (row if isinstance(row, list) else [row])]
    scale = {key: statistics.median(abs(r[key]) for r in flat) for key in flat[0]}
    return rows[slot], scale


def mismatches(values: dict, reference: dict, scale: dict) -> list[str]:
    """Names of values that are non-finite, have no reference, or lie
    further from the reference than their ``RTOL`` share of the larger of
    the reference's magnitude and ``scale``."""
    bad = []
    for key, value in values.items():
        ref = reference.get(key)
        if (ref is None or not math.isfinite(value)
                or abs(value - ref) > RTOL[key] * max(abs(ref), scale.get(key, 0.0))):
            bad.append(key)
    return bad


@dataclass
class Group:
    """One episode or image: its unit windows and the values to check (None
    when it raised)."""
    windows: list[tuple[float, float]]
    values: dict | None
    counters: tuple[int, ...] = (0, 0, 0, 0)   # tracer counters inside the windows


@dataclass
class Outcome:
    unit_s: list[float] = field(default_factory=list)         # untraced units
    traced_unit_s: list[float] = field(default_factory=list)  # traced units
    attempted: int = 0
    failed: int = 0
    warmup_ok: bool = False
    warmup_s: float = 0.0
    setup_s: float = 0.0
    windows: list[tuple[float, float]] = field(default_factory=list)   # traced units
    counters: list[int] = field(default_factory=lambda: [0, 0, 0, 0])  # summed over windows
    gflops_per_sample: float = 0.0
    errors: list[str] = field(default_factory=list)


class _Session:
    """Set-up, warm-up, then timed groups until the deadline.

    With a tracer, groups alternate between traced and untraced, so the
    tracing overhead is measured inside one process."""

    def __init__(self, spec, seed: int, tracer=None):
        self.spec = spec
        self.slot = seed % SLOTS
        self.tracer = tracer

    def run(self, seconds: float, t_start: float) -> Outcome:
        out = Outcome()
        reference, scale = load_reference(self.spec.name, self.slot)
        if self.tracer is not None:
            self.tracer.install()
        try:
            self.prepare()
            out.gflops_per_sample = count_flops(self.model) / 1e9
            t0 = time.perf_counter()
            warm = self.checked_group(out, warmup=True)
            out.warmup_s = time.perf_counter() - t0
            out.warmup_ok = warm.values is not None and not self.bad(out, warm, reference, scale)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        ready = time.perf_counter()
        out.setup_s = ready - t_start

        traced = self.tracer is not None
        while True:
            self.timed_group(out, reference, scale, traced)
            traced = self.tracer is not None and not traced
            timed = bool(out.unit_s) and (self.tracer is None or bool(out.traced_unit_s))
            elapsed = time.perf_counter() - ready
            # when nothing completes, stop after twice the time and report the failures
            if elapsed >= seconds and (timed or elapsed >= 2 * seconds):
                break
        self.cleanup()
        return out

    def checked_group(self, out: Outcome, tracer=None, warmup=False) -> Group:
        if tracer is not None:
            tracer.install()
        try:
            return self.group(tracer, warmup)
        except Exception:
            out.errors.append(traceback.format_exc(limit=4))
            return Group([], None)
        finally:
            if tracer is not None:
                tracer.uninstall()

    def bad(self, out: Outcome, group: Group, reference, scale) -> bool:
        want = self.group_reference(reference)
        wrong = mismatches(group.values, want, scale)
        if wrong:
            out.errors.append(f"output check failed on {wrong}: got {group.values}, want {want}")
        return bool(wrong)

    def timed_group(self, out: Outcome, reference, scale, traced: bool):
        group = self.checked_group(out, self.tracer if traced else None)
        out.attempted += self.units_per_group
        if group.values is None or self.bad(out, group, reference, scale):
            out.failed += self.units_per_group
        if group.values is None:
            return
        seconds = [b - a for a, b in group.windows]
        if traced:
            out.traced_unit_s += seconds
            out.windows += group.windows
            out.counters = [c + d for c, d in zip(out.counters, group.counters)]
        else:
            out.unit_s += seconds

    # -- per workload ----------------------------------------------------------

    units_per_group = 1
    model = None

    def prepare(self):
        raise NotImplementedError

    def group(self, tracer, warmup: bool = False) -> Group:
        """Run one episode or image.  The warm-up may check more values."""
        raise NotImplementedError

    def group_reference(self, reference) -> dict:
        """The reference values of the group that ran last."""
        raise NotImplementedError

    def cleanup(self):
        pass


class _StepClock:
    """Timestamps every ``AdamW.step`` return, the only hook of an untraced
    timed step; with a tracer it also snapshots the tracer's counters.  On
    request it copies the first step's gradient (warm-up only, since it adds
    work to the step)."""

    def __init__(self, tracer=None, capture_grad=False):
        self.stamps: list[float] = []
        self.counters: list[tuple] = []
        self.tracer = tracer
        self.capture_grad = capture_grad
        self.first_grad = None

    def __enter__(self):
        self._replaced = inner = AdamW.step
        stamps, counters, tracer = self.stamps, self.counters, self.tracer

        def step(opt, lr=None):
            if self.capture_grad and not stamps:
                grads = np.concatenate([p.grad.ravel() for p in opt.params])
                self.first_grad = grads.astype(np.float64)
            inner(opt, lr)
            stamps.append(time.perf_counter())
            if tracer is not None:
                counters.append(tracer.counters())
        AdamW.step = step
        return self

    def __exit__(self, *exc):
        AdamW.step = self._replaced


class TrainSession(_Session):
    """Repeats one training episode on the seeded dataset."""

    @property
    def units_per_group(self) -> int:
        return self.spec.steps

    def prepare(self):
        spec, cfg = self.spec, self.spec.model_cfg
        self.model = build_model(cfg, Rng(self.slot))
        self.samples = data.gen_synthetic_dataset(spec.n_samples, cfg.num_classes,
                                                  cfg.input_size[0], Rng(self.slot))
        self.params = [p for _, p in self.model.named_parameters()]
        self.initial = [p.data.copy() for p in self.params]
        # grad_checksum projects the first step's gradient on this direction
        self.direction = np.random.default_rng(self.slot).standard_normal(
            sum(a.size for a in self.initial))
        # the first step's gradient, copied in the warm-up episode; every
        # episode is the same computation, so it holds for all of them
        self.first_grad = None
        self.train_cfg = train.TrainConfig(batch_size=spec.batch_size, max_steps=spec.steps,
                                           eval_every=spec.steps + 1, seed=self.slot,
                                           augment=AugmentConfig.all_on())

    def group(self, tracer, warmup: bool = False) -> Group:
        for p, a in zip(self.params, self.initial):
            p.data[...] = a
        before = tracer.counters() if tracer is not None else None
        with _StepClock(tracer, capture_grad=warmup) as clock:
            t0 = time.perf_counter()
            result = train.train_loop(self.model, self.samples, self.train_cfg,
                                      eval_samples=self.samples[:self.spec.eval_count])
        stamps = [t0] + clock.stamps
        if warmup:
            self.first_grad = clock.first_grad
        # param_checksum: the episode's parameter update projected on the
        # first step's gradient, the first-order change of the first batch's
        # loss.  Adam steps every element by about lr whatever its gradient,
        # so elements with near-zero gradients flip sign under float32
        # reordering; this weighting keeps them from dominating the checksum.
        moved = np.concatenate([(p.data - a).ravel() for p, a in zip(self.params, self.initial)])
        values = {"loss": float(result.history[-1]["loss"]),
                  "param_checksum": float(np.dot(moved.astype(np.float64), self.first_grad))}
        if warmup:
            values["grad_checksum"] = float(np.dot(self.first_grad, self.direction))
        counters = (0, 0, 0, 0)
        if tracer is not None:  # counts after the last step belong to the final evaluation
            counters = tuple(a - b for a, b in zip(clock.counters[-1], before))
        return Group(list(zip(stamps[:-1], stamps[1:])), values, counters)

    def group_reference(self, reference) -> dict:
        return reference


class InferSession(_Session):
    """Writes and reloads a checkpoint as ``msvseg eval`` does, then
    evaluates the seeded images one at a time, in turn."""

    def prepare(self):
        cfg = self.spec.model_cfg
        self.model = None
        built = build_model(cfg, Rng(self.slot))
        built.head.head.weight.data *= HEAD_GAIN
        self.checkpoint = OUT_DIR / f"{self.spec.name}-{self.slot}.msvc"
        self.checkpoint.parent.mkdir(parents=True, exist_ok=True)
        serial.save_checkpoint(self.checkpoint, config_to_text(cfg),
                               [(name, p.data) for name, p in built.named_parameters()])
        del built
        config_text, tensors = serial.load_checkpoint(self.checkpoint)
        cfg, _ = build_configs(parse_kv_text(config_text))
        model = build_model(cfg, Rng(0))
        for name, p in model.named_parameters():
            if tensors[name].shape != p.data.shape:
                raise ValueError(f"checkpoint tensor {name} has shape {tensors[name].shape}")
            p.data[...] = tensors[name]
        self.model, self.alpha = model, cfg.alpha
        self.images = data.gen_synthetic_dataset(self.spec.n_images, cfg.num_classes,
                                                 cfg.input_size[0], Rng(self.slot))
        self.next_image = 0

    def group(self, tracer, warmup: bool = False) -> Group:
        i = self.last_image = self.next_image
        self.next_image = (i + 1) % len(self.images)
        before = tracer.counters() if tracer is not None else None
        t0 = time.perf_counter()
        report = train.evaluate(self.model, [self.images[i]], alpha=self.alpha)
        t1 = time.perf_counter()
        counters = (0, 0, 0, 0)
        if tracer is not None:
            counters = tuple(a - b for a, b in zip(tracer.counters(), before))
        return Group([(t0, t1)], {"image_loss": float(report.loss)}, counters)

    def group_reference(self, reference) -> dict:
        return reference[self.last_image]

    def cleanup(self):
        self.checkpoint.unlink(missing_ok=True)


def make_session(name: str, seed: int, tracer=None) -> _Session:
    spec = WORKLOADS[name]
    cls = TrainSession if isinstance(spec, TrainSpec) else InferSession
    return cls(spec, seed, tracer)
