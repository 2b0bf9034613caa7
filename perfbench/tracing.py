"""Spans and counters recorded from outside the program.

The tracer wraps the public entry points of each msvseg module: the block
``forward`` methods, ``SS2D.forward``, ``Tensor.backward``, ``AdamW.step``,
the augmentation, loss, metric, serial and data functions as ``train`` and
the benchmark look them up, and ``record_op`` as ``tensor`` and ``scan`` look
it up, together with the backward closures of the selective-scan nodes.

Spans carry a name, start, end and parent span id.  They stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the part its child spans cover; the per-layer metrics are sums of self
times, so they add up to the traced time with nothing counted twice.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np

# Ops that only move data between layouts (no arithmetic).
LAYOUT_OPS = frozenset({"transpose", "reshape", "take_flat", "put_flat", "stack"})

# span name -> per-layer metric that receives its self time
SPAN_METRICS = {
    "model.forward": "model.forward_s",
    "blocks.residual": "blocks.residual_self_s",
    "blocks.ss2dblock": "blocks.ss2dblock_self_s",
    "scan.ss2d": "scan.ss2d_fwd_s",
    "scan.backward": "scan.scan_bwd_s",
    "blocks.ffn": "blocks.ffn_fwd_s",
    "blocks.dwconv": "blocks.dwconv_fwd_s",
    "blocks.norm": "blocks.norm_fwd_s",
    "blocks.resample": "blocks.resample_fwd_s",
    "blocks.head": "blocks.head_fwd_s",
    "tensor.backward": "tensor.backward_s",
    "losses.loss": "losses.loss_s",
    "optim.step": "optim.step_s",
    "data.augment": "data.augment_s",
    "metrics.dsc": "metrics.dsc_s",
    "metrics.hd95": "metrics.hd95_s",
    "train.evaluate": "train.evaluate_s",
}

# Set-up spans, reported in seconds of the run's one set-up rather than per sample.
SETUP_METRICS = {
    "data.gen": "data.gen_s",
    "serial.save": "serial.save_s",
    "serial.load": "serial.load_s",
}


def _targets():
    """(owner, attribute, span name) for every wrapped entry point."""
    from msvseg import blocks, data, model, optim, scan, serial, tensor, train

    out = [(model.VSSUNet, "forward", "model.forward"),
           (scan.SS2D, "forward", "scan.ss2d"),
           (blocks.SS2DBlock, "forward", "blocks.ss2dblock"),
           (blocks.MSVSSBlock, "forward", "blocks.residual"),
           (blocks.VSSBlock, "forward", "blocks.residual"),
           (blocks.MultiScaleFFN, "forward", "blocks.ffn"),
           (blocks.MLPFFN, "forward", "blocks.ffn"),
           (blocks.DepthwiseConv2d, "forward", "blocks.dwconv"),
           (blocks.ChannelLayerNorm, "forward", "blocks.norm"),
           (blocks.BatchNorm2d, "forward", "blocks.norm"),
           (blocks.FLKPE, "forward", "blocks.head"),
           (tensor.Tensor, "backward", "tensor.backward"),
           (optim.AdamW, "step", "optim.step"),
           (train, "augment", "data.augment"),
           (train, "dice_loss", "losses.loss"),
           (train, "ce_loss", "losses.loss"),
           (train, "softmax_channels", "losses.loss"),
           (train, "dsc_metric", "metrics.dsc"),
           (train, "hd95_metric", "metrics.hd95"),
           (train, "evaluate", "train.evaluate"),
           (data, "gen_synthetic_dataset", "data.gen"),
           (serial, "save_checkpoint", "serial.save"),
           (serial, "load_checkpoint", "serial.load")]
    for cls in (blocks.PatchEmbed, blocks.PatchMerge, blocks.LKPE, blocks.PatchExpand,
                blocks.TransposedConvUp, blocks.UpsampleConv):
        out.append((cls, "forward", "blocks.resample"))
    return out


class Tracer:
    """In-memory spans plus graph counters, switched on by ``install``."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self._patches: list[tuple] = []
        self.nodes = 0            # record_op calls (ops executed)
        self.layout_nodes = 0     # of which pure layout ops
        self.graph_bytes = 0      # output bytes of nodes kept for backward
        self.scan_state_bytes = 0  # array bytes held by kept scans' backward closures

    def counters(self) -> tuple[int, int, int, int]:
        return self.nodes, self.layout_nodes, self.graph_bytes, self.scan_state_bytes

    def wrap(self, fn, name: str):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                open_.pop()
        return traced

    def _counting_record_op(self, record_op):
        wrap = self.wrap

        @functools.wraps(record_op)
        def counted(out_data, parents, backward_fn, name):
            is_scan = name == "selective_scan"
            if is_scan:
                # the arrays the backward closure keeps besides its input tensors
                held = sum(cell.cell_contents.nbytes for cell in backward_fn.__closure__ or ()
                           if isinstance(cell.cell_contents, np.ndarray))
                backward_fn = wrap(backward_fn, "scan.backward")
            out = record_op(out_data, parents, backward_fn, name)
            self.nodes += 1
            if name in LAYOUT_OPS:
                self.layout_nodes += 1
            if out.requires_grad:
                self.graph_bytes += out.data.nbytes
                if is_scan:
                    self.scan_state_bytes += held
            return out
        return counted

    def install(self):
        """Wrap every target; ``uninstall`` restores the originals."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from msvseg import scan, tensor

        for owner, attr, name in _targets():
            own = vars(owner).get(attr)  # None where a class inherits the method
            self._patches.append((owner, attr, own))
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))
        for module in (tensor, scan):
            original = module.record_op
            self._patches.append((module, "record_op", original))
            module.record_op = self._counting_record_op(original)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_totals(self, windows) -> tuple[dict, float, dict, float]:
        """Sum self times per metric over the spans that lie inside one of
        ``windows``, a list of (start, end) intervals.  Returns per-metric self time,
        the time covered by top-level spans, per-metric call counts and the
        inclusive time of ``model.forward`` spans."""
        selfs = self.self_times()
        totals = {m: 0.0 for m in SPAN_METRICS.values()}
        calls = {m: 0 for m in SPAN_METRICS.values()}
        covered = forward_total = 0.0
        for span, own in zip(self.spans, selfs):
            if not _inside(span, windows):
                continue
            name, start, end, parent = span
            metric = SPAN_METRICS.get(name)
            if metric is not None:
                totals[metric] += own
                calls[metric] += 1
            if parent < 0 or not _inside(self.spans[parent], windows):
                covered += end - start
            if name == "model.forward":
                forward_total += end - start
        return totals, covered, calls, forward_total

    def setup_totals(self) -> dict[str, float]:
        """Summed duration of the set-up spans, per set-up metric."""
        out = {m: 0.0 for m in SETUP_METRICS.values()}
        for name, start, end, _ in self.spans:
            if name in SETUP_METRICS:
                out[SETUP_METRICS[name]] += end - start
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": self.spans}))


def _inside(span, windows) -> bool:
    _, start, end, _ = span
    return any(lo <= start and end <= hi for lo, hi in windows)
