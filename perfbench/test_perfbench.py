"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins BLAS threads and puts src/ on the path)

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from msvseg import blocks, optim, scan, tensor, train  # noqa: E402


@pytest.mark.parametrize("key", sorted(workloads.RTOL))
def test_perturbed_reference_is_caught(key):
    rtol = workloads.RTOL[key]
    reference, scale = {key: 1.2345}, {key: 1.0}
    assert workloads.mismatches({key: 1.2345}, reference, scale) == []
    assert workloads.mismatches({key: 1.2345 * (1 + rtol / 2)}, reference, scale) == []
    assert workloads.mismatches({key: 1.2345 * (1 + 2 * rtol)}, reference, scale) == [key]
    assert workloads.mismatches({key: 1.2345 * (1 - 2 * rtol)}, reference, scale) == [key]
    assert workloads.mismatches({key: math.nan}, reference, scale) == [key]
    assert workloads.mismatches({key: 1.2345}, {}, scale) == [key]


def test_near_zero_reference_uses_workload_scale():
    rtol = workloads.RTOL["param_checksum"]
    reference, scale = {"param_checksum": 0.01}, {"param_checksum": 0.6}
    assert workloads.mismatches({"param_checksum": 0.01 + 0.5 * rtol * 0.6}, reference, scale) == []
    assert workloads.mismatches({"param_checksum": 0.01 + 2 * rtol * 0.6}, reference, scale) == [
        "param_checksum"]


def test_reference_scale_is_median_magnitude_over_slots():
    for name in workloads.WORKLOADS:
        row, scale = workloads.load_reference(name, 3)
        assert set(scale) == set(row[0] if isinstance(row, list) else row)
        assert all(v > 0 for v in scale.values())
    _, scale = workloads.load_reference("wide224_train", 0)
    # four exploding first-step gradients do not set the scale
    assert scale["grad_checksum"] < 1.0


def _toy_run(monkeypatch, perturb: float):
    recorded, scale = workloads.load_reference("toy_train", 0)
    reference = dict(recorded, loss=recorded["loss"] * (1 + perturb))
    monkeypatch.setattr(workloads, "load_reference", lambda name, slot: (reference, scale))
    return workloads.make_session("toy_train", 0).run(0.0, run.T_START)


def test_toy_episode_matches_reference(monkeypatch):
    out = _toy_run(monkeypatch, 0.0)
    assert out.warmup_ok
    assert out.attempted == workloads.WORKLOADS["toy_train"].steps
    assert out.failed == 0
    assert len(out.unit_s) == out.attempted


def test_perturbed_reference_fails_every_step(monkeypatch):
    out = _toy_run(monkeypatch, 10 * workloads.RTOL["loss"])
    assert not out.warmup_ok
    assert out.attempted > 0 and out.failed == out.attempted
    assert any("output check failed" in e for e in out.errors)


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    tr.spans = [["model.forward", 0.0, 10.0, -1],
                ["blocks.ss2dblock", 1.0, 5.0, 0],
                ["scan.ss2d", 2.0, 4.0, 1],
                ["optim.step", 11.0, 12.0, -1],
                ["optim.step", 20.0, 21.0, -1]]
    assert tr.self_times() == [6.0, 2.0, 2.0, 1.0, 1.0]
    totals, covered, calls, forward = tr.layer_totals([(0.0, 12.5)])
    assert totals["model.forward_s"] == 6.0
    assert totals["blocks.ss2dblock_self_s"] == 2.0
    assert totals["scan.ss2d_fwd_s"] == 2.0
    assert totals["optim.step_s"] == 1.0 and calls["optim.step_s"] == 1
    assert covered == 11.0 and forward == 10.0


def test_uninstall_restores_every_entry_point():
    before = {(owner, attr): vars(owner).get(attr) for owner, attr, _ in tracing._targets()}
    record_ops = (tensor.record_op, scan.record_op)
    tr = tracing.Tracer()
    tr.install()
    assert blocks.SS2DBlock.forward is not before[(blocks.SS2DBlock, "forward")]
    assert "forward" in vars(blocks.MSVSSBlock)
    tr.uninstall()
    after = {(owner, attr): vars(owner).get(attr) for owner, attr, _ in tracing._targets()}
    assert after == before
    assert "forward" not in vars(blocks.MSVSSBlock)
    assert (tensor.record_op, scan.record_op) == record_ops
    assert optim.AdamW.step is before[(optim.AdamW, "step")]
    assert train.evaluate is before[(train, "evaluate")]


def test_record_op_counts_scan_state():
    import numpy as np

    tr = tracing.Tracer()
    tr.install()
    try:
        p, l, c, n = 4, 6, 3, 2
        x = tensor.Tensor(np.ones((p, l, c), np.float32), requires_grad=True)
        a = tensor.Tensor(np.ones((p, c, n), np.float32))
        h = abar = np.zeros((p, l, c, n), np.float32)

        def backward(g):  # keeps x and a as tensors, h and abar as arrays
            return g + x.data.sum() + h.sum(), g + abar.sum(), a.data

        scan.record_op(np.zeros((p, l, c), np.float32), (x, x, a), backward, "selective_scan")
        with tensor.no_grad():
            tensor.reshape(x, (p * l, c))
    finally:
        tr.uninstall()
    assert tr.nodes == 2 and tr.layout_nodes == 1
    assert tr.scan_state_bytes == 2 * p * l * c * n * 4
    assert tr.graph_bytes == p * l * c * 4


def test_tail_percentile_leaves_ten_beyond():
    assert run._tail(list(range(10))) is None
    q, _ = run._tail(list(range(40)))
    assert q == 75
