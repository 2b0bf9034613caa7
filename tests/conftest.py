"""Shared brute-force oracles, independent of the library's compute paths,
the full-history scan backward, the scipy forms of the boundary and HD95
metrics, a count of the arrays a recorded graph holds for backward, and a
probe of where a training step's traced memory peaks."""

import collections
import math
import tracemalloc
import types
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy import ndimage

from msvseg.tensor import Tensor


def dwconv_bruteforce(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Six nested loops: per-channel same-padded cross-correlation of an [H, W, C] map."""
    h, w, c = x.shape
    _, kh, kw = k.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros_like(x)
    for ci in range(c):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for di in range(kh):
                    for dj in range(kw):
                        si, sj = i + di - ph, j + dj - pw
                        if 0 <= si < h and 0 <= sj < w:
                            acc += x[si, sj, ci] * k[ci, di, dj]
                out[i, j, ci] = acc
    return out


def dwconv_per_tap(x: np.ndarray, k: np.ndarray, grad: np.ndarray):
    """Per-tap depthwise convolution of [..., H, W, C] maps with a [C, kh, kw]
    kernel, 'same' zero padding: one shifted multiply-add per tap, as the
    engine computed it before its single-pass einsum form.  Returns the
    output and, for the output gradient ``grad``, the input and kernel
    gradients."""
    x4 = x.reshape((-1,) + x.shape[-3:])
    _, h, w, _ = x4.shape
    _, kh, kw = k.shape
    ph, pw = kh // 2, kw // 2
    taps = k.transpose(1, 2, 0)
    pad = ((0, 0), (ph, ph), (pw, pw), (0, 0))
    xp = np.pad(x4, pad)
    out = np.zeros_like(x4)
    for i in range(kh):
        for j in range(kw):
            out += xp[:, i:i + h, j:j + w] * taps[i, j]
    g4 = grad.reshape(x4.shape)
    gk = np.empty_like(k)
    for i in range(kh):
        for j in range(kw):
            gk[:, i, j] = np.einsum("bhwc,bhwc->c", xp[:, i:i + h, j:j + w], g4)
    gp = np.pad(g4, pad)
    gx = np.zeros_like(x4)
    for i in range(kh):
        for j in range(kw):
            gx += gp[:, kh - 1 - i:kh - 1 - i + h, kw - 1 - j:kw - 1 - j + w] * taps[i, j]
    return out.reshape(x.shape), gx.reshape(x.shape), gk


def scan_scalar_loop(x, delta, a, b, c_out, skip):
    """Pure per-timestep, per-channel, per-state scalar evaluation."""
    l, c = x.shape
    n = a.shape[1]
    h = np.zeros((c, n))
    y = np.zeros_like(x)
    for t in range(l):
        for ci in range(c):
            acc = 0.0
            for ni in range(n):
                abar = math.exp(delta[t, ci] * a[ci, ni])
                bbar_x = delta[t, ci] * b[t, ni] * x[t, ci]
                h[ci, ni] = abar * h[ci, ni] + bbar_x
                acc += h[ci, ni] * c_out[t, ni]
            y[t, ci] = acc + skip[ci] * x[t, ci]
    return y


def scan_backward_core(grad_y, x, delta, a, b, c_out, skip, h, abar):
    """Reverse recurrence producing gradients for every scan input, over the
    full history h and Abar that ``scan._scan_forward_core`` returns."""
    g_c = (grad_y[..., None] * h).sum(axis=2)
    # after the loop g_bx[:, t] holds the total state gradient at step t
    g_bx = grad_y[..., None] * c_out[:, :, None, :]
    g_abar = np.empty_like(h)
    g_abar[:, 0] = 0.0
    gh_carry = np.zeros_like(h[:, 0])
    for t in range(h.shape[1] - 1, -1, -1):
        gh = g_bx[:, t]
        gh += gh_carry
        if t > 0:
            np.multiply(gh, h[:, t - 1], out=g_abar[:, t])
        np.multiply(gh, abar[:, t], out=gh_carry)
    g_abar *= abar  # now holds dL/d(delta * a) summands
    g_a = (g_abar * delta[..., None]).sum(axis=1)
    gbx_b = (g_bx * b[:, :, None, :]).sum(-1)
    g_delta = (g_abar * a[:, None]).sum(-1) + gbx_b * x
    g_b = (g_bx * (delta * x)[..., None]).sum(axis=2)
    g_x = grad_y * skip[:, None, :] + gbx_b * delta
    g_skip = (grad_y * x).sum(axis=1)
    return g_x, g_delta, g_a, g_b, g_c, g_skip


def dsc_set_oracle(pred: np.ndarray, true: np.ndarray, num_classes: int):
    """Set-based counting of Dice per class."""
    out = []
    for cls in range(num_classes):
        p = {(i, j) for i, j in zip(*np.nonzero(pred == cls))}
        t = {(i, j) for i, j in zip(*np.nonzero(true == cls))}
        if not p and not t:
            out.append(1.0)
        elif not p or not t:
            out.append(0.0)
        else:
            out.append(2.0 * len(p & t) / (len(p) + len(t)))
    return np.array(out)


def boundary_bruteforce(region: np.ndarray) -> list[tuple[int, int]]:
    """Region pixels with a differing 8-neighbour or on the image edge."""
    h, w = region.shape
    pixels = []
    for i in range(h):
        for j in range(w):
            if not region[i, j]:
                continue
            on_edge = i == 0 or j == 0 or i == h - 1 or j == w - 1
            differs = any(
                not region[i + di, j + dj]
                for di in (-1, 0, 1) for dj in (-1, 0, 1)
                if (di or dj) and 0 <= i + di < h and 0 <= j + dj < w)
            if on_edge or differs:
                pixels.append((i, j))
    return pixels


def percentile95_linear(values) -> float:
    """Manual linear-interpolated 95th percentile."""
    data = sorted(float(v) for v in values)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * 0.95
    lo = int(math.floor(pos))
    frac = pos - lo
    return data[lo] + frac * (data[min(lo + 1, len(data) - 1)] - data[lo])


def hd95_bruteforce(pred: np.ndarray, true: np.ndarray, num_classes: int):
    """All-pairs directed distances, pooled percentile."""
    out = []
    for cls in range(num_classes):
        bp = boundary_bruteforce(pred == cls)
        bt = boundary_bruteforce(true == cls)
        if not bp or not bt:
            out.append(None)
            continue
        pooled = []
        for (i, j) in bp:
            pooled.append(min(math.sqrt((i - u) ** 2 + (j - v) ** 2) for (u, v) in bt))
        for (u, v) in bt:
            pooled.append(min(math.sqrt((i - u) ** 2 + (j - v) ** 2) for (i, j) in bp))
        out.append(percentile95_linear(pooled))
    return out


def boundary_pixels_scipy(region: np.ndarray) -> np.ndarray:
    """The scipy form of ``metrics.boundary_pixels``: the region less its
    binary erosion by the 3x3 square, with nothing beyond the edge."""
    region = np.asarray(region, dtype=bool)
    if not region.any():
        return region
    return region & ~ndimage.binary_erosion(region, structure=np.ones((3, 3), dtype=bool),
                                            border_value=0)


def hd95_scipy(pred: np.ndarray, true: np.ndarray, num_classes: int):
    """The scipy form of ``metrics.hd95_metric``: each boundary's distances
    read from the exact Euclidean distance transform of the other's
    complement, pooled, then the linear 95th percentile."""
    out = []
    for cls in range(num_classes):
        bp = boundary_pixels_scipy(pred == cls)
        bt = boundary_pixels_scipy(true == cls)
        if not bp.any() or not bt.any():
            out.append(None)
            continue
        dist_to_true = ndimage.distance_transform_edt(~bt)
        dist_to_pred = ndimage.distance_transform_edt(~bp)
        pooled = np.concatenate([dist_to_true[bp], dist_to_pred[bt]])
        out.append(float(np.percentile(pooled, 95, method="linear")))
    return out


def ce_scalar_oracle(logits: np.ndarray, mask: np.ndarray) -> float:
    """Per-pixel scalar loop cross-entropy with max stabilization."""
    k, h, w = logits.shape
    total = 0.0
    for i in range(h):
        for j in range(w):
            col = logits[:, i, j]
            m = col.max()
            lse = m + math.log(sum(math.exp(v - m) for v in col))
            total += lse - col[mask[i, j]]
    return total / (h * w)


def _base(arr: np.ndarray) -> np.ndarray:
    """The array that owns ``arr``'s memory."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def held_bytes(out, params=()) -> collections.Counter:
    """Bytes of the distinct arrays that the backward closures of ``out``'s
    recorded graph hold, by op name, besides the data of ``params``.

    Walks every node once and each closure's cells, following tensors to
    their data and nested functions, tuples and lists to their contents.
    Arrays count once by the buffer that owns them, so views of one buffer
    count once, under the first op found holding it: first the ops whose
    closures hold it outright, then those that reach it only through a
    nested function, such as an input's recompute (``Tensor._remat``).
    """
    skip = {id(_base(p.data)) for p in params}
    counted = set()
    by_op = collections.Counter()
    nodes, seen, stack = [], set(), [out._node]
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node.parents)

    def visit(obj, op, done, nested):
        if id(obj) in done:
            return
        done.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = _base(obj)
            if id(base) not in counted and id(base) not in skip:
                counted.add(id(base))
                by_op[op] += base.nbytes
        elif isinstance(obj, Tensor):
            visit(obj.data, op, done, nested)
        elif isinstance(obj, types.FunctionType):
            if nested:
                cells(obj, op, done, nested)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item, op, done, nested)

    def cells(fn, op, done, nested):
        for cell in fn.__closure__ or ():
            visit(cell.cell_contents, op, done, nested)

    for nested in (False, True):
        for node in nodes:
            if node.backward is not None:
                cells(node.backward, node.op, set(), nested)
    return by_op


def keep_arrays(monkeypatch):
    """Make every op keep its inputs' arrays, as before the recompute
    (``tensor._keep``): the reference that recomputing graphs must match bit
    for bit."""
    from msvseg import scan, tensor

    def keep(t):
        return t.data

    for module in (tensor, scan):
        monkeypatch.setattr(module, "_keep", keep)


class Point(NamedTuple):
    """One point of ``step_peaks``: MB above the step's start."""
    peak_mb: float   # traced peak during the point
    held_mb: float   # traced memory as it began
    label: str


def step_peaks(run) -> list[Point]:
    """Where one training step's traced memory peaks, point by point.

    ``run()`` records a forward plus loss and returns the scalar loss; the
    caller should hold no other tensor of it.  tracemalloc starts just
    before ``run``.  Every recorded node's backward closure is then wrapped
    to read the traced memory as it begins and the traced peak while it
    runs, and the loss's backward walks the graph.  Returns the points
    ranked by peak, highest first: "forward" (the forward plus loss), one
    "<op> <gradient shape>" per closure, and "walk", the highest peak of the
    engine's own work between closures (gradient copies and sums).
    """
    points = []
    walk = [0]

    def wrapped(inner, label, start):
        def backward(grad):
            held, between = tracemalloc.get_traced_memory()
            walk[0] = max(walk[0], between - start)
            tracemalloc.reset_peak()
            result = inner(grad)
            points.append(Point(tracemalloc.get_traced_memory()[1] - start, held - start,
                                f"{label} {list(grad.shape)}"))
            tracemalloc.reset_peak()
            return result
        return backward

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss = run()
        points.append(Point(tracemalloc.get_traced_memory()[1] - start, 0, "forward"))
        # no reference to a node outlives this loop: the walk frees nodes as usual
        stack, seen = [loss._node], set()
        while stack:
            node = stack.pop()
            if node is None or id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node.parents)
            if node.backward is not None:
                node.backward = wrapped(node.backward, node.op, start)
        del stack, node
        tracemalloc.reset_peak()
        loss.backward()
        walk[0] = max(walk[0], tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    points.append(Point(walk[0], 0, "walk"))
    mb = 1 / 2 ** 20
    return sorted((Point(p * mb, h * mb, label) for p, h, label in points), reverse=True)


@pytest.fixture
def tmp_out(tmp_path):
    return tmp_path


def corrupt_bytes(raw: bytes, data) -> bytes:
    """Truncate ``raw`` or overwrite a few of its bytes, as hypothesis draws."""
    if data.draw(st.booleans(), label="truncate"):
        return raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    buf = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 4), label="flips")):
        buf[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    return bytes(buf)
