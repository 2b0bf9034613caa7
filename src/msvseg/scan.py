"""Selective-scan recurrence and the four-path 2D cross-scan.

The 1D scan is the standard selective state-space recurrence: per-step
transition Abar = exp(delta * A) with A = -exp(A_log) kept strictly negative,
input injection Bbar = delta * B (Euler form), state
h_t = Abar_t * h_{t-1} + Bbar_t * x_t and readout y_t = <C_t, h_t> + D * x_t.
Step size delta, B and C are projected from the input sequence itself.

2D feature maps are flattened along four paths (row/column order, forward and
reversed), scanned independently per path, then restored and summed.

The autodiff op streams the recurrence in blocks of SCAN_BLOCK time steps.
Forward forms one block's Abar and Bbar*x at a time and keeps only the state
entering each block, [P, ceil(L/T), C, N], instead of the full history h and
Abar, 2 x [P, L, C, N].  Backward walks the blocks in reverse, recomputes each
block's Abar, Bbar*x and h from its saved state with the forward's float ops
in the forward's order (so bit-identical), and runs the reverse recurrence over
that block.  _scan_forward_core/_scan_backward_core keep the full history and
stay as the reference the streamed op is tested against.
"""

from __future__ import annotations

import math
import time
from enum import IntEnum

import numpy as np

from .tensor import (
    Module, Rng, Tensor, exp, linear, mul, record_op, reshape, softplus, stack,
    take_flat, put_flat, init_trunc_normal, init_ones,
)

__all__ = [
    "ScanPathId", "ScanParams", "discretize",
    "selective_scan_seq", "selective_scan_chunked",
    "cross_scan", "cross_merge", "SS2D", "run_scan_benchmark",
]


class ScanPathId(IntEnum):
    ROW_FWD = 0
    COL_FWD = 1
    ROW_REV = 2
    COL_REV = 3


# -- parameters ---------------------------------------------------------------

class ScanParams(Module):
    """Parameter bundle for one scan direction over a C-channel sequence.

    A_log parameterizes the strictly negative transition A = -exp(A_log);
    delta comes from a rank-reduced projection followed by softplus, B and C
    from direct linear projections of the input.
    """

    def __init__(self, rng: Rng, channels: int, n_state: int = 16, dt_rank: int | None = None):
        super().__init__()
        if dt_rank is None:
            dt_rank = max(1, math.ceil(channels / 16))
        self.channels = channels
        self.n_state = n_state
        self.dt_rank = dt_rank
        self.a_log = Tensor(
            np.tile(np.log(np.arange(1, n_state + 1, dtype=np.float32)), (channels, 1)),
            requires_grad=True)
        self.skip = init_ones((channels,))
        self.w_b = init_trunc_normal(rng.child(1), (channels, n_state))
        self.w_c = init_trunc_normal(rng.child(2), (channels, n_state))
        self.w_dt_down = init_trunc_normal(rng.child(3), (channels, dt_rank))
        bound = dt_rank ** -0.5
        self.w_dt_up = Tensor(rng.child(4).uniform(-bound, bound, (dt_rank, channels)).astype(np.float32),
                              requires_grad=True)
        # softplus(dt_bias) lands in [1e-3, 1e-1], log-uniform
        dt = np.exp(rng.child(5).uniform(math.log(1e-3), math.log(1e-1), channels))
        self.dt_bias = Tensor(np.log(np.expm1(dt)).astype(np.float32), requires_grad=True)

    def astype(self, dtype) -> "ScanParams":
        for name, p in list(vars(self).items()):
            if isinstance(p, Tensor):
                setattr(self, name, Tensor(p.data.astype(dtype), requires_grad=p.requires_grad))
        return self


def discretize(delta: Tensor, a: Tensor, b: Tensor):
    """Zero-order-hold transition and Euler input term.

    delta: [L, C] (> 0), a: [C, N], b: [L, N]
    returns Abar = exp(delta * a): [L, C, N] and Bbar = delta * b: [L, C, N].
    """
    if np.any(delta.data <= 0):
        raise ValueError("discretize: delta must be strictly positive")
    l, c = delta.data.shape
    n = a.data.shape[1]
    d3 = reshape(delta, (l, c, 1))
    abar = exp(mul(d3, reshape(a, (1, c, n))))
    bbar = mul(d3, reshape(b, (l, 1, n)))
    return abar, bbar


# -- fused recurrence ----------------------------------------------------------

SCAN_BLOCK = 64  # time steps per block of the streamed op; 16-128 measured flat at L=3136, C=192


def _scan_forward_core(x, delta, a, b, c_out, skip, chunk=None):
    """Batched scan on raw arrays.

    x, delta: [P, L, C]; a: [P, C, N]; b, c_out: [P, L, N]; skip: [P, C].
    Returns y [P, L, C] and the state history h [P, L, C, N].
    """
    p, l, c = x.shape
    n = a.shape[-1]
    abar = np.exp(delta[..., None] * a[:, None, :, :])          # [P, L, C, N]
    bx = delta[..., None] * b[:, :, None, :] * x[..., None]     # [P, L, C, N]
    if chunk is None or chunk >= l:
        h = np.empty_like(bx)
        acc = np.zeros((p, c, n), dtype=x.dtype)
        for t in range(l):
            np.multiply(acc, abar[:, t], out=acc)
            np.add(acc, bx[:, t], out=acc)
            h[:, t] = acc
    else:
        # blocked evaluation: local scans run vectorized across all chunks at
        # once, then a short sequential pass threads the carried state through
        # the chunk boundaries via (a1, b1) o (a2, b2) = (a1*a2, a2*b1 + b2).
        nc = -(-l // chunk)
        pad = nc * chunk - l
        if pad:
            # (abar, bx) = (1, 0) is the identity element of the pair operator
            abar_pad = np.concatenate([abar, np.ones((p, pad, c, n), dtype=x.dtype)], axis=1)
            bx_pad = np.concatenate([bx, np.zeros((p, pad, c, n), dtype=x.dtype)], axis=1)
        else:
            abar_pad, bx_pad = abar, bx
        ab = abar_pad.reshape(p, nc, chunk, c, n)
        bb = bx_pad.reshape(p, nc, chunk, c, n)
        h_loc = np.empty_like(bb)
        apref = np.empty_like(ab)
        acc_b = np.zeros((p, nc, c, n), dtype=x.dtype)
        acc_a = np.ones((p, nc, c, n), dtype=x.dtype)
        for t in range(chunk):
            np.multiply(acc_b, ab[:, :, t], out=acc_b)
            np.add(acc_b, bb[:, :, t], out=acc_b)
            h_loc[:, :, t] = acc_b
            np.multiply(acc_a, ab[:, :, t], out=acc_a)
            apref[:, :, t] = acc_a
        carries = np.empty((p, nc, c, n), dtype=x.dtype)
        carry = np.zeros((p, c, n), dtype=x.dtype)
        for j in range(nc):
            carries[:, j] = carry
            carry = h_loc[:, j, -1] + apref[:, j, -1] * carry
        h_loc += apref * carries[:, :, None]
        h = np.ascontiguousarray(h_loc.reshape(p, nc * chunk, c, n)[:, :l])
    y = (h * c_out[:, :, None, :]).sum(-1) + skip[:, None, :] * x
    return y, h, abar


def _scan_backward_core(grad_y, x, delta, a, b, c_out, skip, h, abar):
    """Reverse recurrence producing gradients for every scan input."""
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


def _block_terms(x, delta, a, b, s):
    """Abar and Bbar*x of the time steps in slice ``s``: [P, T, C, N] each."""
    d = delta[:, s, :, None]
    return np.exp(d * a[:, None, :, :]), d * b[:, s, None, :] * x[:, s, :, None]


def _block_states(abar, bx, h0):
    """Overwrite ``bx`` with the block's states h, starting from state ``h0``.

    Each step computes bx_t + abar_t * h_{t-1}, the same two roundings as the
    full-history loop, so the states are bit-identical to it.
    """
    tmp = np.empty_like(h0)
    prev = h0
    for t in range(bx.shape[1]):
        np.multiply(prev, abar[:, t], out=tmp)
        prev = bx[:, t]
        prev += tmp
    return bx


def _scan_op(x: Tensor, delta: Tensor, a: Tensor, b: Tensor, c_out: Tensor,
             skip: Tensor, chunk: int | None = None) -> Tensor:
    """Autodiff-recorded scan over stacked paths ([P, L, C] layout).

    Streams the recurrence in blocks of ``chunk`` steps (SCAN_BLOCK when None)
    and keeps only the state entering each block for backward.
    """
    block = chunk or SCAN_BLOCK
    xd, dd, ad, bd, cd, sd = (t.data for t in (x, delta, a, b, c_out, skip))
    dtype = np.result_type(xd, dd, ad, bd, cd, sd)
    p, l, c = xd.shape
    n = ad.shape[-1]
    spans = [slice(t0, min(t0 + block, l)) for t0 in range(0, l, block)]
    carries = np.empty((p, len(spans), c, n), dtype=dtype)
    y = np.empty((p, l, c), dtype=dtype)
    state = np.zeros((p, c, n), dtype=dtype)
    for j, s in enumerate(spans):
        carries[:, j] = state
        h = _block_states(*_block_terms(xd, dd, ad, bd, s), state)
        y[:, s] = (h * cd[:, s, None, :]).sum(-1) + sd[:, None, :] * xd[:, s]
        state = h[:, -1]

    def backward(grad):
        # reads inputs through their tensors so the closure holds only carries
        xd, dd, ad, bd, cd, sd = (t.data for t in (x, delta, a, b, c_out, skip))
        g_a = np.zeros((p, c, n), dtype=dtype)
        g_b = np.empty((p, l, n), dtype=dtype)
        g_c = np.empty((p, l, n), dtype=dtype)
        gbx_b = np.empty((p, l, c), dtype=dtype)     # sum_n g_bx * b
        gabar_a = np.empty((p, l, c), dtype=dtype)   # sum_n g_abar * a
        gh_carry = np.zeros((p, c, n), dtype=dtype)  # state gradient entering from the next block
        for j in range(len(spans) - 1, -1, -1):
            s, h0 = spans[j], carries[:, j]
            abar, h = _block_terms(xd, dd, ad, bd, s)
            _block_states(abar, h, h0)
            gy = grad[:, s]
            # the sums over C or N run as batched matmuls: [1, C] @ [C, N], [C, N] @ [N, 1]
            g_c[:, s] = np.matmul(gy[:, :, None, :], h)[:, :, 0]
            # after the loop g_bx[:, t] holds the total state gradient at step t
            g_bx = gy[..., None] * cd[:, s, None, :]
            g_abar = np.empty_like(h)
            for t in range(h.shape[1] - 1, -1, -1):
                gh = g_bx[:, t]
                gh += gh_carry
                np.multiply(gh, h[:, t - 1] if t else h0, out=g_abar[:, t])
                np.multiply(gh, abar[:, t], out=gh_carry)
            g_abar *= abar  # now holds dL/d(delta * a) summands
            g_a += np.einsum("ptcn,ptc->pcn", g_abar, dd[:, s])
            gabar_a[:, s] = np.einsum("ptcn,pcn->ptc", g_abar, ad)
            gbx_b[:, s] = np.matmul(g_bx, bd[:, s, :, None])[..., 0]
            g_b[:, s] = np.matmul((dd[:, s] * xd[:, s])[:, :, None, :], g_bx)[:, :, 0]
        g_delta = gabar_a + gbx_b * xd
        g_x = grad * sd[:, None, :] + gbx_b * dd
        g_skip = (grad * xd).sum(axis=1)
        return g_x, g_delta, g_a, g_b, g_c, g_skip

    return record_op(y, (x, delta, a, b, c_out, skip), backward, "selective_scan")


def _project_step_params(x: Tensor, params: ScanParams):
    """delta [L, C] (softplus), B [L, N], C [L, N] from the input sequence."""
    dt = linear(linear(x, params.w_dt_down), params.w_dt_up)
    delta = softplus(dt + params.dt_bias)
    b = linear(x, params.w_b)
    c_out = linear(x, params.w_c)
    a = mul(exp(params.a_log), -1.0)
    return delta, a, b, c_out


def _scan_sequence(x: Tensor, params: ScanParams, chunk: int | None) -> Tensor:
    l, c = x.data.shape
    delta, a, b, c_out = _project_step_params(x, params)
    y = _scan_op(reshape(x, (1, l, c)), reshape(delta, (1, l, c)),
                 reshape(a, (1, c, params.n_state)), reshape(b, (1, l, params.n_state)),
                 reshape(c_out, (1, l, params.n_state)), reshape(params.skip, (1, c)),
                 chunk)
    return reshape(y, (l, c))


def selective_scan_seq(x: Tensor, params: ScanParams) -> Tensor:
    """Reference sequential recurrence over a [L, C] sequence."""
    return _scan_sequence(x, params, chunk=None)


def selective_scan_chunked(x: Tensor, params: ScanParams, chunk: int) -> Tensor:
    """Streamed scan with an explicit block length of ``chunk`` steps.

    Every block length repeats the sequential recurrence's float ops in the
    same order, so the output equals selective_scan_seq's bit for bit; only
    the state kept for backward, [ceil(L/chunk), C, N], changes.
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    return _scan_sequence(x, params, chunk=chunk)


# -- 2D cross scan --------------------------------------------------------------

_PERM_CACHE: dict[tuple[int, int], list[np.ndarray]] = {}


def _path_perms(h: int, w: int) -> list[np.ndarray]:
    """Flat pixel order for each ScanPathId over an h x w map."""
    key = (h, w)
    if key not in _PERM_CACHE:
        row = np.arange(h * w, dtype=np.intp)
        col = (row % h) * w + (row // h)
        _PERM_CACHE[key] = [row, col, row[::-1].copy(), col[::-1].copy()]
    return _PERM_CACHE[key]


def _seq_index(perm: np.ndarray, c: int, hw: int) -> np.ndarray:
    # out[t, ch] = fmap.flat[ch * hw + perm[t]]
    return perm[:, None] + hw * np.arange(c, dtype=np.intp)[None, :]


def cross_scan(fmap: Tensor) -> list[Tensor]:
    """Flatten a [C, H, W] map into four [H*W, C] sequences, one per path."""
    c, h, w = fmap.data.shape
    return [take_flat(fmap, _seq_index(perm, c, h * w), (h * w, c), unique=True)
            for perm in _path_perms(h, w)]


def cross_merge(seqs, h: int, w: int) -> Tensor:
    """Restore four [L, C] sequences along their own paths and sum to [C, H, W]."""
    out = None
    for seq, perm in zip(seqs, _path_perms(h, w)):
        l, c = seq.data.shape
        if l != h * w:
            raise ValueError(f"cross_merge: sequence length {l} != {h}*{w}")
        restored = put_flat(seq, _seq_index(perm, c, h * w), (c, h, w))
        out = restored if out is None else out + restored
    return out


class SS2D(Module):
    """Four-direction selective scan over a 2D feature map.

    Each path owns an independent ScanParams; the four restored outputs are
    summed.  The per-path recurrences run stacked so the time loop is shared.
    """

    def __init__(self, rng: Rng, channels: int, n_state: int = 16, dt_rank: int | None = None):
        super().__init__()
        self.channels = channels
        self.n_state = n_state
        self.paths = [ScanParams(rng.child(i), channels, n_state, dt_rank) for i in range(4)]

    def forward(self, fmap: Tensor, chunk: int | None = None) -> Tensor:
        c, h, w = fmap.data.shape
        seqs = cross_scan(fmap)
        deltas, a_s, b_s, c_s = [], [], [], []
        for seq, p in zip(seqs, self.paths):
            delta, a, b, c_out = _project_step_params(seq, p)
            deltas.append(delta)
            a_s.append(a)
            b_s.append(b)
            c_s.append(c_out)
        y = _scan_op(stack(seqs), stack(deltas), stack(a_s), stack(b_s), stack(c_s),
                     stack([p.skip for p in self.paths]), chunk)
        l = h * w
        outs = [take_flat(y, np.arange(l * c).reshape(l, c) + i * l * c, (l, c), unique=True)
                for i in range(4)]
        return cross_merge(outs, h, w)


# -- benchmark -------------------------------------------------------------------

def run_scan_benchmark(lengths=(256, 1024, 4096), n_state: int = 16, channels: int = 8,
                       chunk: int = 64, path_count: int = 4, seed: int = 0,
                       tol: float = 1e-12) -> list[dict]:
    """Time the sequential and chunked scans on random inputs.

    Each row is correctness-gated: the chunked output must match the
    sequential one within ``tol`` or the benchmark aborts.  Returns rows of
    path_count, L, N, C, variant, wall_ns, throughput and checksum.
    """
    rows = []
    for length in lengths:
        rng = Rng(seed).child(length)
        x = rng.normal((path_count, length, channels)).astype(np.float64)
        delta = np.log1p(np.exp(rng.normal((path_count, length, channels)))) + 1e-4
        a = -np.exp(rng.normal((path_count, channels, n_state)) * 0.5)
        b = rng.normal((path_count, length, n_state))
        c_out = rng.normal((path_count, length, n_state))
        skip = rng.normal((path_count, channels))

        y_seq, _, _ = _scan_forward_core(x, delta, a, b, c_out, skip, None)
        y_chk, _, _ = _scan_forward_core(x, delta, a, b, c_out, skip, chunk)
        dev = float(np.max(np.abs(y_seq - y_chk)))
        if dev > tol:
            raise AssertionError(f"benchmark gate failed: chunked deviates by {dev:.3e} at L={length}")

        for variant, use_chunk in (("seq", None), (f"chunked{chunk}", chunk)):
            best = None
            for _ in range(3):
                t0 = time.perf_counter_ns()
                y, _, _ = _scan_forward_core(x, delta, a, b, c_out, skip, use_chunk)
                dt = time.perf_counter_ns() - t0
                best = dt if best is None else min(best, dt)
            elems = path_count * length * channels
            rows.append({
                "path_count": path_count, "L": length, "N": n_state, "C": channels,
                "variant": variant, "wall_ns": best,
                "elements_per_s": elems / (best * 1e-9),
                "checksum": f"{float(y.sum()):.17g}",
            })
    return rows
