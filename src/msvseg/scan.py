"""Selective-scan recurrence and the four-path 2D cross-scan.

``SS2D`` is the scan's one entry point: it holds the four paths'
parameters, flattens a feature map along the paths, projects each path's
step inputs, runs the recurrence op ``_scan_op`` on the stack and merges
the paths back.

The 1D scan is the standard selective state-space recurrence: per-step
transition Abar = exp(delta * A) with A = -exp(A_log) kept strictly negative,
input injection Bbar = delta * B (Euler form), state
h_t = Abar_t * h_{t-1} + Bbar_t * x_t and readout y_t = <C_t, h_t> + D * x_t.
Step size delta, B and C are projected from the input sequence itself.

2D feature maps [..., H, W, C] are flattened along four paths, stacked as
[4, ..., L, C]: row order is the map reshaped to [L, C], column order is the
same after an H<->W swap, and the two reverse paths are flips of those.  Each
path is scanned with its own parameters, then restored and summed.  Each
parameter quantity of the four paths is one stacked [4, ...] tensor (A_log
[4, C, N], the B projection [4, C, N], ...), so projecting the stacked
sequences is one batched matmul per quantity.  The scan op folds the leading
batch axes into its row axis: [4, B, L, C] runs as P = 4B rows, path p's
parameters repeated for each of its B maps.

The autodiff op streams the recurrence in blocks of SCAN_BLOCK time steps
in time-major buffers, [T, P, N, C] with C contiguous, so each step of the
recurrence reads and writes one contiguous [P, N, C] row.  Forward writes
one block's Abar and Bbar*x into two such buffers (allocated once per
call), runs the recurrence in place row by row and reads out
y_t = <C_t, h_t> as a batched [1, N] @ [N, C] matmul.  The op's inputs and
outputs stay [P, L, ·]; each block reads and writes them through [T, P, ·]
views, so no whole-sequence transpose is made.  It keeps only the state
entering each block, [ceil(L/T), P, N, C], instead of the full history h
and Abar, 2 x [P, L, C, N].  Backward walks the blocks in reverse,
recomputes each block's Abar, Bbar*x and h from its saved state with the
forward's own functions (so bit-identical to the forward's states), runs the
reverse recurrence over that block, and takes its sums over N or C as batched
matmuls and its sums over time and against A as einsums.
_scan_forward_core/_scan_backward_core keep the full history and stay as the
reference the streamed op is tested against.  Both read out with a matmul,
the reference as [C, N] @ [N, 1] per step, which sums over N in another
order, so streamed y matches the reference within 1e-12 relative in
float64, not bit for bit.  The reference's chunked form,
``_scan_forward_core(..., chunk)`` with chunk < L, is the streamed op's own
forward loop ``_stream_forward`` at block length chunk, so checking chunked
against sequential checks the recurrence the model runs.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .tensor import Module, Rng, Tensor, exp, init_ones, linear, record_op, softplus

__all__ = ["dt_rank", "cross_scan", "cross_merge", "SS2D", "run_scan_benchmark"]


def dt_rank(channels: int) -> int:
    """Rank of the step-size projection of a C-channel scan, ceil(C / 16)
    (Gu & Dao 2023)."""
    return max(1, math.ceil(channels / 16))


# -- fused recurrence ----------------------------------------------------------

# Time steps per block of the streamed op.  Forward plus backward, float32,
# one BLAS thread of a 2-vCPU Xeon, median of alternating runs (block 32 / 64):
#   seven toy scans at batch 8 (P = 32, L = 4..256)    146 / 168 ms
#   L = 3136, C = 96, P = 4                           345 / 357 ms
#   L = 3136, C = 192, P = 4                          515 / 530 ms
# At P = 4 the toy scans measure flat from 16 to 128.
SCAN_BLOCK = 32


def _scan_forward_core(x, delta, a, b, c_out, skip, chunk=None):
    """Sequential scan on raw arrays, keeping the full history.

    x, delta: [P, L, C]; a: [P, C, N]; b, c_out: [P, L, N]; skip: [P, C].
    Returns y [P, L, C], h and Abar [P, L, C, N].  A ``chunk`` below L runs
    the streamed op's forward loop in blocks of ``chunk`` steps instead and
    returns (y, None, None).
    """
    p, l, c = x.shape
    if chunk is not None and chunk < l:
        return _stream_forward(x, delta, a, b, c_out, skip, chunk)[0], None, None
    abar = np.exp(delta[..., None] * a[:, None, :, :])          # [P, L, C, N]
    bx = delta[..., None] * b[:, :, None, :] * x[..., None]     # [P, L, C, N]
    h = np.empty_like(bx)
    acc = np.zeros((p, c, a.shape[-1]), dtype=x.dtype)
    for t in range(l):
        np.multiply(acc, abar[:, t], out=acc)
        np.add(acc, bx[:, t], out=acc)
        h[:, t] = acc
    y = np.matmul(h, c_out[..., None])[..., 0] + skip[:, None, :] * x
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


def _block_terms(x, delta, a_t, b, s, abar, bx):
    """Write Abar and Bbar*x of the time steps in slice ``s`` into the
    time-major ``[T, P, N, C]`` buffers ``abar`` and ``bx``; x, delta and b
    are [P, L, ·] and ``a_t`` is A as [P, N, C].

    Returns the views of the block's rows and d*x, [T, P, C].
    """
    rows = s.stop - s.start
    abar, bx = abar[:rows], bx[:rows]
    d = delta[:, s].swapaxes(0, 1)
    np.multiply(d[:, :, None, :], a_t, out=abar)
    np.exp(abar, out=abar)
    dx = np.multiply(d, x[:, s].swapaxes(0, 1), order="C")
    np.multiply(b[:, s, :, None].swapaxes(0, 1), dx[:, :, None, :], out=bx)
    return abar, bx, dx


def _block_states(abar, bx, h0):
    """Overwrite ``bx`` with the block's states h, starting from state ``h0``.

    Each step computes bx_t + abar_t * h_{t-1} on one contiguous [P, N, C]
    row in place.
    """
    tmp = np.empty_like(h0)
    prev = h0
    for t in range(bx.shape[0]):
        np.multiply(prev, abar[t], out=tmp)
        prev = bx[t]
        prev += tmp
    return bx


def _spans(length, block):
    """The time slices of the blocks of ``block`` steps over ``length`` steps."""
    return [slice(t0, min(t0 + block, length)) for t0 in range(0, length, block)]


def _stream_forward(x, delta, a, b, c_out, skip, block):
    """The streamed recurrence in blocks of ``block`` time steps, shapes as
    in _scan_forward_core.

    Returns y [P, L, C] and the state entering each block,
    [ceil(L/T), P, N, C].
    """
    p, l, c = x.shape
    n = a.shape[-1]
    dtype = np.result_type(x, delta, a, b, c_out, skip)
    spans = _spans(l, block)
    a_t = np.ascontiguousarray(a.transpose(0, 2, 1))
    abuf, hbuf = (np.empty((min(block, l), p, n, c), dtype=dtype) for _ in range(2))
    carries = np.empty((len(spans), p, n, c), dtype=dtype)
    carries[0] = 0.0
    y = np.empty((p, l, c), dtype=dtype)
    for j, s in enumerate(spans):
        abar, h, _ = _block_terms(x, delta, a_t, b, s, abuf, hbuf)
        _block_states(abar, h, carries[j])
        # readout y_t = <C_t, h_t> as a batched [1, N] @ [N, C] matmul
        np.matmul(c_out[:, s, None, :].swapaxes(0, 1), h, out=y[:, s, None, :].swapaxes(0, 1))
        y[:, s] += skip[:, None, :] * x[:, s]
        if j + 1 < len(spans):
            carries[j + 1] = h[-1]
    return y, carries


def _scan_op(x: Tensor, delta: Tensor, a: Tensor, b: Tensor, c_out: Tensor,
             skip: Tensor) -> Tensor:
    """Autodiff-recorded scan over stacked paths.

    x, delta: [Q, ..., L, C]; b, c_out: [Q, ..., L, N]; a: [Q, C, N] and
    skip: [Q, C] are shared by the B sequences of each path q.  The
    sequences run as P = Q*B rows, with A and D repeated per sequence and
    their gradients summed back.  Streams the recurrence in blocks of
    SCAN_BLOCK steps, read at call time, and keeps only the state entering
    each block for backward.  Inputs and outputs stay [P, L, ·]; each block
    reads and writes them through [T, P, ·] views.
    """
    q, *_, l, c = x.data.shape
    n = a.data.shape[-1]
    p = x.data.size // (l * c)
    reps = p // q

    def rows_of(t):
        # [Q, ..., L, K] -> [P, L, K], a view of the contiguous buffer
        return t.data.reshape(p, l, -1)

    def per_row(t):
        # [Q, ...] -> [P, ...]: path q's row repeated for each of its sequences
        return np.repeat(t.data, reps, axis=0)

    block = SCAN_BLOCK
    xd, dd, bd, cd = map(rows_of, (x, delta, b, c_out))
    y, carries = _stream_forward(xd, dd, per_row(a), bd, cd, per_row(skip), block)
    dtype = y.dtype
    spans, rows = _spans(l, block), min(block, l)

    def backward(grad):
        # reads inputs through their tensors so the closure holds only carries
        xd, dd, bd, cd = map(rows_of, (x, delta, b, c_out))
        ad, sd = per_row(a), per_row(skip)
        grad = grad.reshape(p, l, c)
        a_t = np.ascontiguousarray(ad.transpose(0, 2, 1))
        abuf, hbuf, gbuf = (np.empty((rows, p, n, c), dtype=dtype) for _ in range(3))
        g_a = np.zeros((p, n, c), dtype=dtype)
        g_b = np.empty((p, l, n), dtype=dtype)
        g_c = np.empty((p, l, n), dtype=dtype)
        gbx_b = np.empty((p, l, c), dtype=dtype)     # sum_n g_bx * b
        gabar_a = np.empty((p, l, c), dtype=dtype)   # sum_n g_abar * a
        gh_carry = np.zeros((p, n, c), dtype=dtype)  # state gradient entering from the next block
        for j in range(len(spans) - 1, -1, -1):
            s, h0 = spans[j], carries[j]
            abar, h, dx = _block_terms(xd, dd, a_t, bd, s, abuf, hbuf)
            _block_states(abar, h, h0)
            gy = grad[:, s].swapaxes(0, 1)
            # the sums over N or C run as batched matmuls: [N, C] @ [C, 1], [1, N] @ [N, C]
            np.matmul(h, gy[..., None], out=g_c[:, s, :, None].swapaxes(0, 1))
            # after the loop g_bx[t] holds the total state gradient at step t
            g_bx = gbuf[:len(h)]
            np.multiply(cd[:, s, :, None].swapaxes(0, 1), gy[:, :, None, :], out=g_bx)
            for t in range(len(h) - 1, -1, -1):
                gh = g_bx[t]
                gh += gh_carry
                np.multiply(gh, abar[t], out=gh_carry)
            # dL/d(delta * a) summands g_bx_t * h_{t-1} * abar_t, formed in abar's buffer
            g_abar = abar
            g_abar[1:] *= h[:-1]
            g_abar[0] *= h0
            g_abar *= g_bx
            g_a += np.einsum("tpnc,ptc->pnc", g_abar, dd[:, s])
            np.einsum("tpnc,pnc->ptc", g_abar, a_t, out=gabar_a[:, s])
            np.matmul(bd[:, s, None, :].swapaxes(0, 1), g_bx, out=gbx_b[:, s, None, :].swapaxes(0, 1))
            np.matmul(g_bx, dx[..., None], out=g_b[:, s, :, None].swapaxes(0, 1))
        g_delta = gabar_a + gbx_b * xd
        g_x = grad * sd[:, None, :] + gbx_b * dd
        g_skip = (grad * xd).sum(axis=1)
        g_a = g_a.reshape(q, reps, n, c).sum(axis=1).transpose(0, 2, 1)
        g_skip = g_skip.reshape(q, reps, c).sum(axis=1)
        return (g_x.reshape(x.data.shape), g_delta.reshape(delta.data.shape),
                np.ascontiguousarray(g_a), g_b.reshape(b.data.shape),
                g_c.reshape(c_out.data.shape), g_skip)

    return record_op(y.reshape(x.data.shape), (x, delta, a, b, c_out, skip), backward,
                     "selective_scan")


# -- 2D cross scan --------------------------------------------------------------

def _paths(fmap: np.ndarray) -> np.ndarray:
    """[..., H, W, C] -> [4, ..., H*W, C]: rows, columns, reversed rows,
    reversed columns."""
    *lead, _, _, c = fmap.shape
    rows = fmap.reshape(*lead, -1, c)
    cols = fmap.swapaxes(-3, -2).reshape(*lead, -1, c)
    return np.stack([rows, cols, rows[..., ::-1, :], cols[..., ::-1, :]])


def _merge(seqs: np.ndarray, h: int, w: int) -> np.ndarray:
    """[4, ..., H*W, C] -> [..., H, W, C]: each path restored to the map,
    summed as r0 + r1 + r2 + r3 in that order."""
    *lead, _, c = seqs.shape[1:]
    rows, cols = (*lead, h, w, c), (*lead, w, h, c)
    out = np.empty(rows, dtype=seqs.dtype)
    np.add(seqs[0].reshape(rows), seqs[1].reshape(cols).swapaxes(-3, -2), out=out)
    out += seqs[2][..., ::-1, :].reshape(rows)
    out += seqs[3][..., ::-1, :].reshape(cols).swapaxes(-3, -2)
    return out


def cross_scan(fmap: Tensor) -> Tensor:
    """Flatten [..., H, W, C] maps along the four paths, stacked as
    [4, ..., H*W, C]."""
    h, w = fmap.data.shape[-3:-1]

    def backward(grad):
        return (_merge(grad, h, w),)

    return record_op(_paths(fmap.data), (fmap,), backward, "cross_scan")


def cross_merge(seqs: Tensor, h: int, w: int) -> Tensor:
    """Restore stacked [4, ..., L, C] paths to [..., H, W, C] each and sum them."""
    shape = seqs.data.shape
    if len(shape) < 3 or shape[0] != 4 or shape[-2] != h * w:
        raise ValueError(f"cross_merge: expected paths [4, ..., {h}*{w}, C], got {shape}")

    def backward(grad):
        return (_paths(grad),)

    return record_op(_merge(seqs.data, h, w), (seqs,), backward, "cross_merge")


class SS2D(Module):
    """Four-direction selective scan over [..., H, W, C] feature maps.

    Each parameter quantity of the four paths is stored once as a [4, ...]
    tensor, path i drawn from ``rng.child(i)`` alone.  A_log parameterizes
    the strictly negative transition A = -exp(A_log); delta comes from a rank
    ``dt_rank(C)`` projection followed by softplus, B and C from direct linear
    projections of the input.  The paths are projected and scanned stacked,
    so the time loop is shared, and the four restored outputs are summed.
    """

    def __init__(self, rng: Rng, channels: int, n_state: int = 16):
        rngs = [rng.child(i) for i in range(4)]
        rank = dt_rank(channels)

        def per_path(draw):
            return Tensor(np.stack([draw(r) for r in rngs]).astype(np.float32), requires_grad=True)

        self.a_log = Tensor(
            np.tile(np.log(np.arange(1, n_state + 1, dtype=np.float32)), (len(rngs), channels, 1)),
            requires_grad=True)
        self.skip = init_ones((len(rngs), channels))
        self.w_b = per_path(lambda r: r.child(1).trunc_normal((channels, n_state), 0.02))
        self.w_c = per_path(lambda r: r.child(2).trunc_normal((channels, n_state), 0.02))
        self.w_dt_down = per_path(lambda r: r.child(3).trunc_normal((channels, rank), 0.02))
        bound = rank ** -0.5
        self.w_dt_up = per_path(lambda r: r.child(4).uniform(-bound, bound, (rank, channels)))

        def dt_bias(r):
            # softplus(dt_bias) lands in [1e-3, 1e-1], log-uniform
            dt = np.exp(r.child(5).uniform(math.log(1e-3), math.log(1e-1), channels))
            return np.log(np.expm1(dt))

        self.dt_bias = per_path(dt_bias)

    def forward(self, fmap: Tensor) -> Tensor:
        h, w = fmap.data.shape[-3:-1]
        seqs = cross_scan(fmap)
        # path p of the stack is projected with path p of each parameter
        delta = softplus(linear(linear(seqs, self.w_dt_down), self.w_dt_up, self.dt_bias))
        y = _scan_op(seqs, delta, -exp(self.a_log), linear(seqs, self.w_b),
                     linear(seqs, self.w_c), self.skip)
        return cross_merge(y, h, w)


# -- benchmark -------------------------------------------------------------------

# Channels do not interact in the recurrence, so the benchmark gate runs the
# full-history reference on groups of this many channels, not on all C at once.
_GATE_CHANNELS = 8


def run_scan_benchmark(lengths, n_state: int, channels: int, seed: int) -> list[dict]:
    """Time the streamed scan op, at the model's block length SCAN_BLOCK,
    against the sequential reference in float32, over the four stacked paths
    of SS2D.

    Each length is gated first: in float64 every channel of the streamed
    output must match the full-history reference within 1e-12 relative to
    the reference's largest |y|, or the benchmark aborts.  Both variants then
    run forward in float32, the training dtype.  Returns rows of path_count,
    L, N, C, variant, wall_ns, throughput and checksum.
    """
    paths = 4

    def streamed(arrays):
        return _scan_op(*map(Tensor, arrays)).data

    rows = []
    for length in lengths:
        rng = Rng(seed).child(length)
        x = rng.normal((paths, length, channels)).astype(np.float64)
        delta = np.log1p(np.exp(rng.normal((paths, length, channels)))) + 1e-4
        a = -np.exp(rng.normal((paths, channels, n_state)) * 0.5)
        b = rng.normal((paths, length, n_state))
        c_out = rng.normal((paths, length, n_state))
        skip = rng.normal((paths, channels))
        arrays = (x, delta, a, b, c_out, skip)

        groups = [slice(lo, lo + _GATE_CHANNELS) for lo in range(0, channels, _GATE_CHANNELS)]
        y_ref = np.concatenate([_scan_forward_core(x[..., ch], delta[..., ch], a[:, ch], b, c_out,
                                                   skip[:, ch])[0] for ch in groups], axis=-1)
        dev = float(np.max(np.abs(streamed(arrays) - y_ref)))
        if dev > 1e-12 * float(np.max(np.abs(y_ref))):
            raise AssertionError(f"benchmark gate failed: streamed deviates by {dev:.3e} at L={length}")

        arrays32 = tuple(v.astype(np.float32) for v in arrays)
        variants = (("reference", lambda: _scan_forward_core(*arrays32)[0]),
                    ("streamed", lambda: streamed(arrays32)))
        for variant, run in variants:
            best = None
            for _ in range(3):
                t0 = time.perf_counter_ns()
                y = run()
                dt = time.perf_counter_ns() - t0
                best = dt if best is None else min(best, dt)
            elems = paths * length * channels
            rows.append({
                "path_count": paths, "L": length, "N": n_state, "C": channels,
                "variant": variant, "wall_ns": best,
                "elements_per_s": elems / (best * 1e-9),
                "checksum": f"{float(y.sum()):.17g}",
            })
    return rows
