"""Selective-scan recurrence and the four-path 2D cross-scan.

``SS2D`` is the scan's one entry point: it holds the four paths'
parameters, flattens a feature map along the paths, projects each path's
step inputs, runs the streamed recurrence on the stack and merges the paths
back, all recorded as one graph node named "selective_scan".  That node
keeps only the input map, the parameters and the recurrence's block-entry
states, and the map as ``tensor._keep`` gives it: behind a SiLU, the SiLU's
recompute of it rather than the array.  Its backward forms the four-path copy and the projections again
from the map (cheap next to the recurrence), never the recurrence's
forward, and runs each step's backward by hand.  So the [4, ..., L, C]
four-path copy, the step-size pre-activation and delta do not outlive the
forward, as they did when each step was an op of its own (Gu & Dao 2023
recompute the scan's intermediates in backward the same way).

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
sequences is one batched matmul per quantity.  The recurrence folds the
leading batch axes into its row axis: [4, B, L, C] runs as P = 4B rows,
path p's parameters repeated for each of its B maps.  SS2D runs paths
{0, 1} and {2, 3} as two such stacks, the second on its own thread when two
CPUs are available and the op holds at least ``_THREAD_MIN_STATE`` state
elements per path (``_run_pairs``), with the same bytes: the paths are
independent until the ordered merge, and a stacked matmul makes one BLAS
call per path.

The recurrence streams in blocks of SCAN_BLOCK time steps
in time-major buffers, [T, P, N, C] with C contiguous, so each step of the
recurrence reads and writes one contiguous [P, N, C] row.  Forward writes
one block's Abar and Bbar*x into two such buffers (allocated once per
call), runs the recurrence in place row by row and reads out
y_t = <C_t, h_t> as a batched [1, N] @ [N, C] matmul.  The op's inputs and
outputs stay [P, L, ·]; each block reads and writes them through [T, P, ·]
views, so no whole-sequence transpose is made.  It keeps only the state
entering each block, [ceil(L/T), P, N, C], instead of the full history h
and Abar, 2 x [P, L, C, N].  Backward (``_stacked_scan_backward``, whose one
recorded caller is SS2D) walks the blocks in reverse, recomputes each
block's Abar, Bbar*x and h from its saved state with the forward's own
functions (so bit-identical to the forward's states), runs the reverse
recurrence over that block, and takes its sums over N or C as batched
matmuls and its sums over time and against A as einsums.
_scan_forward_core keeps the full history and is the forward reference the
streamed op is tested against; its backward partner, the reverse
recurrence over that history, is a test oracle in ``tests/conftest.py``.
Both forwards read out with a matmul, the reference as [C, N] @ [N, 1] per
step, which sums over N in another order, so streamed y matches the
reference within 1e-12 relative in float64, not bit for bit.  The
reference's chunked form, ``_scan_forward_core(..., chunk)`` with chunk < L,
is the streamed op's own forward loop ``_stream_forward`` at block length
chunk, so checking chunked against sequential checks the recurrence the
model runs.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .tensor import (Module, Rng, Tensor, _keep, _kept, _linear, _sigmoid, _softplus, check_finite,
                     fill_workers, init_ones, record_op, schedule_fill, trunc_normal_draw,
                     uniform_draw)

__all__ = ["dt_rank", "cross_scan", "cross_merge", "SS2D"]


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

# Path-state elements, B*H*W*C*N per path, from which SS2D runs its second
# pair on a thread.  Below it the thread's start, join and interpreter-lock
# hand-overs cost about what the overlap saves: forward plus backward at two
# workers over one, 2-vCPU Xeon, 0.92 at toy's [8, 16, 16, 32] (N = 8, 0.5 M)
# and 1.14 at its [8, 2, 2, 256], against 0.62 at wide224's [1, 14, 14, 384].
_THREAD_MIN_STATE = 1 << 20

# The per-time-step loops release the interpreter lock only around short
# numpy calls, so two at once hand it over at nearly every call, a context
# switch each.  They take turns a block at a time instead, which halves the
# switches (a tiny224 image: about 3,400 instead of 6,700).
_STEP_LOOPS = threading.Lock()


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
    with _STEP_LOOPS:
        for t in range(bx.shape[0]):
            np.multiply(prev, abar[t], out=tmp)
            prev = bx[t]
            prev += tmp
    return bx


def _spans(length, block):
    """The time slices of the blocks of ``block`` steps over ``length`` steps."""
    return [slice(t0, min(t0 + block, length)) for t0 in range(0, length, block)]


def _stream_forward(x, delta, a, b, c_out, skip, block, y=None, carries=None):
    """The streamed recurrence in blocks of ``block`` time steps, shapes as
    in _scan_forward_core.

    Returns y [P, L, C] and the state entering each block,
    [ceil(L/T), P, N, C], written into ``y`` and ``carries`` when given.
    """
    p, l, c = x.shape
    n = a.shape[-1]
    dtype = np.result_type(x, delta, a, b, c_out, skip)
    spans = _spans(l, block)
    a_t = np.ascontiguousarray(a.transpose(0, 2, 1))
    abuf, hbuf = (np.empty((min(block, l), p, n, c), dtype=dtype) for _ in range(2))
    carries = np.empty((len(spans), p, n, c), dtype=dtype) if carries is None else carries
    carries[0] = 0.0
    y = np.empty((p, l, c), dtype=dtype) if y is None else y
    for j, s in enumerate(spans):
        abar, h, _ = _block_terms(x, delta, a_t, b, s, abuf, hbuf)
        _block_states(abar, h, carries[j])
        # readout y_t = <C_t, h_t> as a batched [1, N] @ [N, C] matmul
        np.matmul(c_out[:, s, None, :].swapaxes(0, 1), h, out=y[:, s, None, :].swapaxes(0, 1))
        y[:, s] += skip[:, None, :] * x[:, s]
        if j + 1 < len(spans):
            carries[j + 1] = h[-1]
    return y, carries


def _stacked_scan(x, delta, a, b, c_out, skip, block, y=None, carries=None):
    """The streamed recurrence over stacked paths, on arrays.

    x, delta: [Q, ..., L, C]; b, c_out: [Q, ..., L, N]; a: [Q, C, N] and
    skip: [Q, C] are shared by the B sequences of each path q.  The
    sequences run as P = Q*B rows, with A and D repeated per sequence.
    Returns y shaped as x and the state entering each block of ``block``
    steps, [ceil(L/T), P, N, C], written into ``y`` and ``carries`` if given.
    """
    q, *_, l, c = x.shape
    p = x.size // (l * c)
    # [Q, ..., L, K] -> [P, L, K], a view of the contiguous buffer
    xd, dd, bd, cd = (v.reshape(p, l, -1) for v in (x, delta, b, c_out))
    y_rows, carries = _stream_forward(xd, dd, np.repeat(a, p // q, axis=0), bd, cd,
                                      np.repeat(skip, p // q, axis=0), block,
                                      None if y is None else y.reshape(p, l, c), carries)
    return y_rows.reshape(x.shape), carries


def _stacked_scan_backward(grad, x, delta, a, b, c_out, skip, carries, block, g_x=None):
    """Gradients of every input of ``_stacked_scan`` for the output gradient
    ``grad``, each shaped as its input; A's and D's are summed back per path.
    x's is written into a contiguous ``g_x`` when given.

    Walks the blocks in reverse and recomputes each block's Abar, Bbar*x and
    h from ``carries`` with the forward's own functions, so bit-identical to
    the forward's states, then runs the reverse recurrence over the block.
    """
    q, *_, l, c = x.shape
    n = a.shape[-1]
    p = x.size // (l * c)
    reps = p // q
    xd, dd, bd, cd = (v.reshape(p, l, -1) for v in (x, delta, b, c_out))
    sd = np.repeat(skip, reps, axis=0)
    grad = grad.reshape(p, l, c)
    dtype = np.result_type(x, delta, a, b, c_out, skip)
    a_t = np.ascontiguousarray(np.repeat(a, reps, axis=0).transpose(0, 2, 1))
    spans = _spans(l, block)
    abuf, hbuf, gbuf = (np.empty((min(block, l), p, n, c), dtype=dtype) for _ in range(3))
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
        with _STEP_LOOPS:
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
    g_x = np.multiply(grad, sd[:, None, :], out=None if g_x is None else g_x.reshape(p, l, c))
    g_x += gbx_b * dd
    g_skip = (grad * xd).sum(axis=1)
    g_a = g_a.reshape(q, reps, n, c).sum(axis=1).transpose(0, 2, 1)
    g_skip = g_skip.reshape(q, reps, c).sum(axis=1)
    return (g_x.reshape(x.shape), g_delta.reshape(delta.shape), np.ascontiguousarray(g_a),
            g_b.reshape(b.shape), g_c.reshape(c_out.shape), g_skip)


# -- 2D cross scan --------------------------------------------------------------

def _paths(fmap: np.ndarray, pair: int | None = None) -> np.ndarray:
    """[..., H, W, C] -> [4, ..., H*W, C]: rows, columns, reversed rows,
    reversed columns; with ``pair`` k, paths 2k and 2k + 1 only."""
    *lead, _, _, c = fmap.shape
    rows = fmap.reshape(*lead, -1, c)
    cols = fmap.swapaxes(-3, -2).reshape(*lead, -1, c)
    paths = [rows, cols, rows[..., ::-1, :], cols[..., ::-1, :]]
    return np.stack(paths if pair is None else paths[2 * pair:2 * pair + 2])


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
    projections of the input.  Paths {0, 1} and {2, 3} are projected and
    scanned stacked, on two threads when two CPUs are available and the map
    is large enough, and the four restored outputs are summed.

    A forward records one op, "selective_scan", whose node keeps the input
    map, the seven parameters and the recurrence's block-entry states, and
    nothing of the four-path copy, the projections or delta: backward
    recomputes those from the map and the parameters.  It keeps the map as
    ``_keep`` gives it: after the block's SiLU, the SiLU's recompute, so no
    array of its own.
    """

    def __init__(self, rng: Rng, channels: int, n_state: int = 16):
        rngs = [rng.child(i) for i in range(4)]
        rank = dt_rank(channels)

        def per_path(stream, shape, draw, bound=None):
            # path i's slice is filled from rngs[i].child(stream)
            param = Tensor(np.empty((len(rngs), *shape), np.float32), requires_grad=True)
            for r, out in zip(rngs, param.data):
                schedule_fill(r.child(stream), out, draw, bound)
            return param

        self.a_log = Tensor(
            np.tile(np.log(np.arange(1, n_state + 1, dtype=np.float32)), (len(rngs), channels, 1)),
            requires_grad=True)
        self.skip = init_ones((len(rngs), channels))
        self.w_b = per_path(1, (channels, n_state), *trunc_normal_draw(0.02))
        self.w_c = per_path(2, (channels, n_state), *trunc_normal_draw(0.02))
        self.w_dt_down = per_path(3, (channels, rank), *trunc_normal_draw(0.02))
        bound = rank ** -0.5
        self.w_dt_up = per_path(4, (rank, channels), uniform_draw(-bound, bound))

        def dt_bias(r, n):
            # softplus(dt_bias) lands in [1e-3, 1e-1], log-uniform
            dt = np.exp(r.uniform(math.log(1e-3), math.log(1e-1), n))
            return np.log(np.expm1(dt))

        self.dt_bias = per_path(5, (channels,), dt_bias)

    def forward(self, fmap: Tensor) -> Tensor:
        """Runs the cross-scan, the projections, softplus, A = -exp(A_log) and
        the recurrence per path pair (``_forward_pair``), then the merge.  The
        cross-scan, the projections and exp are checked for non-finite values
        under those names; softplus of a finite value is finite, and a
        non-finite recurrence output leaves the merged sum non-finite, so
        record_op's check of that sum names both "selective_scan".  Backward
        adds the four contributions to the paths' gradient in the order scan,
        dt, B, C."""
        fm = fmap.data
        *lead, h, w, c = fm.shape
        params = (self.a_log, self.skip, self.w_b, self.w_c, self.w_dt_down, self.w_dt_up,
                  self.dt_bias)
        arrays = a_log, skip, w_b, w_c, w_down, w_up, dt_bias = tuple(t.data for t in params)
        block = SCAN_BLOCK
        dtype = np.result_type(fm, *arrays)
        y = np.empty((4, *lead, h * w, c), dtype)
        carries = np.empty((2, -(-h * w // block), 2 * math.prod(lead), a_log.shape[-1], c), dtype)
        threaded = fill_workers() >= 2 and fm.size * a_log.shape[-1] >= _THREAD_MIN_STATE
        _run_pairs(_forward_pair, threaded, fm, arrays, block, y, carries)
        fm_in = _keep(fmap)

        def backward(grad):
            # by name: perfbench's tracer counts the arrays among the closure's cells
            arrays = (a_log, skip, w_b, w_c, w_down, w_up, dt_bias)
            g_xs = np.empty((4, *lead, h * w, c), dtype)
            grads = [g_xs] + [np.empty(v.shape, dtype) for v in arrays]
            exp_a = np.exp(a_log)
            _run_pairs(_backward_pair, threaded, _kept(fm_in), grad, arrays, exp_a, carries,
                       block, grads)
            return (_merge(g_xs, h, w), -grads[1] * exp_a, *grads[2:])

        return record_op(_merge(y, h, w), (fmap,) + params, backward, "selective_scan")


def _run_pairs(pair_fn, threaded, *args):
    """``pair_fn(k, *args)`` for the path pairs k = 0, 1: with ``threaded``,
    pair 1 on a thread of its own, joined before this returns or raises; a
    failure of pair 0 is raised before one of pair 1."""
    if not threaded:
        pair_fn(0, *args)
        pair_fn(1, *args)
        return
    errstate = np.geterr()  # a new thread starts with numpy's defaults

    def second():
        with np.errstate(**errstate):
            pair_fn(1, *args)

    with ThreadPoolExecutor(max_workers=1) as pool:
        job = pool.submit(second)
        pair_fn(0, *args)
    job.result()


def _forward_pair(k, fm, arrays, block, y, carries):
    """SS2D's forward for paths 2k and 2k + 1 of ``fm``, with their slices of
    the stacked ``arrays``, into their slice of ``y`` and ``carries[k]``."""
    pair = slice(2 * k, 2 * k + 2)
    a_log, skip, w_b, w_c, w_down, w_up, dt_bias = (v[pair] for v in arrays)
    # path p of the stack is projected with path p of each parameter
    seqs = check_finite(_paths(fm, k), "cross_scan")
    dt_low = check_finite(_linear(seqs, w_down), "linear")
    delta = _softplus(check_finite(_linear(dt_low, w_up, dt_bias), "linear"))
    a = -check_finite(np.exp(a_log), "exp")
    b = check_finite(_linear(seqs, w_b), "linear")
    c_out = check_finite(_linear(seqs, w_c), "linear")
    _stacked_scan(seqs, delta, a, b, c_out, skip, block, y[pair], carries[k])


def _backward_pair(k, fm, grad, arrays, exp_a, carries, block, grads):
    """SS2D's backward for paths 2k and 2k + 1, from the map ``fm`` and
    ``carries[k]``, into their slices of ``grads``: the paths' gradient, then
    the parameters' in ``arrays`` order, with A's in place of A_log's."""
    pair = slice(2 * k, 2 * k + 2)
    _, skip, w_b, w_c, w_down, w_up, dt_bias = (v[pair] for v in arrays)
    g_xs, g_a, g_skip, g_w_b, g_w_c, g_down, g_up, g_dt_bias = (g[pair] for g in grads)
    xs = _paths(fm, k)
    low = _linear(xs, w_down)
    pre = _linear(low, w_up, dt_bias)
    _, g_delta, g_a[...], g_b, g_c, g_skip[...] = _stacked_scan_backward(
        _paths(grad, k), xs, _softplus(pre), -exp_a[pair], _linear(xs, w_b), _linear(xs, w_c),
        skip, carries[k], block, g_xs)
    g_pre = g_delta * _sigmoid(pre)
    g_low, g_up[...] = _linear_grads(g_pre, low, w_up)
    g_dt_bias[...] = g_pre.reshape(len(dt_bias), -1, dt_bias.shape[-1]).sum(axis=-2)
    for g_out, weight, g_weight in ((g_low, w_down, g_down), (g_b, w_b, g_w_b),
                                    (g_c, w_c, g_w_c)):
        g_xs_in, g_weight[...] = _linear_grads(g_out, xs, weight)
        g_xs += g_xs_in


def _linear_grads(grad, x, weight):
    """The input and weight gradients of ``tensor._linear``'s stacked form,
    x [P, ..., K] by a path-stacked weight [P, K, M]."""
    p, k, m = weight.shape
    g3 = grad.reshape(p, -1, m)
    gx = (g3 @ weight.swapaxes(-1, -2)).reshape(x.shape)
    return gx, x.reshape(p, -1, k).swapaxes(-1, -2) @ g3
