"""Dense-tensor engine with reverse-mode automatic differentiation.

numpy owns the buffers.  A tensor is its data plus, when it takes part in
differentiation, a graph node.  A recorded op's node holds the op's
gradient, its parents' nodes, its backward closure and its name, never its
output array; each closure captures exactly the arrays, shapes and flags its
backward reads.  So an activation that no backward reads is freed as soon as
the forward code drops it, and one that a backward reads lives until that
backward has run.  ``Tensor.backward()`` replays the recorded graph in
reverse topological order, exactly once per forward recording, and releases
it as it walks: a node that no tensor the caller holds refers to is freed,
with its closure and gradient, once its parents have their gradients.
Every gradient, a parameter's included, starts as None and takes an owned
copy of the first contribution it receives; a tensor that the walk never
reaches keeps None.  Buffers are row-major contiguous; reshapes and
transposes copy.
Feature maps are channels-last [..., H, W, C], any leading shape being a
batch of maps (a single map has the leading shape ()): the convolutions pad
and slide over H and W only, and linear acts on the trailing axis.  Layer
norm and batch norm are one op, ``normalize``, over the trailing axis or
over (H, W) of each map; it is differentiated analytically rather than
through a composition of primitives.

Training runs in float32, gradient checking in float64.  On glibc, importing
the engine sets the heap to keep freed memory mapped (``_keep_freed_heap``):
a training step frees and reallocates the same activation sizes every step,
and by default glibc returns them to the kernel and faults them in again.
"""

from __future__ import annotations

import ctypes
import math
import os
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

__all__ = [
    "Tensor", "NonFiniteError", "no_grad", "record_op", "constant",
    "linear", "depthwise_conv2d", "merge_kernels", "conv2d",
    "normalize", "softmax_channels",
    "relu", "silu", "gelu", "softplus", "exp", "log",
    "tsum", "tmean", "reshape", "transpose",
    "Module", "Rng", "finite_diff_grad_check",
]


def _keep_freed_heap():
    """Let glibc keep the memory a training step frees for the next step.

    By default glibc serves blocks above a dynamic threshold with their own
    mmap and unmaps them on free, and trims the top of the heap back to the
    kernel, so every step faults its activation pages in again.  The mmap
    threshold goes to the ceiling that the dynamic threshold climbs to
    (4 MiB times sizeof(long): 32 MiB on 64-bit) and the trim threshold to
    1 GiB, which keeps those pages mapped for reuse.  Setting either value
    turns the dynamic threshold off, hence both.  Anywhere but glibc this
    does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (AttributeError, OSError, ValueError):
        # no os.confstr, a libc without that name or without mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long))
    mallopt(m_trim_threshold, 1 << 30)


_keep_freed_heap()


class NonFiniteError(ArithmeticError):
    """A forward op produced NaN or Inf (aborts the step)."""


_finite_checks = True
_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / oracles)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def finite_checks(enabled: bool):
    global _finite_checks
    prev = _finite_checks
    _finite_checks = enabled
    try:
        yield
    finally:
        _finite_checks = prev


def _as_array(data, dtype=None):
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return np.ascontiguousarray(arr)


class _Node:
    """A tensor's place on the graph: its gradient and the dtype it takes,
    and for a recorded op the parents' nodes (None for a parent that needs no
    gradient), the backward closure and the op name.  A leaf that requires a
    gradient has a node with no parents.  No node holds its tensor's data."""

    def __init__(self, dtype, parents=(), backward=None, op=""):
        self.grad = None
        self.dtype = dtype
        self.parents = parents
        self.backward = backward
        self.op = op
        self.released = False


class Tensor:
    """N-dimensional float array, optionally recorded on the autodiff graph."""

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        self._data = _as_array(data, dtype)
        self._node = _Node(self._data.dtype) if requires_grad else None

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value):
        # the gradient follows a replaced array's dtype: gradient checks cast
        # parameters to float64 after construction
        self._data = value
        if self._node is not None:
            self._node.dtype = value.dtype

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        if self._node is None:
            if value is not None:
                raise AttributeError("a tensor that does not require a gradient holds none")
            return
        self._node.grad = value

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # -- backward ------------------------------------------------------------

    def backward(self):
        """Accumulate gradients of this scalar into every reachable input.

        One pass per recording: the graph is released as it is walked and a
        second pass raises.  The walk runs over nodes, which hold gradients
        and closures but no data; each closure has kept only the arrays it
        reads.  Each node is dropped once its closure has run, so a node that
        no tensor the caller holds refers to is freed, with its closure and
        gradient, as soon as its parents have their gradients; tensors the
        caller holds keep ``.grad``.  A gradient that is None, as every
        parameter's is after ``Module.zero_grad``, becomes an owned copy of its
        first contribution in the dtype of its tensor's data, and later ones
        add into it; a tensor this one does not reach keeps the gradient it
        had.  A tensor that requires no gradient has nothing to walk.
        """
        if self.data.size != 1:
            raise ValueError("backward target must be a scalar")
        root = self._node
        if root is None:
            return
        if root.released:
            raise RuntimeError("backward already consumed this graph; rerun the forward pass")

        topo = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            if node.released:
                raise RuntimeError("graph contains nodes from an already-consumed recording")
            stack.append((node, True))
            for parent in node.parents:
                if parent is not None and id(parent) not in visited:
                    stack.append((parent, False))

        root.grad = np.ones_like(self.data)
        while topo:
            # popped, so that once its consumers have run nothing but the
            # caller's tensor refers to a node: its closure and gradient go with it
            node = topo.pop()
            if node.backward is None:
                continue
            grads = node.backward(node.grad)
            for parent, g in zip(node.parents, grads):
                if g is None or parent is None:
                    continue
                if parent.grad is None:
                    # an owned copy: add hands one array to both parents and
                    # reshape a view of its child's gradient
                    parent.grad = np.array(g, dtype=parent.dtype)
                else:
                    parent.grad += g.astype(parent.dtype, copy=False)
            node.backward = None
            node.parents = ()
            node.released = True

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_coerce(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)


def constant(data, like: Tensor | None = None) -> Tensor:
    """A non-recorded tensor, dtype-matched to ``like`` when given."""
    dtype = like.data.dtype if like is not None else None
    return Tensor(data, dtype=dtype)


def _coerce(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def record_op(out_data, parents, backward_fn, name: str) -> Tensor:
    """Create the output tensor of an op, recording ``backward_fn`` when needed.

    ``backward_fn(grad)`` must return one gradient array (or None) per parent.
    It should capture only what it reads, never a parent tensor for its
    shape or flag: whatever it holds lives until its backward has run.
    Every forward result is checked for non-finite values.
    """
    if _finite_checks and not np.isfinite(out_data).all():
        raise NonFiniteError(f"op '{name}' produced non-finite values")
    out = Tensor(out_data)
    if _grad_enabled:
        nodes = tuple(p._node for p in parents)
        if any(node is not None for node in nodes):
            out._node = _Node(out.data.dtype, nodes, backward_fn, name)
    return out


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _add_into(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b, written into ``a`` when the sum has a's dtype and shape: for a
    fresh result that nothing else holds, the same values with no temporary."""
    if np.result_type(a, b) == a.dtype and np.broadcast_shapes(a.shape, b.shape) == a.shape:
        return np.add(a, b, out=a)
    return a + b


# -- elementwise primitives ---------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out = a.data + b.data
    a_shape, b_shape, a_grad, b_grad = a.shape, b.shape, a.requires_grad, b.requires_grad

    def backward(grad):
        return (_unbroadcast(grad, a_shape) if a_grad else None,
                _unbroadcast(grad, b_shape) if b_grad else None)

    return record_op(out, (a, b), backward, "add")


def sub(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out = a.data - b.data
    a_shape, b_shape, a_grad, b_grad = a.shape, b.shape, a.requires_grad, b.requires_grad

    def backward(grad):
        return (_unbroadcast(grad, a_shape) if a_grad else None,
                _unbroadcast(-grad, b_shape) if b_grad else None)

    return record_op(out, (a, b), backward, "sub")


def neg(a: Tensor) -> Tensor:
    def backward(grad):
        return (-grad,)

    return record_op(-a.data, (a,), backward, "neg")


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out = a.data * b.data
    a_shape, b_shape = a.shape, b.shape
    # each operand is read only for the other's gradient
    a_in = a.data if b.requires_grad else None
    b_in = b.data if a.requires_grad else None

    def backward(grad):
        return (_unbroadcast(grad * b_in, a_shape) if b_in is not None else None,
                _unbroadcast(grad * a_in, b_shape) if a_in is not None else None)

    return record_op(out, (a, b), backward, "mul")


def div(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    a_in, b_in = a.data, b.data
    out = a_in / b_in

    def backward(grad):
        ga = grad / b_in
        gb = -grad * a_in / (b_in * b_in)
        return _unbroadcast(ga, a_in.shape), _unbroadcast(gb, b_in.shape)

    return record_op(out, (a, b), backward, "div")


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def backward(grad):
        return (grad * out,)

    return record_op(out, (a,), backward, "exp")


def log(a: Tensor) -> Tensor:
    a_in = a.data
    out = np.log(a_in)

    def backward(grad):
        return (grad / a_in,)

    return record_op(out, (a,), backward, "log")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) from e^-|x|, which cannot overflow."""
    s = 1.0 / (1.0 + np.exp(-np.abs(x)))
    return np.where(x >= 0, s, 1.0 - s)


def softplus(a: Tensor) -> Tensor:
    # log(1 + e^x), stable for large |x|
    a_in = a.data
    out = np.maximum(a_in, 0.0) + np.log1p(np.exp(-np.abs(a_in)))

    def backward(grad):
        # d/dx softplus = sigmoid(x), formed only when a gradient is asked for
        return (grad * _sigmoid(a_in),)

    return record_op(out, (a,), backward, "softplus")


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def backward(grad):
        # out > 0 exactly where a > 0, so the input need not be kept
        return (grad * (out > 0),)

    return record_op(out, (a,), backward, "relu")


def silu(a: Tensor) -> Tensor:
    a_in = a.data
    sig = _sigmoid(a_in)
    out = a_in * sig

    def backward(grad):
        return (grad * (sig + a_in * sig * (1.0 - sig)),)

    return record_op(out, (a,), backward, "silu")


def gelu(a: Tensor) -> Tensor:
    # exact Gaussian-CDF form: x * Phi(x), no tanh approximation
    a_in = a.data
    phi_cdf = 0.5 * (1.0 + special.erf(a_in / math.sqrt(2.0)))
    out = a_in * phi_cdf

    def backward(grad):
        pdf = np.exp(-0.5 * a_in * a_in) / math.sqrt(2.0 * math.pi)
        return (grad * (phi_cdf + a_in * pdf),)

    return record_op(out, (a,), backward, "gelu")


# -- reductions / shape ops ----------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    in_shape = a.shape

    def backward(grad):
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return record_op(np.asarray(out), (a,), backward, "sum")


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.data.shape[ax]
    return mul(tsum(a, axis, keepdims), 1.0 / count)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = np.ascontiguousarray(a.data.reshape(shape))
    in_shape = a.shape

    def backward(grad):
        return (grad.reshape(in_shape),)

    return record_op(out, (a,), backward, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = np.ascontiguousarray(a.data.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def backward(grad):
        return (np.ascontiguousarray(grad.transpose(inverse)),)

    return record_op(out, (a,), backward, "transpose")


# -- neural-net primitives ------------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """y[..., j] = sum_i x[..., i] * W[i, j] + b[j].

    A weight [P, K, M] with a leading path axis maps a stacked input
    [P, ..., K] path by path, with bias [P, M]: y[p] = x[p] @ W[p] + b[p].
    """
    paths = weight.data.shape[:-2]
    k, m = weight.data.shape[-2:]
    if x.data.shape[-1] != k:
        raise ValueError(f"linear: trailing extent {x.data.shape[-1]} != weight rows {k}")
    if paths and (x.data.ndim < 2 or x.data.shape[0] != paths[0]):
        raise ValueError(f"linear: weight {weight.data.shape} needs input [{paths[0]}, ..., {k}], "
                         f"got {x.data.shape}")
    x3 = x.data.reshape(paths + (-1, k))
    out3 = x3 @ weight.data
    if bias is not None:
        out3 = _add_into(out3, bias.data[..., None, :])
    out = out3.reshape(x.data.shape[:-1] + (m,))
    x_shape, has_bias = x.shape, bias is not None
    # x is read only for the weight's gradient and the weight only for x's
    x_in = x3 if weight.requires_grad else None
    w_in = weight.data if x.requires_grad else None
    b_grad = has_bias and bias.requires_grad

    def backward(grad):
        g3 = grad.reshape(paths + (-1, m))
        gx = (g3 @ w_in.swapaxes(-1, -2)).reshape(x_shape) if w_in is not None else None
        gw = x_in.swapaxes(-1, -2) @ g3 if x_in is not None else None
        gb = g3.sum(axis=-2) if b_grad else None
        return (gx, gw, gb) if has_bias else (gx, gw)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return record_op(np.ascontiguousarray(out), parents, backward, "linear")


def _maps(x: np.ndarray, name: str) -> np.ndarray:
    """View [..., H, W, C] maps as one [B, H, W, C] stack (B = 1 for a
    single map)."""
    if x.ndim < 3:
        raise ValueError(f"{name}: expected [..., H, W, C] maps, got {x.shape}")
    return x.reshape((-1,) + x.shape[-3:])


def _windows(x4: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Zero-pad [B, H, W, C] maps by (kh // 2, kw // 2) over H and W and view
    every output pixel's kh x kw neighbourhood: [B, H, W, C, kh, kw], no copy
    beyond the padding."""
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x4, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    return sliding_window_view(xp, (kh, kw), axis=(1, 2))


def depthwise_conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel 2D cross-correlation with 'same' zero padding.

    x: [..., H, W, C], kernel: [C, kh, kw] with odd kh, kw.  Only H and W
    are padded; every leading index is a separate map.  The output, the
    input gradient and the kernel gradient are one einsum each over the
    sliding windows of the padded maps, one pass with no per-tap
    temporaries.  The kernel enters as [kh, kw, C], so each tap's channel
    row is contiguous, as is the maps' trailing axis.
    """
    x4 = _maps(x.data, "depthwise_conv2d")
    c = x4.shape[-1]
    kc, kh, kw = kernel.data.shape
    if kc != c:
        raise ValueError(f"depthwise_conv2d: channel mismatch {kc} != {c}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("depthwise_conv2d: kernel extents must be odd")
    taps = np.ascontiguousarray(kernel.data.transpose(1, 2, 0))
    out = np.einsum("bhwcij,ijc->bhwc", _windows(x4, kh, kw), taps)
    x_shape = x.shape

    def backward(grad):
        g4 = grad.reshape(x4.shape)
        # x is padded again rather than kept padded by the closure
        gk = np.einsum("bhwcij,bhwc->cij", _windows(x4, kh, kw), g4)
        # the input gradient correlates grad with the kernel flipped in H and W
        gx = np.einsum("bhwcij,ijc->bhwc", _windows(g4, kh, kw), taps[::-1, ::-1])
        return (gx.reshape(x_shape), gk)

    return record_op(out.reshape(x.data.shape), (x, kernel), backward, "depthwise_conv2d")


def merge_kernels(kernels) -> Tensor:
    """One depthwise kernel for x + sum_i conv(x, k_i): the [C, k, k] kernels
    of odd sizes k, each zero-padded to the largest size K and centred, are
    summed into one [C, K, K] kernel with 1 added at the centre tap for x
    itself.  Backward hands each kernel the centre crop of its size."""
    kernels = tuple(kernels)
    c = kernels[0].data.shape[0]
    size = max(k.data.shape[-1] for k in kernels)
    mid = size // 2
    out = np.zeros((c, size, size), dtype=np.result_type(*(k.data for k in kernels)))
    out[:, mid, mid] = 1.0
    crops = []
    for k in kernels:
        kc, kh, kw = k.data.shape
        if kc != c or kh != kw or kh % 2 == 0:
            raise ValueError(f"merge_kernels: expected odd square [{c}, k, k] kernels, got {k.data.shape}")
        taps = slice(mid - kh // 2, mid + kh // 2 + 1)
        crop = (slice(None), taps, taps)
        out[crop] += k.data
        crops.append(crop)

    def backward(grad):
        return tuple(grad[crop] for crop in crops)

    return record_op(out, kernels, backward, "merge_kernels")


def conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Full 2D cross-correlation with 'same' zero padding.

    x: [..., H, W, Cin], weight: [Cout, Cin, kh, kw] with odd kh, kw.  Only
    H and W are padded; every leading index is a separate map.
    """
    cout, cin, kh, kw = weight.data.shape
    x4 = _maps(x.data, "conv2d")
    if x4.shape[-1] != cin:
        raise ValueError(f"conv2d: channel mismatch {x4.shape[-1]} != {cin}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("conv2d: kernel extents must be odd")
    bsz, h, w, _ = x4.shape
    ph, pw = kh // 2, kw // 2
    pad = ((0, 0), (ph, ph), (pw, pw), (0, 0))
    xp = np.pad(x4, pad)
    out = np.zeros((bsz, h, w, cout), dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            out += np.tensordot(xp[:, i:i + h, j:j + w], weight.data[:, :, i, j], axes=([3], [1]))
    out += bias.data
    x_shape, maps_shape = x.shape, x4.shape
    out_shape = x_shape[:-1] + (cout,)
    wd = weight.data

    def backward(grad):
        g4 = grad.reshape((bsz, h, w, cout))
        gw = np.empty_like(wd)
        for i in range(kh):
            for j in range(kw):
                gw[:, :, i, j] = np.tensordot(g4, xp[:, i:i + h, j:j + w],
                                              axes=([0, 1, 2], [0, 1, 2]))
        gp = np.pad(g4, pad)
        gx = np.zeros(maps_shape, dtype=xp.dtype)
        for i in range(kh):
            for j in range(kw):
                gx += np.tensordot(gp[:, kh - 1 - i:kh - 1 - i + h, kw - 1 - j:kw - 1 - j + w],
                                   wd[:, :, i, j], axes=([3], [0]))
        return gx.reshape(x_shape), gw, g4.sum(axis=(0, 1, 2))

    return record_op(out.reshape(out_shape), (x, weight, bias), backward, "conv2d")


# variance offset of every layer and batch norm
NORM_EPS = 1e-5


def normalize(x: Tensor, gamma: Tensor, beta: Tensor, axes) -> Tensor:
    """(x - mean) / sqrt(var + NORM_EPS) over ``axes``, then scale by gamma and
    shift by beta.  Layer norm reduces over the trailing channel axis, batch
    norm over (H, W), axes (-3, -2), of each [..., H, W, C] map; a map of
    one element along ``axes`` normalizes to exactly zero, so its output is
    beta.

    One recorded op.  The backward keeps only x_hat and sigma: with
    g' = grad * gamma, dx = (g' - mean(g') - x_hat * mean(g' * x_hat)) / sigma
    over ``axes`` (Ba et al. 2016; Ioffe & Szegedy 2015).
    """
    axes = (axes,) if isinstance(axes, int) else tuple(axes)
    count = math.prod(x.data.shape[ax] for ax in axes)
    if count == 0:
        raise ValueError(f"normalize: empty extent along axes {axes} of {x.data.shape}")
    # sums times 1/count in x's dtype, as tmean rounds: the forward values are
    # bit-identical to the composition of primitives this op replaced
    inv_count = np.asarray(1.0 / count, dtype=x.data.dtype)
    xc = x.data - x.data.sum(axis=axes, keepdims=True) * inv_count
    var = (xc * xc).sum(axis=axes, keepdims=True) * inv_count
    sigma = np.sqrt(var + np.asarray(NORM_EPS, dtype=var.dtype))
    # x_hat takes xc's buffer, and the output adds beta into gamma * x_hat
    x_hat = np.divide(xc, sigma, out=xc)
    gamma_in, beta_shape = gamma.data, beta.shape
    out = _add_into(x_hat * gamma_in, beta.data)

    def backward(grad):
        g = grad * gamma_in
        gx = (g - g.mean(axis=axes, keepdims=True)
              - x_hat * (g * x_hat).mean(axis=axes, keepdims=True)) / sigma
        return (gx, _unbroadcast(grad * x_hat, gamma_in.shape),
                _unbroadcast(grad, beta_shape))

    return record_op(out, (x, gamma, beta), backward, "normalize")


def softmax_channels(x: Tensor) -> Tensor:
    """Probabilities over the class extent of [..., K, H, W] logits (axis -3),
    stabilized by max-subtraction."""
    shift = x.data.max(axis=-3, keepdims=True)
    e = exp(x - constant(shift, like=x))
    return div(e, tsum(e, axis=-3, keepdims=True))


# -- module / parameter plumbing -------------------------------------------------

class Module:
    """Minimal parameter container: attributes that are Tensors with
    requires_grad, Modules, or lists of Modules are tracked automatically."""

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def named_parameters(self, prefix: str = ""):
        for name, value in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield key, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{key}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{key}.{i}.")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def zero_grad(self):
        """Drop every parameter's gradient; the next backward starts it afresh."""
        for p in self.parameters():
            p.grad = None


# -- deterministic random streams -------------------------------------------------

def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class Rng:
    """Deterministic counter-based generator (Philox) behind a 64-bit seed.

    The same seed and call sequence reproduce the same stream; ``child(i)``
    derives an independent stream so per-sample randomness does not depend on
    iteration order.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def child(self, index: int) -> "Rng":
        return Rng(_splitmix64(self.seed ^ _splitmix64(index + 1)))

    def random(self, shape=None):
        return self._gen.random(shape)

    def uniform(self, low: float, high: float, shape=None):
        return self._gen.uniform(low, high, shape)

    def normal(self, shape=None, mean: float = 0.0, std: float = 1.0):
        return self._gen.normal(mean, std, shape)

    def integers(self, low: int, high: int, shape=None):
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int):
        return self._gen.permutation(n)

    def trunc_normal(self, shape, std: float = 1.0):
        """Normal samples rejected outside two standard deviations."""
        out = self._gen.normal(0.0, std, shape)
        bad = np.abs(out) > 2.0 * std
        while bad.any():
            out[bad] = self._gen.normal(0.0, std, int(bad.sum()))
            bad = np.abs(out) > 2.0 * std
        return out


# -- parameter initializers --------------------------------------------------------

def init_trunc_normal(rng: Rng, shape, std: float = 0.02) -> Tensor:
    return Tensor(rng.trunc_normal(shape, std).astype(np.float32), requires_grad=True)


def init_kaiming_uniform(rng: Rng, shape, fan_in: int) -> Tensor:
    bound = math.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, shape).astype(np.float32), requires_grad=True)


def init_zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)


def init_ones(shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)


# -- gradient checking ---------------------------------------------------------------

def finite_diff_grad_check(fn, inputs, max_coords: int | None = None,
                           rng: Rng | None = None, retry_threshold: float | None = None) -> float:
    """Compare recorded gradients against central finite differences.

    ``fn(*inputs)`` must be a pure scalar-valued function of the given
    tensors (float64 recommended).  Returns the worst relative error
    max |g_ad - g_fd| / max(1, |g_fd|) over the checked coordinates;
    ``max_coords`` limits the number of coordinates checked per tensor
    (deterministically sampled when ``rng`` is given).

    ``retry_threshold``: coordinates exceeding it are re-estimated at a
    quarter step; when the two difference quotients disagree the function is
    locally nonsmooth there (a ReLU kink inside the step) and the coordinate
    is skipped.  A wrong backward rule produces step-stable quotients, so it
    still fails the check.
    """
    loss = fn(*inputs)
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ValueError("finite_diff_grad_check: fn must return a scalar Tensor")
    for t in inputs:
        t.grad = None
    loss.backward()
    # an input the loss does not depend on is never reached: its gradient is zero
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad for t in inputs]

    def central_diff(flat, i, h):
        orig = flat[i]
        with no_grad():
            flat[i] = orig + h
            f_plus = float(fn(*inputs).data.reshape(()))
            flat[i] = orig - h
            f_minus = float(fn(*inputs).data.reshape(()))
        flat[i] = orig
        return (f_plus - f_minus) / (2.0 * h)

    step = 1e-5
    worst = 0.0
    for t, g_ad in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            picker = rng if rng is not None else Rng(0)
            coords = np.sort(picker.permutation(flat.size)[:max_coords])
        g_flat = g_ad.reshape(-1)
        for i in coords:
            g_fd = central_diff(flat, i, step)
            err = abs(g_flat[i] - g_fd) / max(1.0, abs(g_fd))
            if retry_threshold is not None and err > retry_threshold:
                g_fd2 = central_diff(flat, i, step / 4.0)
                if abs(g_fd2 - g_fd) > 0.05 * max(1.0, abs(g_fd), abs(g_fd2)):
                    continue  # nonsmooth within the step; fd is unreliable here
                err = min(err, abs(g_flat[i] - g_fd2) / max(1.0, abs(g_fd2)))
            if err > worst:
                worst = err
    return worst
