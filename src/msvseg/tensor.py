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
Every gradient, a parameter's included, starts as None and takes the first
contribution it receives, without a copy when nothing else can hold that
array; a tensor that the walk never reaches keeps None.  The outputs of
normalize, gelu, silu and relu are formed again in their consumers'
backward (``Tensor._remat``) rather than kept.  Buffers are row-major
contiguous; reshapes and transposes copy.
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
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Tensor", "NonFiniteError", "no_grad", "check_finite", "record_op", "constant",
    "linear", "depthwise_conv2d", "merge_kernels", "conv2d",
    "normalize", "softmax_channels",
    "relu", "silu", "gelu", "exp", "log",
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
    turns the dynamic threshold off, hence both.  The arena count goes to
    one: the threads that draw the initial parameters (``PendingFills.run``)
    would otherwise each take an arena of their own, whose scratch the trim
    threshold then keeps mapped for the life of the process although the
    main thread never allocates from it again.  Anywhere but glibc this
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
    m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8
    mallopt(m_mmap_threshold, 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long))
    mallopt(m_trim_threshold, 1 << 30)
    mallopt(m_arena_max, 1)


_keep_freed_heap()


class NonFiniteError(ArithmeticError):
    """A forward op produced NaN or Inf (aborts the step)."""


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
    """N-dimensional float array, optionally recorded on the autodiff graph.

    ``_remat``, when set, is a zero-argument function that forms ``data``
    again, bit for bit, from arrays its producer's backward keeps anyway.
    ``normalize``, ``gelu``, ``silu`` and ``relu`` set it when they record a
    node, and the ops that read such an input in their backward keep the
    function rather than the array (``_keep``).  A tensor the caller holds
    keeps what its recompute reads.
    """

    _remat = None

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
        parameter's is after ``Module.zero_grad``, takes its first
        contribution in the dtype of its tensor's data, and later ones add
        into it: the contribution itself when nothing else can hold it
        (``_adoptable``), an owned copy otherwise.  A tensor this one does not
        reach keeps the gradient it had.  A tensor that requires no gradient
        has nothing to walk.  No backward closure returns an array it keeps.
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
            handed = set()
            for parent, g in zip(node.parents, grads):
                if g is None or parent is None:
                    continue
                if parent.grad is None:
                    if _adoptable(g, parent.dtype, node.grad, handed):
                        parent.grad = g
                    else:
                        # an owned copy: add hands its own gradient to both
                        # parents and reshape a view of it
                        parent.grad = np.array(g, dtype=parent.dtype)
                else:
                    parent.grad += g.astype(parent.dtype, copy=False)
                handed.add(id(g))
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


def _adoptable(g, dtype, own_grad, handed) -> bool:
    """Whether a parent may take the contribution ``g`` of a node whose
    gradient is ``own_grad`` as its gradient without a copy: ``g`` owns its
    buffer, so it is no view of a gradient or of a kept array, it has the
    parent's dtype, it is not the node's own gradient, and its id is not in
    ``handed``, the contributions already given to the node's other
    parents."""
    return (isinstance(g, np.ndarray) and g.base is None and g.dtype == dtype
            and g is not own_grad and id(g) not in handed)


def constant(data, like: Tensor | None = None) -> Tensor:
    """A non-recorded tensor, dtype-matched to ``like`` when given."""
    dtype = like.data.dtype if like is not None else None
    return Tensor(data, dtype=dtype)


def _coerce(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def check_finite(data: np.ndarray, name: str) -> np.ndarray:
    """``data``, after raising NonFiniteError naming op ``name`` if it holds
    NaN or Inf."""
    if not np.isfinite(data).all():
        raise NonFiniteError(f"op '{name}' produced non-finite values")
    return data


def record_op(out_data, parents, backward_fn, name: str) -> Tensor:
    """Create the output tensor of an op, recording ``backward_fn`` when needed.

    ``backward_fn(grad)`` must return one gradient array (or None) per parent.
    It should capture only what it reads, never a parent tensor for its
    shape or flag: whatever it holds lives until its backward has run.
    Every forward result is checked for non-finite values.
    """
    out = Tensor(check_finite(out_data, name))
    if _grad_enabled:
        nodes = tuple(p._node for p in parents)
        if any(node is not None for node in nodes):
            out._node = _Node(out.data.dtype, nodes, backward_fn, name)
    return out


def _set_remat(out: Tensor, remat) -> Tensor:
    """``out`` with its recompute set when a node was recorded for it; under
    ``no_grad``, or with no parent on the graph, nothing reads it."""
    if out._node is not None:
        out._remat = remat
    return out


def _keep(t: Tensor):
    """What a backward keeps to read ``t``'s data: the recompute its producer
    set, which holds no array of its own, or else the array."""
    return t.data if t._remat is None else t._remat


def _kept(held) -> np.ndarray:
    """The array that ``_keep`` returned ``held`` for, formed again if need be."""
    return held() if callable(held) else held


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
    """1 / (1 + e^-x) from s = 1 / (1 + e^-|x|), which cannot overflow: s
    where x >= 0, else 1 - s, formed in one buffer as 0.5 + copysign(s - 0.5,
    x).  s lies in [0.5, 1], so s - 0.5 is exact, 0.5 + (s - 0.5) is s and
    0.5 - (s - 0.5) rounds the same real number as 1 - s: the bits of the
    select, without its per-element branch (x = -0.0 gives s = 0.5 either
    way)."""
    s = np.abs(x, out=np.empty_like(x))
    np.negative(s, out=s)
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    s -= 0.5
    np.copysign(s, x, out=s)
    s += 0.5
    return s


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) as max(x, 0) + log1p(e^-|x|), stable for large |x|; the
    second term is formed in place in one buffer."""
    out = np.abs(x, out=np.empty_like(x))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def relu(a: Tensor) -> Tensor:
    """max(x, 0).  Keeps what ``_keep`` gives for its input: after a norm,
    the norm's recompute, so no array of its own.  The backward's mask is
    x > 0, which holds exactly where the output is positive; the recompute
    clips the input, in place when the input is itself recomputed."""
    src = _keep(a)
    out = np.maximum(a.data, 0.0)

    def backward(grad):
        return (grad * (_kept(src) > 0),)

    def remat():
        x = _kept(src)
        # a recomputed input is a fresh array that nothing else reads
        return np.maximum(x, 0.0, out=x) if callable(src) else np.maximum(x, 0.0)

    return _set_remat(record_op(out, (a,), backward, "relu"), remat)


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x).  Keeps only its input.  The recompute hands its
    sigmoid to the backward, which forms it only when no recompute ran, and
    builds grad * (sig + out * (1 - sig)) with out = x * sig in place in
    one buffer, in the order that expression rounds in."""
    a_in = a.data
    out = a_in * _sigmoid(a_in)
    sig_box = []  # the sigmoid the recompute formed, until the backward takes it

    def backward(grad):
        sig = sig_box.pop() if sig_box else _sigmoid(a_in)
        d = np.multiply(a_in, sig)
        d *= 1.0 - sig
        d += sig
        d *= grad
        return (d,)

    def remat():
        sig_box[:] = [_sigmoid(a_in)]
        return a_in * sig_box[0]

    return _set_remat(record_op(out, (a,), backward, "silu"), remat)


# Cody's rational Chebyshev forms of erf as Cephes writes them (ndtr.c):
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and 1 - e^-x^2 P(x) / Q(x) above.
# Coefficients run from the highest power down; U and Q are monic, and their
# leading 1 is left out, as p1evl leaves it out.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERF_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
          4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERF_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
          9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
          1.65666309194161350182E3, 5.57535340817727675546E2)
_ERF_CHUNK = 1 << 15    # values per float64 pass of _erf: each scratch row is 256 KiB


def _horner(x: np.ndarray, coeffs, monic: bool = False, out: np.ndarray | None = None):
    """The polynomial at x by Horner's rule, rounding as Cephes's polevl
    does, or as p1evl does for a ``monic`` one."""
    if monic:  # (x + c0) x + c1 ...
        y = np.add(x, coeffs[0], out=out)
        rest = coeffs[1:]
    else:  # (c0 x + c1) x + c2 ...
        y = np.multiply(x, coeffs[0], out=out)
        y += coeffs[1]
        rest = coeffs[2:]
    for c in rest:
        y *= x
        y += c
    return y


def _erf(v: np.ndarray) -> np.ndarray:
    """erf of each value of the C-contiguous float array v, in place.

    Cephes's erf, the one scipy.special.erf evaluates, written in numpy: in
    float64, ``_ERF_CHUNK`` values at a time in three scratch rows.
    x T(x^2) / U(x^2) runs on every value with x clipped to [-1, 1], so x^2
    cannot overflow; 1 - e^-x^2 P(|x|) / Q(|x|), with the sign copied back,
    runs only on the values beyond 1, with |x| clipped at 8, where it rounds
    to 1 as Cephes's forms for |x| >= 8 do.  Negating x negates each product
    and quotient exactly, so the odd form needs no sign step.  float32
    results are bit for bit scipy's; float64 ones differ by at most 1 ulp,
    where numpy's exp and the C library's differ.  No input overflows or is
    invalid; underflow (x^2 or erf(x) below the normal range) is ignored.
    """
    flat = v.reshape(-1)
    scratch = np.empty((3, min(flat.size, _ERF_CHUNK)))
    with np.errstate(under="ignore"):
        for start in range(0, flat.size, _ERF_CHUNK):
            chunk = flat[start:start + _ERF_CHUNK]
            m, z, y = scratch[:, :chunk.size]
            np.clip(chunk, -1.0, 1.0, out=m)
            np.multiply(m, m, out=z)
            _horner(z, _ERF_T, out=y)
            y *= m
            y /= _horner(z, _ERF_U, monic=True, out=m)
            big = np.flatnonzero(np.abs(chunk) > 1.0)
            if big.size:
                x = chunk[big]
                b = np.minimum(np.abs(x, dtype=np.float64), 8.0)
                e = np.multiply(b, -b)
                np.exp(e, out=e)
                e *= _horner(b, _ERF_P)
                e /= _horner(b, _ERF_Q, monic=True)
                np.subtract(1.0, e, out=e)
                y[big] = np.copysign(e, x, out=e)
            chunk[...] = y
    return v


def _gauss_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt(2))), each step in place in one
    buffer, erf by the engine's own ``_erf``."""
    phi = np.divide(x, math.sqrt(2.0), order="C")
    _erf(phi)
    phi += 1.0
    phi *= 0.5
    return phi


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x), the exact Gaussian-CDF form, no tanh approximation.

    Keeps only its input.  Phi is formed again by the forward's own steps
    (``_gauss_cdf``), so its bits are the ones the forward used: by the
    recompute, which hands it to the backward, or by the backward when no
    recompute ran.  The backward builds grad * (Phi + x * pdf(x)) in one
    more buffer.
    """
    a_in = a.data
    out = _gauss_cdf(a_in)
    out *= a_in
    phi_box = []  # the Phi the recompute formed, until the backward takes it

    def backward(grad):
        phi = phi_box.pop() if phi_box else _gauss_cdf(a_in)
        # -0.5 * x * x, exp, / sqrt(2 pi), * x, + Phi, * grad: the order the
        # expression grad * (Phi + x * pdf) rounds in, written in place
        d = np.multiply(a_in, -0.5)
        d *= a_in
        np.exp(d, out=d)
        d /= math.sqrt(2.0 * math.pi)
        d *= a_in
        d += phi
        d *= grad
        return (d,)

    def remat():
        phi_box[:] = [_gauss_cdf(a_in)]
        return phi_box[0] * a_in

    return _set_remat(record_op(out, (a,), backward, "gelu"), remat)


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
    """y[..., j] = sum_i x[..., i] * W[i, j] + b[j], for a weight W [K, M].

    For the weight's gradient it keeps what ``_keep`` gives for x: after a
    norm or GELU, their recompute, so no array of its own."""
    if weight.data.ndim != 2:
        raise ValueError(f"linear: weight must be [K, M], got {weight.data.shape}")
    k, m = weight.data.shape
    if x.data.shape[-1] != k:
        raise ValueError(f"linear: trailing extent {x.data.shape[-1]} != weight rows {k}")
    out = _linear(x.data, weight.data, None if bias is None else bias.data)
    x_shape, has_bias = x.shape, bias is not None
    # x is read only for the weight's gradient and the weight only for x's
    x_in = _keep(x) if weight.requires_grad else None
    w_in = weight.data if x.requires_grad else None
    b_grad = has_bias and bias.requires_grad

    def backward(grad):
        g2 = grad.reshape(-1, m)
        gx = None
        if w_in is not None:
            # written through a 2D view, so that gx owns its buffer
            gx = np.empty(x_shape, np.result_type(grad, w_in))
            np.matmul(g2, w_in.T, out=gx.reshape(-1, k))
        gw = _kept(x_in).reshape(-1, k).T @ g2 if x_in is not None else None
        gb = g2.sum(axis=0) if b_grad else None
        return (gx, gw, gb) if has_bias else (gx, gw)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return record_op(out, parents, backward, "linear")


def _linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """linear's output on arrays, contiguous."""
    paths = weight.shape[:-2]
    k, m = weight.shape[-2:]
    out3 = x.reshape(paths + (-1, k)) @ weight
    if bias is not None:
        out3 = _add_into(out3, bias[..., None, :])
    return np.ascontiguousarray(out3.reshape(x.shape[:-1] + (m,)))


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
    row is contiguous, as is the maps' trailing axis.  For the kernel's
    gradient it keeps what ``_keep`` gives for x: after a GELU or a ReLU,
    their recompute, so no array of its own.
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
    x_shape, maps_shape, x_in = x.shape, x4.shape, _keep(x)

    def backward(grad):
        g4 = grad.reshape(maps_shape)
        # x is padded again rather than kept padded by the closure
        gk = np.einsum("bhwcij,bhwc->cij", _windows(_kept(x_in).reshape(maps_shape), kh, kw), g4)
        # the input gradient correlates grad with the kernel flipped in H and W
        gx = np.einsum("bhwcij,ijc->bhwc", _windows(g4, kh, kw), taps[::-1, ::-1])
        # a batch of maps needs no reshape, which would return a view
        return (gx if gx.shape == x_shape else gx.reshape(x_shape), gk)

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
    H and W are padded; every leading index is a separate map.  Each tap
    (i, j) is one tensordot of the window views at that tap; the input
    gradient reads the taps of grad's windows flipped in H and W.
    """
    cout, cin, kh, kw = weight.data.shape
    x4 = _maps(x.data, "conv2d")
    if x4.shape[-1] != cin:
        raise ValueError(f"conv2d: channel mismatch {x4.shape[-1]} != {cin}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("conv2d: kernel extents must be odd")
    wd = weight.data
    xw = _windows(x4, kh, kw)
    out = np.zeros(x4.shape[:-1] + (cout,), dtype=x.data.dtype)
    for i, j in np.ndindex(kh, kw):
        out += np.tensordot(xw[..., i, j], wd[:, :, i, j], axes=([3], [1]))
    out += bias.data
    x_shape, maps_shape, out_shape = x.shape, x4.shape, out.shape

    def backward(grad):
        g4 = grad.reshape(out_shape)
        gwin = _windows(g4, kh, kw)
        gw = np.empty_like(wd)
        gx = np.zeros(maps_shape, dtype=xw.dtype)
        for i, j in np.ndindex(kh, kw):
            gw[:, :, i, j] = np.tensordot(g4, xw[..., i, j], axes=([0, 1, 2], [0, 1, 2]))
            gx += np.tensordot(gwin[..., kh - 1 - i, kw - 1 - j], wd[:, :, i, j], axes=([3], [0]))
        return gx.reshape(x_shape), gw, g4.sum(axis=(0, 1, 2))

    return record_op(out.reshape(x_shape[:-1] + (cout,)), (x, weight, bias), backward, "conv2d")


# variance offset of every layer and batch norm
NORM_EPS = 1e-5
# bytes of the rows normalize's backward works on at a time
_NORM_CHUNK_BYTES = 1 << 20


def normalize(x: Tensor, gamma: Tensor, beta: Tensor, axes) -> Tensor:
    """(x - mean) / sqrt(var + NORM_EPS) over ``axes``, then scale by gamma and
    shift by beta.  Layer norm reduces over the trailing channel axis, batch
    norm over (H, W), axes (-3, -2), of each [..., H, W, C] map; a map of
    one element along ``axes`` normalizes to exactly zero, so its output is
    beta.

    One recorded op.  The backward keeps only x_hat and sigma, and the
    output's recompute reads them with gamma and beta: with
    g' = grad * gamma, dx = (g' - mean(g') - x_hat * mean(g' * x_hat)) / sigma
    over ``axes`` (Ba et al. 2016; Ioffe & Szegedy 2015).  It forms the gamma
    gradient first, from one grad * x_hat product that it then frees, and
    builds dx in place in the g' buffer, ``_NORM_CHUNK_BYTES`` of rows of the
    index range in front of ``axes`` at a time.  So it allocates the input
    gradient plus one chunk, and rounds as the expression above does.
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
    gamma_in, beta_in, beta_shape = gamma.data, beta.data, beta.shape
    out = _add_into(x_hat * gamma_in, beta_in)
    # rows: the index range in front of the first reduced axis, flattened
    ndim = x_hat.ndim
    first = min(ax % ndim for ax in axes)
    row_axes = tuple(ax % ndim - first + 1 for ax in axes)
    row_shape = x_hat.shape[first:]
    step = max(1, _NORM_CHUNK_BYTES // max(1, math.prod(row_shape) * x_hat.itemsize))

    def backward(grad):
        g_gamma = _unbroadcast(grad * x_hat, gamma_in.shape)
        # row-major, so that the rows below are views into gx
        gx = np.multiply(grad, gamma_in, order="C")
        g_rows = gx.reshape((-1,) + row_shape)
        x_rows = x_hat.reshape(g_rows.shape)
        s_rows = sigma.reshape((-1,) + sigma.shape[first:])
        scratch = np.empty((min(step, len(g_rows)),) + row_shape, gx.dtype)
        for i in range(0, len(g_rows), step):
            g, xh = g_rows[i:i + step], x_rows[i:i + step]
            tmp = scratch[:len(g)]
            mean_g = g.mean(axis=row_axes, keepdims=True)
            mean_gx = np.multiply(g, xh, out=tmp).mean(axis=row_axes, keepdims=True)
            g -= mean_g
            g -= np.multiply(xh, mean_gx, out=tmp)
            g /= s_rows[i:i + step]
        return gx, g_gamma, _unbroadcast(grad, beta_shape)

    def remat():
        return _add_into(x_hat * gamma_in, beta_in)

    return _set_remat(record_op(out, (x, gamma, beta), backward, "normalize"), remat)


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


# -- parameter initializers --------------------------------------------------------
#
# Every drawn parameter is filled by ``fill_draws`` from a generator of its
# own.  Philox is counter-based and no two fills share a generator, so the
# fills can run in any order, on any thread, and give the same bytes.

FILL_CHUNK = 1 << 16    # values per draw of a fill: its float64 scratch is 512 KiB
FILL_WORKER_CAP = 8     # most threads ``PendingFills.run`` starts


def trunc_normal_draw(std: float):
    """(draw, bound) of a normal(0, std) fill rejected outside two std."""
    return (lambda rng, n: rng.normal(n, 0.0, std)), 2.0 * std


def uniform_draw(low: float, high: float):
    return lambda rng, n: rng.uniform(low, high, n)


def fill_draws(rng: Rng, out: np.ndarray, draw, bound: float | None = None) -> np.ndarray:
    """Write ``draw(rng, n)`` float64 values into ``out`` in flat order,
    ``FILL_CHUNK`` at a time, casting each chunk as it lands.

    With ``bound``, a value with |x| > bound (tested before the cast) is
    redrawn, the rejected flat indices in ascending order, until none remain.
    A stream is consumed exactly as by one full-size draw followed by
    whole-array rejection passes, so the values do not depend on the chunk.
    """
    if not out.flags.c_contiguous:
        raise ValueError("fill_draws: out must be C-contiguous")
    flat = out.reshape(-1)
    rejected = []
    for start in range(0, flat.size, FILL_CHUNK):
        values = draw(rng, min(FILL_CHUNK, flat.size - start))
        flat[start:start + values.size] = values
        if bound is not None:
            rejected.append(start + np.flatnonzero(np.abs(values) > bound))
    redo = np.concatenate(rejected) if rejected else np.empty(0, np.intp)
    while redo.size:
        values = draw(rng, redo.size)
        flat[redo] = values
        redo = redo[np.abs(values) > bound]
    return out


def fill_workers() -> int:
    """Threads for a batch of fills: the CPUs this process may run on, capped."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, FILL_WORKER_CAP))


class PendingFills:
    """The fills scheduled inside a ``deferred_fills`` block, not yet run."""

    def __init__(self):
        self.fills = []           # (size, fill)
        self._generators = set()  # ids; the pending fills keep the generators alive

    def add(self, rng: Rng, fill, size: int):
        if id(rng._gen) in self._generators:
            raise RuntimeError("two parameter fills draw from one generator, so their "
                               "values would depend on which runs first")
        self._generators.add(id(rng._gen))
        self.fills.append((size, fill))

    def run(self, workers: int):
        """Run every fill on at most ``workers`` threads, largest first.  Each
        thread is joined before this returns, also when a fill raises."""
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            for job in [pool.submit(fill) for _, fill in sorted(self.fills, key=lambda f: -f[0])]:
                job.result()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


_deferred = threading.local()


@contextmanager
def deferred_fills():
    """Collect the parameter fills scheduled inside the block, on this
    thread, into the ``PendingFills`` it yields instead of running them."""
    outer = getattr(_deferred, "fills", None)
    _deferred.fills = pending = PendingFills()
    try:
        yield pending
    finally:
        _deferred.fills = outer


def schedule_fill(rng: Rng, out: np.ndarray, draw, bound: float | None = None):
    """``fill_draws(rng, out, draw, bound)``, run now or, inside
    ``deferred_fills``, by whoever runs the pending fills."""
    fill = functools.partial(fill_draws, rng, out, draw, bound)
    pending = getattr(_deferred, "fills", None)
    if pending is None:
        fill()
    else:
        pending.add(rng, fill, out.size)


def init_drawn(rng: Rng, shape, draw, bound: float | None = None) -> Tensor:
    """A float32 parameter filled by ``schedule_fill``."""
    param = Tensor(np.empty(shape, np.float32), requires_grad=True)
    schedule_fill(rng, param.data, draw, bound)
    return param


def init_trunc_normal(rng: Rng, shape, std: float = 0.02) -> Tensor:
    return init_drawn(rng, shape, *trunc_normal_draw(std))


def init_kaiming_uniform(rng: Rng, shape, fan_in: int) -> Tensor:
    bound = math.sqrt(6.0 / fan_in)
    return init_drawn(rng, shape, uniform_draw(-bound, bound))


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
