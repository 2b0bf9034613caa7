"""Dense-tensor engine with reverse-mode automatic differentiation.

numpy owns the buffers; every differentiable op records a closure that maps
the output gradient back to its inputs.  ``Tensor.backward()`` replays the
recorded graph in reverse topological order, exactly once per forward
recording.  Buffers are row-major contiguous; reshapes and transposes copy.

Training runs in float32, gradient checking in float64.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from scipy import special

__all__ = [
    "Tensor", "NonFiniteError", "no_grad", "record_op", "constant",
    "linear", "depthwise_conv2d", "conv2d", "shift2d", "take_flat",
    "layer_norm", "batch_norm2d", "softmax_channels",
    "relu", "silu", "gelu", "sigmoid", "softplus", "exp", "log", "sqrt", "erf",
    "tsum", "tmean", "reshape", "transpose",
    "Module", "Rng", "finite_diff_grad_check",
]


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


class Tensor:
    """N-dimensional float array, optionally recorded on the autodiff graph."""

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._prev = ()
        self._backward = None
        self._op = ""
        self._released = False

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype), requires_grad=self.requires_grad)

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    # -- backward ------------------------------------------------------------

    def backward(self, leaves=None):
        """Accumulate gradients of this scalar into every reachable input.

        One pass per recording: the graph is released afterwards and a second
        pass raises.  ``leaves`` (optional) are tensors that should end up
        with an explicit zero gradient even when unreachable from this node.
        """
        if self.data.size != 1:
            raise ValueError("backward target must be a scalar")
        if self._released:
            raise RuntimeError("backward already consumed this graph; rerun the forward pass")

        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            if node._released:
                raise RuntimeError("graph contains nodes from an already-consumed recording")
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None:
                continue
            grads = node._backward(node.grad)
            for parent, g in zip(node._prev, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += g.astype(parent.data.dtype, copy=False)
            node._backward = None
            node._prev = ()
            node._released = True

        if leaves is not None:
            for leaf in leaves:
                if leaf.requires_grad and leaf.grad is None:
                    leaf.grad = np.zeros_like(leaf.data)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(_coerce(other, self), -1.0))

    def __rsub__(self, other):
        return add(_coerce(other, self), mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_coerce(other, self), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, exponent):
        return tpow(self, exponent)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


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
    Every forward result is checked for non-finite values.
    """
    if _finite_checks and not np.isfinite(out_data).all():
        raise NonFiniteError(f"op '{name}' produced non-finite values")
    needs = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(out_data)
    if needs:
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = backward_fn
        out._op = name
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


# -- elementwise primitives ---------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out = a.data + b.data

    def backward(grad):
        return _unbroadcast(grad, a.data.shape), _unbroadcast(grad, b.data.shape)

    return record_op(out, (a, b), backward, "add")


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out = a.data * b.data

    def backward(grad):
        return (_unbroadcast(grad * b.data, a.data.shape),
                _unbroadcast(grad * a.data, b.data.shape))

    return record_op(out, (a, b), backward, "mul")


def div(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out = a.data / b.data

    def backward(grad):
        ga = grad / b.data
        gb = -grad * a.data / (b.data * b.data)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return record_op(out, (a, b), backward, "div")


def tpow(a: Tensor, exponent: float) -> Tensor:
    out = a.data ** exponent

    def backward(grad):
        return (grad * exponent * a.data ** (exponent - 1),)

    return record_op(out, (a,), backward, "pow")


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def backward(grad):
        return (grad * out,)

    return record_op(out, (a,), backward, "exp")


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)

    def backward(grad):
        return (grad / a.data,)

    return record_op(out, (a,), backward, "log")


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def backward(grad):
        return (grad * 0.5 / out,)

    return record_op(out, (a,), backward, "sqrt")


def erf(a: Tensor) -> Tensor:
    out = special.erf(a.data)

    def backward(grad):
        return (grad * (2.0 / math.sqrt(math.pi)) * np.exp(-a.data * a.data),)

    return record_op(out, (a,), backward, "erf")


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-np.abs(a.data)))
    out = np.where(a.data >= 0, out, 1.0 - out)

    def backward(grad):
        return (grad * out * (1.0 - out),)

    return record_op(out, (a,), backward, "sigmoid")


def softplus(a: Tensor) -> Tensor:
    # log(1 + e^x), stable for large |x|
    out = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    sig = 1.0 / (1.0 + np.exp(-np.abs(a.data)))
    sig = np.where(a.data >= 0, sig, 1.0 - sig)

    def backward(grad):
        return (grad * sig,)

    return record_op(out, (a,), backward, "softplus")


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def backward(grad):
        return (grad * (a.data > 0),)

    return record_op(out, (a,), backward, "relu")


def silu(a: Tensor) -> Tensor:
    sig = 1.0 / (1.0 + np.exp(-np.abs(a.data)))
    sig = np.where(a.data >= 0, sig, 1.0 - sig)
    out = a.data * sig

    def backward(grad):
        return (grad * (sig + a.data * sig * (1.0 - sig)),)

    return record_op(out, (a,), backward, "silu")


def gelu(a: Tensor) -> Tensor:
    # exact Gaussian-CDF form: x * Phi(x), no tanh approximation
    phi_cdf = 0.5 * (1.0 + special.erf(a.data / math.sqrt(2.0)))
    out = a.data * phi_cdf

    def backward(grad):
        pdf = np.exp(-0.5 * a.data * a.data) / math.sqrt(2.0 * math.pi)
        return (grad * (phi_cdf + a.data * pdf),)

    return record_op(out, (a,), backward, "gelu")


def activation(kind: str, x: Tensor) -> Tensor:
    try:
        fn = {"silu": silu, "gelu": gelu, "relu": relu}[kind]
    except KeyError:
        raise ValueError(f"unknown activation '{kind}'") from None
    return fn(x)


# -- reductions / shape ops ----------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

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

    def backward(grad):
        return (grad.reshape(a.data.shape),)

    return record_op(out, (a,), backward, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = np.ascontiguousarray(a.data.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def backward(grad):
        return (np.ascontiguousarray(grad.transpose(inverse)),)

    return record_op(out, (a,), backward, "transpose")


def take_flat(a: Tensor, flat_index: np.ndarray, out_shape, unique: bool = False) -> Tensor:
    """Gather: out.flat[i] = a.flat[flat_index.flat[i]].  Backward scatter-adds,
    so repeated indices (e.g. nearest-neighbour upsampling) are handled; pass
    unique=True for injective index maps to skip the slow accumulating path."""
    idx = np.asarray(flat_index, dtype=np.intp)
    out = a.data.reshape(-1)[idx.reshape(-1)].reshape(out_shape)

    def backward(grad):
        ga = np.zeros(a.data.size, dtype=grad.dtype)
        if unique:
            ga[idx.reshape(-1)] = grad.reshape(-1)
        else:
            np.add.at(ga, idx.reshape(-1), grad.reshape(-1))
        return (ga.reshape(a.data.shape),)

    return record_op(np.ascontiguousarray(out), (a,), backward, "take_flat")


def stack(tensors) -> Tensor:
    """Stack same-shape tensors along a new leading axis."""
    tensors = tuple(tensors)
    out = np.stack([t.data for t in tensors])

    def backward(grad):
        return tuple(grad[i] for i in range(len(tensors)))

    return record_op(out, tensors, backward, "stack")


def shift2d(a: Tensor, dy: int, dx: int) -> Tensor:
    """Shift the trailing two axes by (dy, dx), zero-filling exposed borders."""
    out = np.zeros_like(a.data)
    h, w = a.data.shape[-2:]
    ys = slice(max(dy, 0), h + min(dy, 0))
    xs = slice(max(dx, 0), w + min(dx, 0))
    ys_src = slice(max(-dy, 0), h + min(-dy, 0))
    xs_src = slice(max(-dx, 0), w + min(-dx, 0))
    out[..., ys, xs] = a.data[..., ys_src, xs_src]

    def backward(grad):
        g = np.zeros_like(grad)
        g[..., ys_src, xs_src] = grad[..., ys, xs]
        return (g,)

    return record_op(out, (a,), backward, "shift2d")


# -- neural-net primitives ------------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """y[..., j] = sum_i x[..., i] * W[i, j] + b[j]."""
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ValueError(f"linear: trailing extent {x.data.shape[-1]} != weight rows {weight.data.shape[0]}")
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, x.data.shape[-1])
    out2 = x2 @ weight.data
    if bias is not None:
        out2 = out2 + bias.data
    out = out2.reshape(lead + (weight.data.shape[1],))

    def backward(grad):
        g2 = grad.reshape(-1, weight.data.shape[1])
        gx = (g2 @ weight.data.T).reshape(x.data.shape)
        gw = x2.T @ g2
        gb = g2.sum(axis=0) if bias is not None else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return record_op(np.ascontiguousarray(out), parents, backward, "linear")


def depthwise_conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel 2D cross-correlation with 'same' zero padding.

    x: [C, H, W], kernel: [C, kh, kw] with odd kh, kw.
    """
    c, h, w = x.data.shape
    kc, kh, kw = kernel.data.shape
    if kc != c:
        raise ValueError(f"depthwise_conv2d: channel mismatch {kc} != {c}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("depthwise_conv2d: kernel extents must be odd")
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x.data, ((0, 0), (ph, ph), (pw, pw)))
    out = np.zeros_like(x.data)
    for i in range(kh):
        for j in range(kw):
            out += xp[:, i:i + h, j:j + w] * kernel.data[:, i, j][:, None, None]

    def backward(grad):
        gk = np.empty_like(kernel.data)
        for i in range(kh):
            for j in range(kw):
                gk[:, i, j] = (xp[:, i:i + h, j:j + w] * grad).sum(axis=(1, 2))
        gp = np.pad(grad, ((0, 0), (ph, ph), (pw, pw)))
        gx = np.zeros_like(x.data)
        for i in range(kh):
            for j in range(kw):
                gx += gp[:, kh - 1 - i:kh - 1 - i + h, kw - 1 - j:kw - 1 - j + w] \
                    * kernel.data[:, i, j][:, None, None]
        return (gx, gk)

    return record_op(out, (x, kernel), backward, "depthwise_conv2d")


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Full 2D cross-correlation with 'same' zero padding.

    x: [Cin, H, W], weight: [Cout, Cin, kh, kw] with odd kh, kw.
    """
    cout, cin, kh, kw = weight.data.shape
    if x.data.shape[0] != cin:
        raise ValueError(f"conv2d: channel mismatch {x.data.shape[0]} != {cin}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("conv2d: kernel extents must be odd")
    c, h, w = x.data.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x.data, ((0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((cout, h, w), dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            out += np.tensordot(weight.data[:, :, i, j], xp[:, i:i + h, j:j + w], axes=([1], [0]))
    if bias is not None:
        out += bias.data[:, None, None]

    def backward(grad):
        gw = np.empty_like(weight.data)
        for i in range(kh):
            for j in range(kw):
                gw[:, :, i, j] = np.tensordot(grad, xp[:, i:i + h, j:j + w], axes=([1, 2], [1, 2]))
        gp = np.pad(grad, ((0, 0), (ph, ph), (pw, pw)))
        gx = np.zeros_like(x.data)
        for i in range(kh):
            for j in range(kw):
                gx += np.tensordot(weight.data[:, :, i, j],
                                   gp[:, kh - 1 - i:kh - 1 - i + h, kw - 1 - j:kw - 1 - j + w],
                                   axes=([0], [0]))
        gb = grad.sum(axis=(1, 2)) if bias is not None else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return record_op(out, parents, backward, "conv2d")


def channels_last(x: Tensor) -> Tensor:
    """[C, H, W] -> [H, W, C]"""
    return transpose(x, (1, 2, 0))


def channels_first(x: Tensor) -> Tensor:
    """[H, W, C] -> [C, H, W]"""
    return transpose(x, (2, 0, 1))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the trailing extent, then affine scale and shift."""
    if x.data.shape[-1] == 0:
        raise ValueError("layer_norm: empty channel extent")
    mu = tmean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = tmean(mul(xc, xc), axis=-1, keepdims=True)
    normed = div(xc, sqrt(add(var, eps)))
    return add(mul(normed, gamma), beta)


def batch_norm_core(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                    running_var: np.ndarray, momentum: float = 0.1, eps: float = 1e-5,
                    training: bool = True) -> Tensor:
    """batch_norm2d without the train-mode size guard (single-value batches
    normalize to exactly zero before the affine stage)."""
    b, c, h, w = x.data.shape
    if training:
        mu = tmean(x, axis=(0, 2, 3), keepdims=True)
        xc = x - mu
        var = tmean(mul(xc, xc), axis=(0, 2, 3), keepdims=True)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu.data.reshape(c)
        running_var *= 1.0 - momentum
        running_var += momentum * var.data.reshape(c)
    else:
        mu = constant(running_mean.reshape(1, c, 1, 1), like=x)
        var = constant(running_var.reshape(1, c, 1, 1), like=x)
        xc = x - mu
    normed = div(xc, sqrt(add(var, eps)))
    return add(mul(normed, reshape(gamma, (1, c, 1, 1))), reshape(beta, (1, c, 1, 1)))


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                 running_var: np.ndarray, momentum: float = 0.1, eps: float = 1e-5,
                 training: bool = True) -> Tensor:
    """Per-channel normalization of [B, C, H, W] over (B, H, W).

    Train mode requires at least two values per channel, normalizes with
    batch statistics and updates the running buffers in place:
    running = (1 - momentum) * running + momentum * batch.  Eval mode
    normalizes with the running buffers.
    """
    b, c, h, w = x.data.shape
    if training and b * h * w < 2:
        raise ValueError("batch_norm2d: need at least 2 values per channel in train mode")
    return batch_norm_core(x, gamma, beta, running_mean, running_var, momentum, eps, training)


def softmax_channels(x: Tensor) -> Tensor:
    """Probabilities over the leading class extent, stabilized by max-subtraction."""
    shift = x.data.max(axis=0, keepdims=True)
    e = exp(x - constant(shift, like=x))
    return div(e, tsum(e, axis=0, keepdims=True))


# -- module / parameter plumbing -------------------------------------------------

class Module:
    """Minimal parameter container: attributes that are Tensors with
    requires_grad, Modules, or lists of Modules are tracked automatically."""

    def __init__(self):
        self.training = True

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

    def _children(self):
        for value in vars(self).values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def train(self):
        self.training = True
        for child in self._children():
            child.train()
        return self

    def eval(self):
        self.training = False
        for child in self._children():
            child.eval()
        return self

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())


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

def init_trunc_normal(rng: Rng, shape, std: float = 0.02, dtype=np.float32) -> Tensor:
    return Tensor(rng.trunc_normal(shape, std).astype(dtype), requires_grad=True)


def init_kaiming_uniform(rng: Rng, shape, fan_in: int, dtype=np.float32) -> Tensor:
    bound = math.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, shape).astype(dtype), requires_grad=True)


def init_zeros(shape, dtype=np.float32) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def init_ones(shape, dtype=np.float32) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)


# -- gradient checking ---------------------------------------------------------------

def finite_diff_grad_check(fn, inputs, step: float = 1e-5, max_coords: int | None = None,
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
    loss.backward(leaves=inputs)
    analytic = [t.grad.copy() for t in inputs]

    def central_diff(flat, i, h):
        orig = flat[i]
        with no_grad():
            flat[i] = orig + h
            f_plus = float(fn(*inputs).data.reshape(()))
            flat[i] = orig - h
            f_minus = float(fn(*inputs).data.reshape(()))
        flat[i] = orig
        return (f_plus - f_minus) / (2.0 * h)

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
