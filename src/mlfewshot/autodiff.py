"""Dense float64 tensors with reverse-mode automatic differentiation.

Every op builds a node in a DAG; backward() on a scalar output walks the
graph once in reverse topological order and accumulates gradients into
each leaf created with requires_grad=True.  Gradients accumulate across
shared subexpressions, so diamond-shaped graphs come out right.

Broadcasting is deliberately restricted: elementwise ops accept equal
shapes or a scalar paired with a tensor, nothing else.
"""

import math

import numpy as np
from scipy.special import erf

LAYER_NORM_EPS = 1e-5
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Raised when an op receives incompatible or unsupported shapes."""


class DomainError(ValueError):
    """Raised when an input lies outside an op's documented domain."""


class DegenerateVectorError(ValueError):
    """Raised when cosine similarity meets a zero-length vector."""


def _shape_error(op, *shapes):
    described = ", ".join(str(tuple(s)) for s in shapes)
    return ShapeError(f"{op}: unsupported shapes {described}")


class Tensor:
    """A float64 array plus the bookkeeping needed for backward().

    Leaves are created directly (optionally with requires_grad=True);
    interior nodes are created by ops, which attach a closure that
    pushes the node's gradient to its parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _op="leaf", _backward=None):
        arr = np.asarray(data, dtype=np.float64)
        if _op == "leaf" and not np.all(np.isfinite(arr)):
            raise DomainError("tensor: leaf data must be finite")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = _op
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def accumulate(self, delta):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += delta

    def backward(self):
        """Backpropagate from a scalar output.

        Returns a map from every requires-grad leaf in the graph to its
        gradient array; the same arrays are left on each node's .grad.
        """
        if self.data.ndim != 0:
            raise ShapeError(f"backward: output must be a scalar, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        return {n: n.grad for n in order if not n._parents and n.requires_grad}

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; python scalars are wrapped as constant tensors
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def tensor(data, requires_grad=False):
    """Wrap data as a leaf Tensor, validating finiteness."""
    return Tensor(data, requires_grad=requires_grad)


def _wrap(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _toposort(root):
    # iterative post-order: parents land before children in `order`
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _node(data, parents, op, backward):
    needs = any(p.requires_grad for p in parents)
    if not needs:
        # constants need no graph; drop references so memory is freed early
        return Tensor(data, _op=op)
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = True
    out.op = op
    out._parents = tuple(parents)
    out._backward = backward
    return out


def _binary_shapes(op, a, b):
    """Validate the restricted broadcasting rule; returns the output shape."""
    if a.shape == b.shape:
        return a.shape
    if a.ndim == 0:
        return b.shape
    if b.ndim == 0:
        return a.shape
    raise _shape_error(op, a.shape, b.shape)


def _reduce_to(shape, grad):
    # undo scalar-with-tensor broadcasting
    if grad.shape == shape:
        return grad
    return np.asarray(grad.sum(), dtype=np.float64).reshape(shape)


def add(a, b):
    _binary_shapes("add", a, b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(a.shape, g))
        if b.requires_grad:
            b.accumulate(_reduce_to(b.shape, g))

    return _node(data, (a, b), "add", backward)


def sub(a, b):
    _binary_shapes("sub", a, b)
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(a.shape, g))
        if b.requires_grad:
            b.accumulate(_reduce_to(b.shape, -g))

    return _node(data, (a, b), "sub", backward)


def mul(a, b):
    _binary_shapes("mul", a, b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(a.shape, g * b.data))
        if b.requires_grad:
            b.accumulate(_reduce_to(b.shape, g * a.data))

    return _node(data, (a, b), "mul", backward)


def neg(a):
    def backward(g):
        if a.requires_grad:
            a.accumulate(-g)

    return _node(-a.data, (a,), "neg", backward)


def scale(a, factor):
    """Multiply by a python scalar (constant, receives no gradient)."""
    return mul(a, Tensor(float(factor)))


def matmul(a, b):
    """Matrix product for (2d,2d), (2d,1d), (1d,2d) and (1d,1d) operands."""
    if a.ndim == 2 and b.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise _shape_error("matmul", a.shape, b.shape)
        data = a.data @ b.data

        def backward(g):
            if a.requires_grad:
                a.accumulate(g @ b.data.T)
            if b.requires_grad:
                b.accumulate(a.data.T @ g)

    elif a.ndim == 2 and b.ndim == 1:
        if a.shape[1] != b.shape[0]:
            raise _shape_error("matmul", a.shape, b.shape)
        data = a.data @ b.data

        def backward(g):
            if a.requires_grad:
                a.accumulate(np.outer(g, b.data))
            if b.requires_grad:
                b.accumulate(a.data.T @ g)

    elif a.ndim == 1 and b.ndim == 2:
        if a.shape[0] != b.shape[0]:
            raise _shape_error("matmul", a.shape, b.shape)
        data = a.data @ b.data

        def backward(g):
            if a.requires_grad:
                a.accumulate(b.data @ g)
            if b.requires_grad:
                b.accumulate(np.outer(a.data, g))

    elif a.ndim == 1 and b.ndim == 1:
        if a.shape[0] != b.shape[0]:
            raise _shape_error("matmul", a.shape, b.shape)
        data = a.data @ b.data

        def backward(g):
            if a.requires_grad:
                a.accumulate(g * b.data)
            if b.requires_grad:
                b.accumulate(g * a.data)

    else:
        raise _shape_error("matmul", a.shape, b.shape)

    return _node(data, (a, b), "matmul", backward)


def _normalize_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def tensor_sum(a, axis=None):
    axes = _normalize_axes(axis, a.ndim)
    data = a.data.sum(axis=axes if axes else None)

    def backward(g):
        if a.requires_grad:
            expanded = np.expand_dims(g, axes) if axes else g
            a.accumulate(np.broadcast_to(expanded, a.shape).copy())

    return _node(data, (a,), "sum", backward)


def mean(a, axis=None):
    axes = _normalize_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    if count == 0:
        raise _shape_error("mean", a.shape)
    data = a.data.mean(axis=axes if axes else None)

    def backward(g):
        if a.requires_grad:
            expanded = np.expand_dims(g, axes) if axes else g
            a.accumulate(np.broadcast_to(expanded, a.shape) / count)

    return _node(data, (a,), "mean", backward)


def reshape(a, shape):
    if int(np.prod(shape)) != a.size:
        raise _shape_error("reshape", a.shape, shape)
    data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g.reshape(a.shape))

    return _node(data, (a,), "reshape", backward)


def transpose(a):
    if a.ndim != 2:
        raise _shape_error("transpose", a.shape)
    data = a.data.T.copy()

    def backward(g):
        if a.requires_grad:
            a.accumulate(g.T)

    return _node(data, (a,), "transpose", backward)


def concat(parts, axis=0):
    parts = list(parts)
    if not parts:
        raise ShapeError("concat: needs at least one input")
    ndim = parts[0].ndim
    axis = axis % max(ndim, 1)
    for p in parts:
        if p.ndim != ndim:
            raise _shape_error("concat", *(q.shape for q in parts))
        for ax in range(ndim):
            if ax != axis and p.shape[ax] != parts[0].shape[ax]:
                raise _shape_error("concat", *(q.shape for q in parts))
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                index = [slice(None)] * ndim
                index[axis] = slice(start, stop)
                p.accumulate(g[tuple(index)])

    return _node(data, tuple(parts), "concat", backward)


def split(a, sections, axis=0):
    """Split into `sections` equal contiguous pieces along an axis.

    Returns a tuple of tensors; concatenating them along the same axis
    reconstructs the input bitwise.
    """
    axis = axis % max(a.ndim, 1)
    length = a.shape[axis]
    if sections < 1 or length % sections != 0:
        raise ShapeError(f"split: cannot split axis of length {length} into {sections} sections")
    step = length // sections
    pieces = []
    for s in range(sections):
        start = s * step
        index = [slice(None)] * a.ndim
        index[axis] = slice(start, start + step)
        index = tuple(index)
        data = a.data[index].copy()

        def backward(g, index=index):
            if a.requires_grad:
                full = np.zeros_like(a.data)
                full[index] = g
                a.accumulate(full)

        pieces.append(_node(data, (a,), "split", backward))
    return tuple(pieces)


def gather_rows(a, indices):
    """Select rows of a 2-d tensor; backward scatter-adds into place."""
    if a.ndim != 2:
        raise _shape_error("gather_rows", a.shape)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError("gather_rows: indices must be a non-empty 1-d sequence")
    if idx.min() < 0 or idx.max() >= a.shape[0]:
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")
    data = a.data[idx]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            a.accumulate(full)

    return _node(data, (a,), "gather_rows", backward)


def softmax(a):
    """Softmax over the last axis; shift-invariant and sums to one."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if a.requires_grad:
            inner = (g * y).sum(axis=-1, keepdims=True)
            a.accumulate(y * (g - inner))

    return _node(y, (a,), "softmax", backward)


def sigmoid(a):
    x = a.data
    y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * y * (1.0 - y))

    return _node(y, (a,), "sigmoid", backward)


def log(a):
    if np.any(a.data <= 0):
        raise DomainError("log: input must be strictly positive")
    data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g / a.data)

    return _node(data, (a,), "log", backward)


def exp(a):
    data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * data)

    return _node(data, (a,), "exp", backward)


def relu(a):
    data = np.maximum(a.data, 0.0)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * (a.data > 0))

    return _node(data, (a,), "relu", backward)


def gelu(a):
    """Exact Gaussian-CDF GeLU: x * Phi(x), not the tanh approximation."""
    x = a.data
    phi_cdf = 0.5 * (1.0 + erf(x * _INV_SQRT_2))
    data = x * phi_cdf

    def backward(g):
        if a.requires_grad:
            density = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
            a.accumulate(g * (phi_cdf + x * density))

    return _node(data, (a,), "gelu", backward)


def layer_norm(a, gain, bias, eps=LAYER_NORM_EPS):
    """Normalize over the last axis, then apply a learnable affine map."""
    d = a.shape[-1] if a.ndim else 0
    if a.ndim < 1 or gain.shape != (d,) or bias.shape != (d,):
        raise _shape_error("layer_norm", a.shape, gain.shape, bias.shape)
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain.accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate(g.reshape(-1, d).sum(axis=0))
        if a.requires_grad:
            dxhat = g * gain.data
            term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            a.accumulate(inv * term)

    return _node(data, (a, gain, bias), "layer_norm", backward)


def cosine(a, b):
    """Cosine similarity of two 1-d vectors; zero vectors are rejected."""
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise _shape_error("cosine", a.shape, b.shape)
    na = float(np.linalg.norm(a.data))
    nb = float(np.linalg.norm(b.data))
    if na == 0.0 or nb == 0.0:
        raise DegenerateVectorError("degenerate-vector: cosine of a zero-length vector")
    c = float(a.data @ b.data) / (na * nb)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * (b.data / (na * nb) - c * a.data / (na * na)))
        if b.requires_grad:
            b.accumulate(g * (a.data / (na * nb) - c * b.data / (nb * nb)))

    return _node(np.float64(c), (a, b), "cosine", backward)


def dropout(a, rate, rng=None, training=False):
    """Inverted dropout: train mode zeroes with prob `rate` and rescales
    survivors by 1/(1-rate); eval mode is the identity and draws nothing."""
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout: rate must lie in [0, 1), got {rate}")
    if not training or rate == 0.0:
        def backward(g):
            if a.requires_grad:
                a.accumulate(g)

        return _node(a.data.copy(), (a,), "dropout", backward)
    if rng is None:
        raise DomainError("dropout: training mode requires an explicit rng")
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * mask)

    return _node(a.data * mask, (a,), "dropout", backward)


def bce_with_logits(logits, targets):
    """Elementwise binary cross-entropy against constant 0/1 targets.

    Computes -[y log sigma(s) + (1-y) log(1-sigma(s))] in the stable
    form max(s,0) - s*y + log1p(exp(-|s|)); gradient is sigma(s) - y.
    """
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != logits.shape:
        raise _shape_error("bce_with_logits", logits.shape, y.shape)
    s = logits.data
    data = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))

    def backward(g):
        if logits.requires_grad:
            sig = np.where(s >= 0, 1.0 / (1.0 + np.exp(-np.abs(s))),
                           np.exp(-np.abs(s)) / (1.0 + np.exp(-np.abs(s))))
            logits.accumulate(g * (sig - y))

    return _node(data, (logits,), "bce_with_logits", backward)


def conv2d(x, kernel, bias, stride=1, padding=0):
    """2-d convolution of a single (c,h,w) image with an (o,c,kh,kw) kernel."""
    if x.ndim != 3 or kernel.ndim != 4 or bias.ndim != 1:
        raise _shape_error("conv2d", x.shape, kernel.shape, bias.shape)
    co, ci, kh, kw = kernel.shape
    if x.shape[0] != ci or bias.shape[0] != co:
        raise _shape_error("conv2d", x.shape, kernel.shape, bias.shape)
    h, w = x.shape[1], x.shape[2]
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise _shape_error("conv2d", x.shape, kernel.shape)

    padded = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]  # (ci, oh, ow, kh, kw)
    patches = windows.transpose(1, 2, 0, 3, 4).reshape(oh * ow, ci * kh * kw)
    kflat = kernel.data.reshape(co, ci * kh * kw)
    out_flat = patches @ kflat.T + bias.data  # (oh*ow, co)
    data = out_flat.T.reshape(co, oh, ow)

    def backward(g):
        g_flat = g.reshape(co, oh * ow).T  # (oh*ow, co)
        if bias.requires_grad:
            bias.accumulate(g_flat.sum(axis=0))
        if kernel.requires_grad:
            kernel.accumulate((g_flat.T @ patches).reshape(kernel.shape))
        if x.requires_grad:
            dpatches = g_flat @ kflat  # (oh*ow, ci*kh*kw)
            dpadded = np.zeros_like(padded)
            for i in range(oh):
                for j in range(ow):
                    patch = dpatches[i * ow + j].reshape(ci, kh, kw)
                    dpadded[:, i * stride:i * stride + kh, j * stride:j * stride + kw] += patch
            if padding:
                dpadded = dpadded[:, padding:-padding, padding:-padding]
            x.accumulate(dpadded)

    return _node(data, (x, kernel, bias), "conv2d", backward)


def grad_check(f, x, eps=1e-6):
    """Compare f's analytic gradient at x against central differences.

    f must be a pure function Tensor -> scalar Tensor.  Returns the max
    over components of |analytic - numeric| / max(1, |analytic|).
    """
    if not 0.0 < eps <= 1e-3:
        raise DomainError(f"grad_check: eps must lie in (0, 1e-3], got {eps}")
    leaf = Tensor(np.array(x.data, copy=True), requires_grad=True)
    out = f(leaf)
    if out.ndim != 0:
        raise ShapeError(f"grad_check: f must return a scalar, got shape {out.shape}")
    out.backward()
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)

    base = np.array(x.data, copy=True)
    worst = 0.0
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = base.copy()
        plus[idx] += eps
        minus = base.copy()
        minus[idx] -= eps
        f_plus = f(Tensor(plus)).item()
        f_minus = f(Tensor(minus)).item()
        numeric = (f_plus - f_minus) / (2.0 * eps)
        a = float(analytic[idx])
        err = abs(a - numeric) / max(1.0, abs(a))
        worst = max(worst, err)
        it.iternext()
    return worst
