"""Dense float64 tensors with reverse-mode automatic differentiation.

Every op builds a node in a DAG; backward() on a scalar output walks the
graph once in reverse topological order and accumulates gradients into
each leaf created with requires_grad=True.  Gradients accumulate across
shared subexpressions, so diamond-shaped graphs come out right.

Ops take only the shapes the model feeds them: elementwise ops take equal
shapes (no broadcasting, not even of a scalar), ``matmul`` two matrices,
``tensor_sum`` and ``mean`` reduce the whole tensor to a scalar, and
``concat`` and ``split`` work along the first axis, on rows.

Scoring and attention run as whole matrices, one node each: ``linear``
maps every row through a weight matrix (or each batch of rows through its
own) and adds an optional bias to every row, ``cosine`` gives the (n, m)
matrix of row cosines of two row matrices, and ``head_readout`` is the
multi-head scaled dot-product attention readout of consecutive row
segments of a feature matrix, each by its own query.  Each has its own
analytic backward.

This module holds only the tape; verification.py measures each op's
backward against central differences.
"""

import math

import numpy as np

from .errors import DataError

LAYER_NORM_EPS = 1e-5
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Raised when an op receives incompatible or unsupported shapes."""


class DomainError(ValueError):
    """Raised when an input lies outside an op's documented domain."""


class DegenerateVectorError(DataError):
    """Raised when cosine similarity meets a zero-length vector in the data."""


def _shape_error(op, *shapes):
    described = ", ".join(str(tuple(s)) for s in shapes)
    return ShapeError(f"{op}: unsupported shapes {described}")


class Tensor:
    """A float64 array plus the bookkeeping needed for backward().

    `Tensor(data, requires_grad)` builds a leaf and checks its data is finite;
    interior nodes are built only by ops, through `_node`, with a closure that
    pushes the node's gradient to its parents.  A leaf's `grad_home`, set by
    an optimizer, is the array its gradient is written into.
    """

    __slots__ = ("data", "grad", "grad_home", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise DomainError("tensor: leaf data must be finite")
        self.data = arr
        self.grad = None
        self.grad_home = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents = ()
        self._backward = None

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

    def accumulate(self, delta, b=None):
        """Add a gradient contribution of this tensor's shape: delta, or the
        product delta @ b when b is given.

        The first contribution is written into `grad_home` when the tensor
        has one (an optimizer's gradient buffer), a product computed
        straight into it, and later ones add in place there.  A leaf
        without a home copies its first contribution and adds later ones
        in place.  An interior node keeps its first contribution as it is,
        which may be a view another node also holds (the `g` that `add`
        hands to both parents, `reshape`'s view, `concat`'s slices), so
        later contributions add out of place and never write through it.
        """
        if self.grad is None and self.grad_home is not None:
            self.grad = self.grad_home
            if b is None:
                np.copyto(self.grad, delta)
            else:
                np.matmul(delta, b, out=self.grad)
            return
        if b is not None:
            delta = delta @ b                                  # a fresh product
        elif self.grad is None and not self._parents:
            delta = np.array(delta, dtype=np.float64)          # a leaf's own copy
        if self.grad is None:
            self.grad = delta
        elif self._parents:
            self.grad = self.grad + delta
        else:
            self.grad += delta

    def backward(self):
        """Backpropagate from a scalar output, leaving each node's gradient
        on its .grad."""
        if self.data.ndim != 0:
            raise ShapeError(f"backward: output must be a scalar, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"


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
    """Every interior node.  One whose parents need no gradient is a constant:
    no parents and no backward, so the graph that built it can be freed."""
    needs = any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    out.grad = out.grad_home = None
    out.requires_grad = needs
    out.op = op
    out._parents = tuple(parents) if needs else ()
    out._backward = backward if needs else None
    return out


def _same_shapes(op, a, b):
    if a.shape != b.shape:
        raise _shape_error(op, a.shape, b.shape)


def add(a, b):
    _same_shapes("add", a, b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g)

    return _node(data, (a, b), "add", backward)


def sub(a, b):
    _same_shapes("sub", a, b)
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(-g)

    return _node(data, (a, b), "sub", backward)


def mul(a, b):
    _same_shapes("mul", a, b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * b.data)
        if b.requires_grad:
            b.accumulate(g * a.data)

    return _node(data, (a, b), "mul", backward)


def neg(a):
    def backward(g):
        if a.requires_grad:
            a.accumulate(-g)

    return _node(-a.data, (a,), "neg", backward)


def scale(a, factor):
    """Multiply by a python scalar (constant, receives no gradient)."""
    factor = np.float64(factor)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * factor)

    return _node(a.data * factor, (a,), "scale", backward)


def matmul(a, b):
    """Matrix product of an (m, k) and a (k, n) matrix."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise _shape_error("matmul", a.shape, b.shape)
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g, b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T, g)

    return _node(data, (a, b), "matmul", backward)


def linear(x, weight, bias=None):
    """x @ weight^T, plus bias on every row when given: every row of x
    through an affine map.

    weight is one (out, in) matrix shared by the rows of an (..., in) x, or
    a (batch, out, in) stack applied batch by batch to a (batch, rows, in) x;
    bias is an (out,) vector; its gradient is the product ones @ g over all
    rows of g.
    """
    shared = weight.ndim == 2 and x.ndim >= 2
    batched = weight.ndim == 3 and x.ndim == 3 and x.shape[0] == weight.shape[0]
    parents = (x, weight) if bias is None else (x, weight, bias)
    if not (shared or batched) or x.shape[-1] != weight.shape[-1] \
            or (bias is not None and bias.shape != weight.shape[-2:-1]):
        raise _shape_error("linear", *(p.shape for p in parents))
    out_dim, in_dim = weight.shape[-2:]
    data = x.data @ np.swapaxes(weight.data, -1, -2)
    if bias is not None:
        data += bias.data

    def backward(g):
        if x.requires_grad:
            x.accumulate(g, weight.data)
        if weight.requires_grad:
            if shared:
                weight.accumulate(g.reshape(-1, out_dim).T, x.data.reshape(-1, in_dim))
            else:
                weight.accumulate(np.swapaxes(g, -1, -2), x.data)
        if bias is not None and bias.requires_grad:
            bias.accumulate(np.ones(g.size // out_dim), g.reshape(-1, out_dim))

    return _node(data, parents, "linear", backward)


def tensor_sum(a):
    """The sum of every entry, a scalar."""
    def backward(g):
        if a.requires_grad:
            a.accumulate(np.full(a.shape, g))

    return _node(a.data.sum(), (a,), "sum", backward)


def mean(a):
    """The mean of every entry, a scalar."""
    if a.size == 0:
        raise _shape_error("mean", a.shape)

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.broadcast_to(g, a.shape) / a.size)

    return _node(a.data.mean(), (a,), "mean", backward)


def reshape(a, shape):
    if math.prod(shape) != a.size:
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


def concat(parts):
    """Join tensors along the first axis, on rows; their other axes agree."""
    parts = list(parts)
    if not parts or any(p.ndim == 0 or p.shape[1:] != parts[0].shape[1:] for p in parts):
        raise _shape_error("concat", *(p.shape for p in parts))
    data = np.concatenate([p.data for p in parts])
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def backward(g):
        for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.accumulate(g[start:stop])

    return _node(data, tuple(parts), "concat", backward)


def split(a, sections):
    """Split into `sections` equal contiguous blocks of rows.

    Returns a tuple of tensors; concatenating them reconstructs the input
    bitwise.
    """
    if a.ndim == 0 or sections < 1 or a.shape[0] % sections != 0:
        raise ShapeError(f"split: cannot split shape {a.shape} into {sections} row blocks")
    step = a.shape[0] // sections
    pieces = []
    for s in range(sections):
        rows = slice(s * step, (s + 1) * step)

        def backward(g, rows=rows):
            if a.requires_grad:
                full = np.zeros_like(a.data)
                full[rows] = g
                a.accumulate(full)

        pieces.append(_node(a.data[rows].copy(), (a,), "split", backward))
    return tuple(pieces)


def _occurrence_ranks(idx):
    """For each position of idx, how many earlier positions hold the same
    index: 0 for a row's first occurrence, 1 for its second, and so on."""
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    positions = np.arange(idx.size)
    starts = np.r_[True, sorted_idx[1:] != sorted_idx[:-1]]
    ranks = np.empty_like(positions)
    ranks[order] = positions - np.maximum.accumulate(np.where(starts, positions, 0))
    return ranks


def gather_rows(a, indices):
    """Select rows of a 2-d tensor; backward scatter-adds into place.

    The scatter is one fancy-indexed add per occurrence rank, so a repeated
    row adds its contributions in index order, bitwise as an unbuffered
    scatter-add does."""
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
            ranks = _occurrence_ranks(idx)
            for rank in range(ranks.max() + 1):
                at = np.flatnonzero(ranks == rank)
                full[idx[at]] += g[at]
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


def _logistic(x):
    """1 / (1 + e^-x) elementwise, in the tanh form that cannot overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def sigmoid(a):
    y = _logistic(a.data)

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
    erf = np.fromiter(map(math.erf, (x * _INV_SQRT_2).ravel().tolist()), np.float64, x.size)
    phi_cdf = 0.5 * (1.0 + erf.reshape(x.shape))
    data = x * phi_cdf

    def backward(g):
        if a.requires_grad:
            density = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
            a.accumulate(g * (phi_cdf + x * density))

    return _node(data, (a,), "gelu", backward)


def layer_norm(a, gain, bias):
    """Normalize over the last axis, then apply a learnable affine map."""
    d = a.shape[-1] if a.ndim else 0
    if a.ndim < 1 or gain.shape != (d,) or bias.shape != (d,):
        raise _shape_error("layer_norm", a.shape, gain.shape, bias.shape)
    # the two means as `.mean` computes them, without its dispatch
    mu = np.add.reduce(a.data, axis=-1, keepdims=True) / d
    centered = a.data - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
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
    """Row cosines of two row matrices: (n, d) and (m, d) give the (n, m)
    matrix whose (i, j) entry is the cosine of a[i] and b[j].  A zero row in
    either operand is rejected."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise _shape_error("cosine", a.shape, b.shape)
    # row norms as `np.linalg.norm(x, axis=1)` computes them, without its dispatch
    na = np.sqrt(np.add.reduce(a.data * a.data, axis=1))
    nb = np.sqrt(np.add.reduce(b.data * b.data, axis=1))
    if not (np.all(na) and np.all(nb)):
        raise DegenerateVectorError("degenerate-vector: cosine of a zero-length vector")
    c = (a.data @ b.data.T) / (na[:, None] * nb[None, :])

    def backward(g):
        # d cos(a_i, b_j) / d a_i = (u_b_j - cos * u_a_i) / |a_i|, u the unit rows
        unit_a = a.data / na[:, None]
        unit_b = b.data / nb[:, None]
        if a.requires_grad:
            du = g @ unit_b
            a.accumulate((du - (g * c).sum(axis=1)[:, None] * unit_a) / na[:, None])
        if b.requires_grad:
            du = g.T @ unit_a
            b.accumulate((du - (g * c).sum(axis=0)[:, None] * unit_b) / nb[:, None])

    return _node(c, (a, b), "cosine", backward)


def head_readout(features, queries, heads, sizes):
    """Multi-head attention readout of an (n, d) feature matrix by (q, d)
    queries, all heads and all queries in one node; the output is (q, d).

    The rows form consecutive segments, one per query: `sizes` gives their
    row counts, in query order.  Head h owns the channel slice
    h*d/heads:(h+1)*d/heads.  Within a segment it scores each row's slice
    against the query's slice, scaled by 1/sqrt(d/heads), softmaxes over the
    segment's rows and reads out the softmax-weighted sum of their slices; a
    query's output concatenates its heads' readouts.
    """
    if features.ndim != 2 or queries.ndim != 2 or queries.shape[1] != features.shape[1]:
        raise _shape_error("head_readout", features.shape, queries.shape)
    n, d = features.shape
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"head_readout: {heads} heads cannot split dimension {d}")
    q = queries.data
    sizes = np.array(sizes, dtype=np.intp)
    if sizes.shape != (len(q),) or np.any(sizes < 1) or sizes.sum() != n:
        raise ShapeError(f"head_readout: segment sizes {sizes.tolist()} do not split "
                         f"{n} rows among {len(q)} queries")
    starts = np.cumsum(sizes) - sizes
    segment = np.repeat(np.arange(len(q)), sizes)
    head_dim = d // heads
    inv_sqrt = 1.0 / math.sqrt(head_dim)
    per_head = features.data.reshape(n, heads, head_dim)
    q_rows = q[segment].reshape(n, heads, head_dim)                          # each row's query
    logits = np.einsum("nhj,nhj->nh", per_head, q_rows) * inv_sqrt          # (n, heads)
    e = np.exp(logits - np.maximum.reduceat(logits, starts)[segment])
    weights = e / np.add.reduceat(e, starts)[segment]
    data = np.add.reduceat(weights[:, :, None] * per_head, starts).reshape(len(q), d)

    def backward(g):
        g_rows = g.reshape(len(q), heads, head_dim)[segment]                   # (n, heads, hd)
        d_weights = np.einsum("nhj,nhj->nh", per_head, g_rows)
        inner = np.add.reduceat(d_weights * weights, starts)[segment]
        d_logits = weights * (d_weights - inner) * inv_sqrt
        if features.requires_grad:
            features.accumulate((weights[:, :, None] * g_rows
                                 + d_logits[:, :, None] * q_rows).reshape(n, d))
        if queries.requires_grad:
            queries.accumulate(np.add.reduceat(d_logits[:, :, None] * per_head, starts)
                               .reshape(len(q), d))

    return _node(data, (features, queries), "head_readout", backward)


def dropout(a, rate, rng):
    """Inverted dropout: zeroes each entry with prob `rate` and rescales
    survivors by 1/(1-rate), one mask of `a`'s shape drawn from the
    generator `rng`.  With no generator (evaluation) or rate 0 it returns
    `a` itself and draws nothing."""
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout: rate must lie in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return a
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
            logits.accumulate(g * (_logistic(s) - y))

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
