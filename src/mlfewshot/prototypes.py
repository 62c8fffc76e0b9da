"""Prototype construction from support-image local features and label vectors.

A label's prototype is the sum of two parts: a channel-grouped cross-
attention readout of the label's support features queried by its word
embedding, and a dynamic-convolution branch whose two kernels are generated
from that embedding and applied to the features most similar to it.  Every
function here builds all of an episode's labels at once: their support
features are one row-segmented matrix, their label vectors one matrix, and
each step is one tape op for every label together.  What the label
vectors alone give, their head queries and generated kernels, is one
`LabelSide`: training builds it per episode, evaluation once per run.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError

log = logging.getLogger(__name__)


@dataclass
class SupportPools:
    """The local features backing every episode label's prototype.

    features: (rows, joint_dim) projected local features, on tape, one
    segment of rows per label in label order; a label's rows are in
    (support image, grid row, grid col) order.  sizes: each label's row count.
    """

    labels: tuple
    features: Tensor
    sizes: np.ndarray

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.sizes = np.asarray(self.sizes, dtype=np.intp)
        if self.features.ndim != 2 or self.sizes.shape != (len(self.labels),) \
                or self.sizes.sum() != self.features.shape[0]:
            raise ConfigError(f"support pools for {self.labels!r} must be a non-empty matrix "
                              "split into one row segment per label")
        for label, size in zip(self.labels, self.sizes):
            if size < 1:
                raise ConfigError(f"support pool for {label!r} must be a non-empty matrix")

    @property
    def segment(self) -> np.ndarray:
        """The label index of every row."""
        return np.repeat(np.arange(len(self.labels)), self.sizes)


@dataclass
class AttentionParams:
    """Per-head query transforms plus the output MLP."""

    queries: list[Tensor]   # heads x (head_dim, joint_dim)
    mlp_w1: Tensor          # (joint_dim, joint_dim)
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor
    dropout: float

    @property
    def heads(self):
        return len(self.queries)

    @property
    def head_dim(self):
        return self.queries[0].shape[0]

    def parameters(self) -> dict[str, Tensor]:
        out = {f"attention.query.{j}": q for j, q in enumerate(self.queries)}
        out.update({
            "attention.mlp.w1": self.mlp_w1,
            "attention.mlp.b1": self.mlp_b1,
            "attention.mlp.w2": self.mlp_w2,
            "attention.mlp.b2": self.mlp_b2,
        })
        return out


@dataclass
class DynConvParams:
    """Kernel generators and per-stage norms for the dynamic-convolution branch."""

    gen1_weight: Tensor   # (inner_dim * joint_dim, joint_dim)
    gen1_bias: Tensor
    gen2_weight: Tensor   # (joint_dim * inner_dim, joint_dim)
    gen2_bias: Tensor
    norm1_gain: Tensor    # (inner_dim,)
    norm1_bias: Tensor
    norm2_gain: Tensor    # (joint_dim,)
    norm2_bias: Tensor
    top_count: int        # how many most-similar features feed the branch

    @property
    def inner_dim(self):
        return self.norm1_gain.shape[0]

    @property
    def joint_dim(self):
        return self.norm2_gain.shape[0]

    def parameters(self) -> dict[str, Tensor]:
        return {
            "dynconv.gen1.weight": self.gen1_weight,
            "dynconv.gen1.bias": self.gen1_bias,
            "dynconv.gen2.weight": self.gen2_weight,
            "dynconv.gen2.bias": self.gen2_bias,
            "dynconv.norm1.gain": self.norm1_gain,
            "dynconv.norm1.bias": self.norm1_bias,
            "dynconv.norm2.gain": self.norm2_gain,
            "dynconv.norm2.bias": self.norm2_bias,
        }


def _uniform(rng, shape, fan_in, gain: float = 1.0):
    bound = gain / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


# Near-identity starting points: the output MLP opens as (roughly) the
# identity map and each head's query transform as the slice of the label
# vector that the head attends with, so an untrained prototype is already
# an attention-pooled support feature instead of a random mix.  Small
# uniform noise breaks symmetry; training moves things from there.
_INIT_NOISE = 0.1
# Gain on the identity slice of each query transform; >1 makes the initial
# attention peakier (projected features give tiny dot products otherwise).
_QUERY_GAIN = 8.0
# The kernel generators start mostly label-independent (bias-dominated)
# and the second norm gain starts small so this branch does not drown the
# attention branch before training balances them.
_GEN_NOISE = 0.25
_NORM2_GAIN = 0.05


def _near_identity(rng, dim):
    noise = _uniform(rng, (dim, dim), dim, gain=_INIT_NOISE).data
    return Tensor(np.eye(dim) + noise, requires_grad=True)


def init_attention(joint_dim: int, heads: int, rng, dropout: float) -> AttentionParams:
    if heads < 1 or joint_dim % heads != 0:
        raise ConfigError(f"head count {heads} must divide the joint dimension {joint_dim}")
    head_dim = joint_dim // heads
    queries = []
    for j in range(heads):
        base = np.zeros((head_dim, joint_dim))
        base[:, j * head_dim:(j + 1) * head_dim] = _QUERY_GAIN * np.eye(head_dim)
        noise = _uniform(rng, (head_dim, joint_dim), joint_dim, gain=_INIT_NOISE).data
        queries.append(Tensor(base + noise, requires_grad=True))
    return AttentionParams(
        queries=queries,
        mlp_w1=_near_identity(rng, joint_dim),
        mlp_b1=Tensor(np.zeros(joint_dim), requires_grad=True),
        mlp_w2=_near_identity(rng, joint_dim),
        mlp_b2=Tensor(np.zeros(joint_dim), requires_grad=True),
        dropout=dropout,
    )


def init_dynconv(joint_dim: int, inner_dim: int, top_count: int, rng) -> DynConvParams:
    if inner_dim < 1 or top_count < 1:
        raise ConfigError(f"dynconv needs positive dims, got inner {inner_dim}, top {top_count}")
    return DynConvParams(
        gen1_weight=_uniform(rng, (inner_dim * joint_dim, joint_dim), joint_dim, gain=_GEN_NOISE),
        gen1_bias=_uniform(rng, (inner_dim * joint_dim,), joint_dim),
        gen2_weight=_uniform(rng, (joint_dim * inner_dim, joint_dim), joint_dim, gain=_GEN_NOISE),
        gen2_bias=_uniform(rng, (joint_dim * inner_dim,), joint_dim),
        norm1_gain=Tensor(np.ones(inner_dim), requires_grad=True),
        norm1_bias=Tensor(np.zeros(inner_dim), requires_grad=True),
        norm2_gain=Tensor(np.full(joint_dim, _NORM2_GAIN), requires_grad=True),
        norm2_bias=Tensor(np.zeros(joint_dim), requires_grad=True),
        top_count=top_count,
    )


@dataclass
class LabelSide:
    """What the prototypes take from the label vectors alone.

    joints: the (labels, joint_dim) label vectors; queries: every label's
    head queries, (labels, joint_dim); kernel1 and kernel2: every label's
    generated (inner_dim, joint_dim) and (joint_dim, inner_dim) kernels.
    A frozen model's side serves every episode over the same labels.
    """

    joints: Tensor
    queries: Tensor
    kernel1: Tensor
    kernel2: Tensor


def label_side(attention: AttentionParams, dynconv: DynConvParams, joints: Tensor) -> LabelSide:
    """The label side of the (labels, joint_dim) label vectors: the stacked
    head transforms map every label vector to all its heads' queries in one
    product, and each kernel is one linear map of the label vectors."""
    labels = joints.shape[0]
    inner, joint = dynconv.inner_dim, dynconv.joint_dim
    return LabelSide(
        joints=joints,
        queries=ad.linear(joints, ad.concat(attention.queries)),
        kernel1=ad.reshape(ad.linear(joints, dynconv.gen1_weight, dynconv.gen1_bias),
                           (labels, inner, joint)),
        kernel2=ad.reshape(ad.linear(joints, dynconv.gen2_weight, dynconv.gen2_bias),
                           (labels, joint, inner)))


def attention_prototype(params: AttentionParams, pools: SupportPools, queries: Tensor,
                        rng) -> Tensor:
    """Channel-grouped cross-attention readout of each label's pool, queried
    by that label's row of the (labels, joint_dim) `queries` (a `LabelSide`'s);
    returns the (labels, joint_dim) readouts.

    Head j sees the j-th channel slice of every pooled feature as both key
    and value, and the j-th slice of the label's queries as its query.  One
    `head_readout` node reads every label's segment out, and the
    concatenated head outputs pass through the MLP, with one dropout mask
    over every label's hidden row drawn from `rng` (None in evaluation).
    """
    joint_dim = params.mlp_w1.shape[0]
    if pools.features.shape[1] != joint_dim:
        raise ConfigError(
            f"pool features have dim {pools.features.shape[1]}, attention expects {joint_dim}"
        )
    merged = ad.head_readout(pools.features, queries, params.heads, pools.sizes)
    hidden = ad.gelu(ad.linear(merged, params.mlp_w1, params.mlp_b1))
    hidden = ad.dropout(hidden, params.dropout, rng)
    return ad.linear(hidden, params.mlp_w2, params.mlp_b2)


def select_top_features(pools: SupportPools, label_joints: Tensor,
                        top_count: int) -> tuple[Tensor, np.ndarray]:
    """Pick each label's `top_count` pool rows most cosine-similar to its vector.

    Ties break by ascending row, that is by (support image, grid row, grid
    col); zero-norm rows are excluded with one warning per pool.  Returns
    the (labels, width, joint_dim) selected rows, width the most any label
    selected, and each label's count: label i's first counts[i] rows are
    its picks in similarity order, the rest repeat its first pick as padding.
    `top_count` is at least one: `init_dynconv` checks it.
    """
    values = pools.features.data
    joints = label_joints.data
    label_norms = np.sqrt(np.add.reduce(joints * joints, axis=1))
    if not np.all(label_norms):
        raise ad.DegenerateVectorError("degenerate-vector: label vector has zero length")
    norms = np.sqrt(np.add.reduce(values * values, axis=1))
    segment = pools.segment
    rows = np.flatnonzero(norms)
    zero_rows = np.bincount(segment[norms == 0.0], minlength=len(pools.labels))
    for li in np.flatnonzero(zero_rows):                 # only labels with zero-norm rows
        label = pools.labels[li]
        if zero_rows[li] == pools.sizes[li]:
            raise DataError(f"empty-selection: every feature in pool {label!r} has zero norm")
        log.warning("pool %r: %d features have zero norm, excluded from selection",
                    label, zero_rows[li])
    owner = segment[rows]
    similarity = np.einsum("ij,ij->i", values[rows], joints[owner]) \
        / (norms[rows] * label_norms[owner])
    ranked = np.lexsort((rows, -similarity, owner))                         # label-major
    owner, rows = owner[ranked], rows[ranked]
    first = np.searchsorted(owner, np.arange(len(pools.labels)))
    rank = np.arange(len(rows)) - first[owner]
    counts = np.minimum(pools.sizes - zero_rows, top_count)
    picks = np.repeat(rows[first][:, None], counts.max(), axis=1)
    chosen = rank < top_count
    picks[owner[chosen], rank[chosen]] = rows[chosen]
    selected = ad.gather_rows(pools.features, picks.reshape(-1))
    return ad.reshape(selected, picks.shape + (values.shape[1],)), counts


def dynconv_prototype(params: DynConvParams, selected: Tensor, counts,
                      kernel1: Tensor, kernel2: Tensor) -> Tensor:
    """Two generated-kernel stages over each label's selected features,
    mean-combined; returns the (labels, joint_dim) outputs.

    Each stage is matrix-multiply by the label's generated kernel (a
    `LabelSide`'s `kernel1`, then its `kernel2`), layer norm, ReLU, applied
    to the (labels, width, joint_dim) `selected` rows batch by batch; a
    label's output averages its first counts[i] rows, the ones actually
    selected, and ignores the padding after them.
    """
    counts = np.asarray(counts, dtype=np.intp)
    if selected.ndim != 3 or selected.shape[1] < 1 or counts.shape != selected.shape[:1] \
            or np.any(counts < 1) or np.any(counts > selected.shape[1]):
        raise ConfigError("dynconv: needs at least one selected feature per label")
    labels, width = selected.shape[:2]
    mid = ad.relu(ad.layer_norm(ad.linear(selected, kernel1),
                                params.norm1_gain, params.norm1_bias))
    out_rows = ad.relu(ad.layer_norm(ad.linear(mid, kernel2),
                                     params.norm2_gain, params.norm2_bias))
    # row i of the averaging matrix holds 1/counts[i] over label i's selected rows
    averaging = np.zeros((labels, labels, width))
    averaging[np.arange(labels), np.arange(labels)] = \
        (np.arange(width) < counts[:, None]) / counts[:, None]
    return ad.matmul(Tensor(averaging.reshape(labels, labels * width)),
                     ad.reshape(out_rows, (labels * width, params.joint_dim)))


def build_prototype(attention: AttentionParams, dynconv: DynConvParams,
                    pools: SupportPools, side: LabelSide, rng) -> Tensor:
    """Every label's prototype, the sum of its attention and dynamic-convolution
    components: the (labels, joint_dim) matrix, in pool label order.  `side`
    is the label side of the pools' labels, in that order; `rng` draws the
    attention branch's dropout mask, None means evaluation."""
    att_part = attention_prototype(attention, pools, side.queries, rng)
    selected, counts = select_top_features(pools, side.joints, dynconv.top_count)
    dyn_part = dynconv_prototype(dynconv, selected, counts, side.kernel1, side.kernel2)
    return ad.add(att_part, dyn_part)


def simple_attention_prototype(global_joints: Tensor, label_joint: Tensor, scale: float) -> Tensor:
    """Baseline prototype: softmax(scale * cos)-weighted average of the rows
    of the label's (count, joint_dim) projected support global features, as
    a (1, joint_dim) row."""
    if global_joints.ndim != 2 or global_joints.shape[0] < 1:
        raise ConfigError("simple attention needs at least one support feature")
    row = ad.reshape(label_joint, (1, label_joint.shape[0]))
    logits = ad.scale(ad.cosine(row, global_joints), scale)               # (1, count)
    return ad.matmul(ad.softmax(logits), global_joints)
