"""Prototype construction from support-image local features and a label vector.

A label's prototype is the sum of two parts: a channel-grouped cross-
attention readout of the label's support features queried by its word
embedding, and a dynamic-convolution branch whose two kernels are generated
from that embedding and applied to the features most similar to it.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError

log = logging.getLogger(__name__)


@dataclass
class LabelSupportPool:
    """The local features backing one label's prototype.

    features: (count, joint_dim) projected local features, on tape, rows in
    (support image, grid row, grid col) order.
    """

    label: str
    features: Tensor

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ConfigError(f"support pool for {self.label!r} must be a non-empty matrix")


@dataclass
class AttentionParams:
    """Per-head query transforms plus the output MLP."""

    queries: list[Tensor]   # heads x (head_dim, joint_dim)
    mlp_w1: Tensor          # (joint_dim, joint_dim)
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor
    dropout: float = 0.1

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


def init_attention(joint_dim: int, heads: int, rng, dropout: float = 0.1) -> AttentionParams:
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


def attention_prototype(params: AttentionParams, pool: LabelSupportPool, label_joint: Tensor,
                        rng=None, training: bool = False) -> Tensor:
    """Channel-grouped cross-attention readout of the pool, queried by the label.

    Head j sees the j-th channel slice of every pooled feature as both key
    and value; its query is that head's transform of the label vector.  The
    stacked head transforms map the label vector to every head's query in
    one product, one `head_readout` node reads all heads out, and the
    concatenated head outputs pass through the MLP.
    """
    joint_dim = params.mlp_w1.shape[0]
    if pool.features.shape[1] != joint_dim:
        raise ConfigError(
            f"pool features have dim {pool.features.shape[1]}, attention expects {joint_dim}"
        )
    queries = ad.matmul(ad.concat(params.queries, axis=0), label_joint)   # (joint_dim,)
    merged = ad.head_readout(pool.features, queries, params.heads)        # (joint_dim,)
    hidden = ad.gelu(ad.add(ad.matmul(params.mlp_w1, merged), params.mlp_b1))
    hidden = ad.dropout(hidden, params.dropout, rng=rng, training=training)
    out = ad.add(ad.matmul(params.mlp_w2, hidden), params.mlp_b2)
    return out


def select_top_features(pool: LabelSupportPool, label_joint: Tensor, top_count: int) -> Tensor:
    """Pick the `top_count` pool rows most cosine-similar to the label vector.

    Ties break by ascending row, that is by (support image, grid row, grid
    col); zero-norm rows are excluded with one warning.  Returns the
    selected rows.
    """
    if top_count < 1:
        raise ConfigError(f"top_count must be >= 1, got {top_count}")
    values = pool.features.data
    norms = np.linalg.norm(values, axis=1)
    label_vec = label_joint.data
    label_norm = np.linalg.norm(label_vec)
    if label_norm == 0.0:
        raise ad.DegenerateVectorError("degenerate-vector: label vector has zero length")
    rows = np.flatnonzero(norms)
    if rows.size == 0:
        raise ConfigError(f"empty-selection: every feature in pool {pool.label!r} has zero norm")
    if rows.size < norms.size:
        log.warning("pool %r: %d features have zero norm, excluded from selection",
                    pool.label, norms.size - rows.size)
    similarity = (values[rows] @ label_vec) / (norms[rows] * label_norm)
    picked = rows[np.lexsort((rows, -similarity))[:top_count]]
    return ad.gather_rows(pool.features, picked)


def dynconv_prototype(params: DynConvParams, selected: Tensor, label_joint: Tensor) -> Tensor:
    """Two generated-kernel stages over the selected features, mean-combined.

    Both kernels come from linear maps of the label vector.  Each stage is
    matrix-multiply, layer norm, ReLU; the output averages over however
    many features were actually selected.
    """
    if selected.ndim != 2 or selected.shape[0] < 1:
        raise ConfigError("dynconv: needs at least one selected feature")
    inner, joint = params.inner_dim, params.joint_dim
    kernel1 = ad.reshape(ad.add(ad.matmul(params.gen1_weight, label_joint), params.gen1_bias),
                         (inner, joint))
    kernel2 = ad.reshape(ad.add(ad.matmul(params.gen2_weight, label_joint), params.gen2_bias),
                         (joint, inner))
    mid = ad.relu(ad.layer_norm(ad.matmul(selected, ad.transpose(kernel1)),
                                params.norm1_gain, params.norm1_bias))
    out_rows = ad.relu(ad.layer_norm(ad.matmul(mid, ad.transpose(kernel2)),
                                     params.norm2_gain, params.norm2_bias))
    return ad.mean(out_rows, axis=0)


def build_prototype(attention: AttentionParams, dynconv: DynConvParams,
                    pool: LabelSupportPool, label_joint: Tensor,
                    rng=None, training: bool = False) -> Tensor:
    """Sum of the attention and dynamic-convolution components."""
    att_part = attention_prototype(attention, pool, label_joint, rng=rng, training=training)
    selected = select_top_features(pool, label_joint, dynconv.top_count)
    return ad.add(att_part, dynconv_prototype(dynconv, selected, label_joint))


def simple_attention_prototype(global_joints: Tensor, label_joint: Tensor, scale: float) -> Tensor:
    """Baseline prototype: softmax(scale * cos)-weighted average of the rows
    of the label's (count, joint_dim) projected support global features."""
    if global_joints.ndim != 2 or global_joints.shape[0] < 1:
        raise ConfigError("simple attention needs at least one support feature")
    row = ad.reshape(label_joint, (1, label_joint.shape[0]))
    logits = ad.scale(ad.cosine(global_joints, row), scale)               # (count, 1)
    weights = ad.softmax(ad.reshape(logits, (global_joints.shape[0],)))
    return ad.matmul(weights, global_joints)
