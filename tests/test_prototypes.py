"""Attention and dynamic-convolution prototype construction."""

import logging
import math

import numpy as np
import pytest

from mlfewshot import autodiff as ad
from mlfewshot.autodiff import Tensor
from mlfewshot.errors import ConfigError, DataError
from mlfewshot.prototypes import (
    DynConvParams,
    SupportPools,
    attention_prototype,
    build_prototype,
    dynconv_prototype,
    init_attention,
    init_dynconv,
    label_side,
    select_top_features,
    simple_attention_prototype,
)


def one_pool(rows, label="x", requires_grad=False):
    """A single label's pool: one row segment holding every row."""
    return SupportPools((label,), Tensor(rows, requires_grad=requires_grad), [len(rows)])


def make_pool(rng, count=5, dim=8, label="cat"):
    return one_pool(rng.standard_normal((count, dim)), label, requires_grad=True)


def label_row(values, requires_grad=False):
    """One label vector as the (1, dim) matrix the batched functions take."""
    return Tensor(np.asarray(values, dtype=np.float64).reshape(1, -1),
                  requires_grad=requires_grad)


def picked(pool, label, top):
    """The rows select_top_features picks for a one-label pool."""
    selected, counts = select_top_features(pool, label, top)
    return selected.data[0, :counts[0]]


def make_params(rng, dim=8, heads=2, inner=3, top=3, dropout=0.0):
    att = init_attention(dim, heads, rng, dropout=dropout)
    dyn = init_dynconv(dim, inner, top, rng)
    return att, dyn


def head_queries(att, joints):
    """Every label's head queries, the ops `label_side` builds them with."""
    return ad.linear(joints, ad.concat(att.queries))


def kernels(dyn, joints):
    """Every label's two generated kernels, the ops `label_side` builds them with."""
    labels, inner, dim = joints.shape[0], dyn.inner_dim, dyn.joint_dim
    return (ad.reshape(ad.linear(joints, dyn.gen1_weight, dyn.gen1_bias), (labels, inner, dim)),
            ad.reshape(ad.linear(joints, dyn.gen2_weight, dyn.gen2_bias), (labels, dim, inner)))


# ---------------------------------------------------------------- attention


def test_single_feature_pool_is_mlp_of_that_feature():
    rng = np.random.default_rng(0)
    att, _ = make_params(rng)
    row = rng.standard_normal(8)
    pool = one_pool(row.reshape(1, 8))
    out = attention_prototype(att, pool, head_queries(att, label_row(rng.standard_normal(8))),
                              None)
    # softmax over one feature is 1, so the readout is exactly MLP(row)
    from scipy.special import erf
    h = att.mlp_w1.data @ row + att.mlp_b1.data
    g = 0.5 * h * (1.0 + erf(h / np.sqrt(2.0)))
    expected = att.mlp_w2.data @ g + att.mlp_b2.data
    assert np.allclose(out.data[0], expected, atol=1e-12)


def test_head_count_must_divide_joint_dim():
    with pytest.raises(ConfigError):
        init_attention(8, 3, np.random.default_rng(0), dropout=0.0)


@pytest.mark.parametrize("inner,top", [(0, 3), (3, 0)])
def test_dynconv_sizes_must_be_positive(inner, top):
    # the one check of top_count, on the init and the checkpoint-load paths alike
    with pytest.raises(ConfigError, match="dynconv needs positive dims"):
        init_dynconv(8, inner, top, np.random.default_rng(0))


def channel_slices(x, count):
    """The `count` equal channel (column) slices of a matrix, on the tape:
    row blocks of its transpose, transposed back."""
    return [ad.transpose(part) for part in ad.split(ad.transpose(x), count)]


def test_channel_split_concat_reconstructs():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((3, 8)))
    parts = channel_slices(x, 4)
    assert [p.shape for p in parts] == [(3, 2)] * 4
    back = ad.transpose(ad.concat([ad.transpose(p) for p in parts]))
    assert np.array_equal(back.data, x.data)


def test_attention_is_permutation_invariant():
    rng = np.random.default_rng(3)
    att, _ = make_params(rng)
    queries = head_queries(att, label_row(rng.standard_normal(8)))
    pool = make_pool(rng, count=6)
    perm = np.random.default_rng(9).permutation(6)
    shuffled = one_pool(pool.features.data[perm], "cat")
    a = attention_prototype(att, pool, queries, None)
    b = attention_prototype(att, shuffled, queries, None)
    assert np.allclose(a.data, b.data, atol=1e-12)


def test_dropout_only_acts_in_training_mode():
    rng = np.random.default_rng(4)
    att, _ = make_params(rng, dropout=0.5)
    pool = make_pool(rng)
    queries = head_queries(att, label_row(rng.standard_normal(8)))
    quiet = attention_prototype(att, pool, queries, None)
    again = attention_prototype(att, pool, queries, None)
    assert np.array_equal(quiet.data, again.data)
    noisy = attention_prototype(att, pool, queries, np.random.default_rng(5))
    assert not np.array_equal(quiet.data, noisy.data)


# ------------------------------------------------------------ top selection


def test_top_selection_orders_by_similarity():
    label = label_row([1.0, 0.0])
    rows = np.array([[0.0, 1.0],    # cos 0
                     [1.0, 0.0],    # cos 1
                     [1.0, 1.0],    # cos 0.707
                     [-1.0, 0.0]])  # cos -1
    assert np.array_equal(picked(one_pool(rows), label, 2), rows[[1, 2]])


def test_top_selection_breaks_ties_by_row():
    label = label_row([1.0, 0.0])
    rows = np.array([[0.0, 1.0],    # cos 0
                     [2.0, 0.0],    # cos 1
                     [1.0, 1.0],    # cos 0.707
                     [1.0, 0.0],    # cos 1
                     [3.0, 0.0]])   # cos 1
    pool = one_pool(rows)
    # equal cosines keep row order: rows 1, 3, 4, then the 0.707 row
    for top, expected in [(2, [1, 3]), (4, [1, 3, 4, 2])]:
        assert np.array_equal(picked(pool, label, top), rows[expected])


def test_top_selection_skips_zero_norm_rows(caplog):
    label = label_row([1.0, 0.0])
    rows = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    with caplog.at_level(logging.WARNING):
        selected = picked(one_pool(rows), label, 3)
    assert np.array_equal(selected, rows[[1]])
    assert [r.getMessage() for r in caplog.records] == [
        "pool 'x': 2 features have zero norm, excluded from selection"]


def test_top_selection_saturates_at_pool_size():
    rng = np.random.default_rng(6)
    pool = make_pool(rng, count=3)
    selected, counts = select_top_features(pool, label_row(rng.standard_normal(8)), 10)
    assert selected.shape == (1, 3, 8) and counts.tolist() == [3]


def test_all_zero_pool_is_an_error():
    pool = one_pool(np.zeros((2, 2)))
    with pytest.raises(DataError, match="empty-selection"):
        select_top_features(pool, label_row([1.0, 0.0]), 1)


def test_zero_label_vector_rejected():
    rng = np.random.default_rng(7)
    pool = make_pool(rng, count=2)
    with pytest.raises(ad.DegenerateVectorError):
        select_top_features(pool, label_row(np.zeros(8)), 1)


# ------------------------------------------------------------------ dynconv


def test_dynconv_divides_by_actual_count():
    # a top_count larger than the pool means the mean runs over the pool
    rng = np.random.default_rng(8)
    _, dyn = make_params(rng, top=10)
    kernel1, kernel2 = kernels(dyn, label_row(rng.standard_normal(8)))
    rows = rng.standard_normal((3, 8))
    out3 = dynconv_prototype(dyn, Tensor(rows[None]), [3], kernel1, kernel2)
    # doubling every row duplicates the stage outputs; the mean is unchanged
    out6 = dynconv_prototype(dyn, Tensor(np.vstack([rows, rows])[None]), [6], kernel1, kernel2)
    assert np.allclose(out3.data, out6.data, atol=1e-12)


def test_dynconv_zero_generators_zero_norm_bias_gives_zero():
    dim, inner = 4, 2
    dyn = DynConvParams(
        gen1_weight=Tensor(np.zeros((inner * dim, dim))),
        gen1_bias=Tensor(np.zeros(inner * dim)),
        gen2_weight=Tensor(np.zeros((dim * inner, dim))),
        gen2_bias=Tensor(np.zeros(dim * inner)),
        norm1_gain=Tensor(np.ones(inner)),
        norm1_bias=Tensor(np.zeros(inner)),
        norm2_gain=Tensor(np.ones(dim)),
        norm2_bias=Tensor(np.zeros(dim)),
        top_count=2,
    )
    out = dynconv_prototype(dyn, Tensor(np.ones((1, 2, dim))), [2],
                            *kernels(dyn, label_row(np.ones(dim))))
    assert np.array_equal(out.data, np.zeros((1, dim)))


def test_dynconv_output_is_nonnegative():
    rng = np.random.default_rng(9)
    _, dyn = make_params(rng)
    out = dynconv_prototype(dyn, Tensor(rng.standard_normal((1, 4, 8))), [4],
                            *kernels(dyn, label_row(rng.standard_normal(8))))
    assert np.all(out.data >= 0.0)


def test_dynconv_rejects_empty_selection():
    rng = np.random.default_rng(10)
    _, dyn = make_params(rng)
    with pytest.raises(ConfigError):
        dynconv_prototype(dyn, Tensor(np.zeros((1, 0, 8))), [0],
                          *kernels(dyn, label_row(rng.standard_normal(8))))


# ----------------------------------------------------------- full prototype


def test_prototype_is_exact_sum_of_parts():
    rng = np.random.default_rng(11)
    att, dyn = make_params(rng)
    pool = make_pool(rng)
    side = label_side(att, dyn, label_row(rng.standard_normal(8)))
    proto = build_prototype(att, dyn, pool, side, None)
    att_part = attention_prototype(att, pool, side.queries, None)
    dyn_part = dynconv_prototype(dyn, *select_top_features(pool, side.joints, dyn.top_count),
                                 side.kernel1, side.kernel2)
    assert np.array_equal(proto.data, att_part.data + dyn_part.data)


def test_label_side_is_each_branchs_label_inputs():
    rng = np.random.default_rng(14)
    att, dyn = make_params(rng)
    joints = Tensor(rng.standard_normal((3, 8)))
    side = label_side(att, dyn, joints)
    assert side.joints is joints
    assert np.array_equal(side.queries.data, head_queries(att, joints).data)
    for got, want in zip((side.kernel1, side.kernel2), kernels(dyn, joints)):
        assert np.array_equal(got.data, want.data)
    assert side.kernel1.shape == (3, 3, 8) and side.kernel2.shape == (3, 8, 3)


def test_prototype_eval_is_deterministic():
    rng = np.random.default_rng(12)
    att, dyn = make_params(rng)
    pool = make_pool(rng)
    side = label_side(att, dyn, label_row(rng.standard_normal(8)))
    a = build_prototype(att, dyn, pool, side, None)
    b = build_prototype(att, dyn, pool, side, None)
    assert np.array_equal(a.data, b.data)


def test_gradients_reach_every_parameter_group():
    rng = np.random.default_rng(13)
    att, dyn = make_params(rng)
    pool = make_pool(rng)
    label = label_row(rng.standard_normal(8), requires_grad=True)
    proto = build_prototype(att, dyn, pool, label_side(att, dyn, label), None)
    ad.tensor_sum(proto).backward()
    for name, p in {**att.parameters(), **dyn.parameters()}.items():
        assert p.grad is not None, name
    assert pool.features.grad is not None
    assert label.grad is not None
    grads = np.concatenate([p.grad.reshape(-1) for p in att.parameters().values()])
    assert np.any(grads != 0.0)


def test_init_shapes_and_determinism():
    att1, dyn1 = make_params(np.random.default_rng(14), dim=8, heads=4, inner=3, top=5)
    att2, dyn2 = make_params(np.random.default_rng(14), dim=8, heads=4, inner=3, top=5)
    assert att1.heads == 4 and att1.head_dim == 2
    assert dyn1.inner_dim == 3 and dyn1.joint_dim == 8 and dyn1.top_count == 5
    for (n1, p1), (n2, p2) in zip(sorted(att1.parameters().items()),
                                  sorted(att2.parameters().items())):
        assert n1 == n2 and np.array_equal(p1.data, p2.data)
    for (n1, p1), (n2, p2) in zip(sorted(dyn1.parameters().items()),
                                  sorted(dyn2.parameters().items())):
        assert n1 == n2 and np.array_equal(p1.data, p2.data)


# --------------------------------------------------------- simple attention


def test_simple_attention_single_feature_is_that_feature():
    rng = np.random.default_rng(15)
    g = Tensor(rng.standard_normal((1, 6)))
    out = simple_attention_prototype(g, Tensor(rng.standard_normal(6)), 10.0)
    assert np.allclose(out.data, g.data[0], atol=1e-15)


def test_simple_attention_equal_cosines_average():
    label = Tensor(np.array([1.0, 0.0]))
    rows = Tensor(np.array([[2.0, 2.0],
                            [0.5, 0.5]]))   # same direction, same cosine
    out = simple_attention_prototype(rows, label, 7.0)
    assert np.allclose(out.data, [1.25, 1.25], atol=1e-12)


def test_simple_attention_large_scale_picks_argmax():
    rng = np.random.default_rng(16)
    label = Tensor(np.array([1.0, 0.0, 0.0]))
    feats = Tensor(rng.standard_normal((5, 3)))
    cosines = (feats.data @ label.data) / np.linalg.norm(feats.data, axis=1)
    best = feats.data[int(np.argmax(cosines))]
    out = simple_attention_prototype(feats, label, 1e3)
    assert np.max(np.abs(out.data - best)) <= 1e-6


def test_simple_attention_needs_features():
    with pytest.raises(ConfigError):
        simple_attention_prototype(Tensor(np.zeros((0, 2))), Tensor(np.ones(2)), 1.0)


def test_pool_validation():
    for features in (np.zeros((0, 4)), np.zeros(4)):
        with pytest.raises(ConfigError, match="non-empty matrix"):
            SupportPools(("x",), Tensor(features), [len(features)])


# ------------------------------------------------ batched vs the per-label loop


def column(t):
    return ad.reshape(t, (t.size, 1))


def per_label_prototype(attention, dynconv, pool, label_joint, draws=None):
    """One label's prototype as the per-label code built it: each head's
    query and softmax on its own channel slice, the MLP and dropout on one
    vector, the top rows by cosine, and both generated-kernel stages on
    that label alone, averaged as a ones row times the stage's rows.
    `draws` is the label's row of the uniform draws behind the batched
    dropout mask, or None for none."""
    inv_sqrt = 1.0 / math.sqrt(attention.head_dim)
    head_outputs = []
    for transform, chunk in zip(attention.queries, channel_slices(pool, attention.heads)):
        query = ad.matmul(transform, column(label_joint))
        weights = ad.softmax(ad.reshape(ad.scale(ad.matmul(chunk, query), inv_sqrt),
                                        (1, chunk.shape[0])))
        head_outputs.append(column(ad.matmul(weights, chunk)))
    merged = ad.concat(head_outputs)
    hidden = ad.gelu(ad.add(ad.matmul(attention.mlp_w1, merged), column(attention.mlp_b1)))
    if draws is not None:
        hidden = ad.mul(hidden, Tensor(((draws >= attention.dropout)
                                        / (1.0 - attention.dropout)).reshape(-1, 1)))
    att_part = ad.add(ad.matmul(attention.mlp_w2, hidden), column(attention.mlp_b2))
    att_part = ad.reshape(att_part, (att_part.size,))

    norms = np.linalg.norm(pool.data, axis=1)
    rows = np.flatnonzero(norms)
    similarity = (pool.data[rows] @ label_joint.data) / (norms[rows]
                                                          * np.linalg.norm(label_joint.data))
    selected = ad.gather_rows(pool, rows[np.lexsort((rows, -similarity))[:dynconv.top_count]])
    inner, joint = dynconv.inner_dim, dynconv.joint_dim
    kernel1 = ad.reshape(ad.add(ad.matmul(dynconv.gen1_weight, column(label_joint)),
                                column(dynconv.gen1_bias)), (inner, joint))
    kernel2 = ad.reshape(ad.add(ad.matmul(dynconv.gen2_weight, column(label_joint)),
                                column(dynconv.gen2_bias)), (joint, inner))
    mid = ad.relu(ad.layer_norm(ad.matmul(selected, ad.transpose(kernel1)),
                                dynconv.norm1_gain, dynconv.norm1_bias))
    out_rows = ad.relu(ad.layer_norm(ad.matmul(mid, ad.transpose(kernel2)),
                                     dynconv.norm2_gain, dynconv.norm2_bias))
    count = out_rows.shape[0]
    mean_row = ad.scale(ad.matmul(Tensor(np.ones((1, count))), out_rows), 1.0 / count)
    return ad.add(att_part, ad.reshape(mean_row, (joint,)))


def assert_close(a, b, tol=1e-12):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= tol * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("case", ["short-pool", "zero-norm-row", "training-dropout"])
def test_batched_prototypes_match_the_per_label_loop(case, caplog):
    rng = np.random.default_rng([41, len(case)])
    att, dyn = make_params(rng, dim=8, heads=2, inner=3, top=4, dropout=0.3)
    sizes = [6, 2, 9]                       # the second pool is smaller than top_count
    values = rng.standard_normal((sum(sizes), 8))
    if case == "zero-norm-row":
        values[3] = 0.0                     # a row of the first pool
    features = Tensor(values, requires_grad=True)
    joints = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
    pools = SupportPools(("a", "b", "c"), features, sizes)
    training = case == "training-dropout"
    weights = Tensor(rng.standard_normal((3, 8)))

    def rng():
        return np.random.default_rng(5) if training else None

    def batched():
        return build_prototype(att, dyn, pools, label_side(att, dyn, joints), rng())

    def looped():
        # label i gets row i of the one draw the batched dropout makes
        starts = np.cumsum(sizes) - sizes
        draws = rng().random((3, 8)) if training else [None] * 3
        return ad.concat([ad.reshape(per_label_prototype(
                              att, dyn, ad.gather_rows(features, np.arange(start, start + n)),
                              ad.reshape(ad.gather_rows(joints, [i]), (8,)), draws[i]), (1, 8))
                          for i, (start, n) in enumerate(zip(starts, sizes))])

    _, counts = select_top_features(pools, joints, dyn.top_count)
    assert counts.tolist() == [4, 2, 4]        # six rows, one of them zero, still give four
    if training:
        quiet = build_prototype(att, dyn, pools, label_side(att, dyn, joints), None)
        assert not np.array_equal(quiet.data, batched().data)
    assert_close(batched().data, looped().data)
    leaves = [*att.parameters().values(), *dyn.parameters().values(), features, joints]
    grads = []
    for build in (batched, looped):
        for leaf in leaves:
            leaf.grad = None
        ad.tensor_sum(ad.mul(build(), weights)).backward()
        grads.append([leaf.grad.copy() for leaf in leaves])
    for new, old in zip(*grads):
        assert_close(new, old)
