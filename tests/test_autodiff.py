"""Tensor op forwards against hand values and gradients against central differences."""

import inspect
import math

import numpy as np
import pytest

import mlfewshot.autodiff as ad
from mlfewshot.autodiff import (
    DegenerateVectorError,
    DomainError,
    ShapeError,
    Tensor,
)
from mlfewshot.verification import grad_check

OP_TOL = 1e-5
POINTS = 100


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape))


def _row(t):
    return ad.reshape(t, (1, t.size))


def _column(t):
    return ad.reshape(t, (t.size, 1))


def _rows(vectors):
    """The matrix whose rows are the given 1-d tensors, on the tape."""
    return ad.concat([_row(v) for v in vectors])


# ---------------------------------------------------------------- forwards


def test_softmax_of_zeros_is_uniform():
    out = ad.softmax(Tensor([0.0, 0.0]))
    assert np.array_equal(out.data, [0.5, 0.5])


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.standard_normal((4, 7)) * 5
        y = ad.softmax(Tensor(x)).data
        assert np.all(np.abs(y.sum(axis=-1) - 1.0) <= 1e-12)
        shifted = ad.softmax(Tensor(x + 123.456)).data
        assert np.max(np.abs(y - shifted)) <= 1e-9


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor(0.0)).item() == 0.5


def test_sigmoid_extremes_stay_finite():
    y = ad.sigmoid(Tensor([-1000.0, 1000.0])).data
    assert np.all(np.isfinite(y))
    assert y[0] < 1e-300 and y[1] == 1.0


def test_gelu_exact_gaussian_cdf():
    # x * Phi(x) with Phi the standard normal CDF, not the tanh approximation
    x = 1.0
    expected = x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    assert abs(ad.gelu(Tensor(x)).item() - expected) < 1e-15
    assert ad.gelu(Tensor(0.0)).item() == 0.0
    # the tanh approximation differs from the exact form in the 4th decimal here
    assert abs(ad.gelu(Tensor(-2.0)).item() - (-2.0 * 0.5 * (1 + math.erf(-2 / math.sqrt(2))))) < 1e-15


def test_log_hand_value_and_domain():
    assert abs(ad.log(Tensor(2.0)).item() - 0.6931471805599453) < 1e-15
    with pytest.raises(DomainError):
        ad.log(Tensor([1.0, 0.0]))
    with pytest.raises(DomainError):
        ad.log(Tensor(-1.0))


def test_relu_forward():
    out = ad.relu(Tensor([-2.0, 0.0, 3.5]))
    assert np.array_equal(out.data, [0.0, 0.0, 3.5])


def test_layer_norm_zero_vector_yields_bias():
    gain = Tensor([2.0, 2.0, 2.0])
    bias = Tensor([0.5, -0.5, 0.0])
    out = ad.layer_norm(Tensor([0.0, 0.0, 0.0]), gain, bias)
    assert np.allclose(out.data, bias.data)


def test_layer_norm_normalizes_rows():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 8)) * 3 + 2
    ones = Tensor(np.ones(8))
    zeros = Tensor(np.zeros(8))
    y = ad.layer_norm(Tensor(x), ones, zeros).data
    assert np.all(np.abs(y.mean(axis=-1)) < 1e-12)
    assert np.all(np.abs(y.var(axis=-1) - 1.0) < 1e-4)  # eps shifts variance slightly


def test_cosine_values_and_degenerate():
    assert abs(ad.cosine(Tensor([[1.0, 0.0]]), Tensor([[1.0, 1.0]])).data[0, 0]
               - 1 / math.sqrt(2)) < 1e-15
    assert ad.cosine(Tensor([[1.0, 2.0]]), Tensor([[2.0, 4.0]])).data[0, 0] == pytest.approx(1.0)
    with pytest.raises(DegenerateVectorError, match="degenerate-vector"):
        ad.cosine(Tensor([[0.0, 0.0]]), Tensor([[1.0, 1.0]]))
    with pytest.raises(DegenerateVectorError, match="degenerate-vector"):
        ad.cosine(Tensor([[1.0, 1.0]]), Tensor([[0.0, 0.0]]))


def test_cosine_matrix_entries_and_shapes():
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((3, 5)), rng.standard_normal((4, 5))
    c = ad.cosine(Tensor(a), Tensor(b)).data
    assert c.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            expected = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
            assert abs(c[i, j] - expected) <= 1e-15
    with pytest.raises(ShapeError):
        ad.cosine(Tensor(a), Tensor(rng.standard_normal((4, 6))))
    with pytest.raises(ShapeError):
        ad.cosine(Tensor(a[0]), Tensor(b))


def test_cosine_zero_row_in_either_operand_is_degenerate():
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((2, 4))
    a[1] = 0.0
    with pytest.raises(DegenerateVectorError, match="degenerate-vector"):
        ad.cosine(Tensor(a), Tensor(b))
    with pytest.raises(DegenerateVectorError, match="degenerate-vector"):
        ad.cosine(Tensor(b), Tensor(a))


def test_scale_builds_one_node():
    x = Tensor([1.0, -2.0], requires_grad=True)
    out = ad.scale(x, 2.5)
    assert out.op == "scale" and out._parents == (x,)
    assert np.array_equal(out.data, [2.5, -5.0])


def test_head_readout_rejects_bad_shapes():
    features = Tensor(np.ones((3, 6)))
    with pytest.raises(ShapeError):
        ad.head_readout(features, Tensor(np.ones((1, 6))), 4, [3])
    with pytest.raises(ShapeError):
        ad.head_readout(features, Tensor(np.ones((1, 5))), 3, [3])
    with pytest.raises(ShapeError):
        ad.head_readout(features, Tensor(np.ones(6)), 3, [3])          # one query is one row
    for sizes in ([2], [2, 2], [3, 0]):
        with pytest.raises(ShapeError, match="segment sizes"):
            ad.head_readout(features, Tensor(np.ones((len(sizes), 6))), 3, sizes)


def test_bce_matches_literal_composition():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = rng.standard_normal(6) * 3
        y = (rng.random(6) < 0.5).astype(float)
        fused = ad.bce_with_logits(Tensor(s), y).data
        sig = 1 / (1 + np.exp(-s))
        literal = -(y * np.log(sig) + (1 - y) * np.log(1 - sig))
        assert np.max(np.abs(fused - literal)) < 1e-12


def test_bce_hand_value_at_zero_logit():
    # s=0, y=1 contributes ln 2
    assert abs(ad.bce_with_logits(Tensor(0.0), 1.0).item() - math.log(2)) < 1e-15


def test_split_concat_round_trip_bitwise():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((6, 8)))
    for sections in (1, 2, 3, 6):
        parts = ad.split(x, sections)
        assert [p.shape for p in parts] == [(6 // sections, 8)] * sections
        back = ad.concat(parts)
        assert np.array_equal(back.data, x.data)


def test_split_rejects_uneven():
    with pytest.raises(ShapeError):
        ad.split(Tensor(np.zeros((5, 4))), 3)


def test_elementwise_ops_reject_unequal_shapes():
    t = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError, match=r"add.*\(2, 3\).*\(\)"):
        ad.add(t, Tensor(2.0))
    with pytest.raises(ShapeError, match=r"mul.*\(\).*\(2, 3\)"):
        ad.mul(Tensor(3.0), t)
    with pytest.raises(ShapeError):
        ad.sub(t, Tensor(2.0))
    with pytest.raises(ShapeError):
        ad.add(t, Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        ad.mul(t, Tensor(np.ones((3, 2))))


def test_matmul_shape_errors_name_op_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_leaf_rejects_non_finite():
    with pytest.raises(DomainError):
        Tensor([1.0, float("nan")])
    with pytest.raises(DomainError):
        Tensor([float("inf")])


def test_gather_rows_forward_and_bounds():
    x = Tensor(np.arange(12.0).reshape(4, 3))
    out = ad.gather_rows(x, [2, 0])
    assert np.array_equal(out.data, [[6, 7, 8], [0, 1, 2]])
    with pytest.raises(ShapeError):
        ad.gather_rows(x, [4])
    with pytest.raises(ShapeError):
        ad.gather_rows(x, [])


def test_gather_rows_backward_is_add_at_bitwise():
    # row 3 is gathered three times, out of order; its contributions 1, 1e16
    # and -1e16 sum to 0 in index order and to 1 in any order that adds the
    # two large ones first, so a scatter in another order shows
    idx = np.array([3, 1, 3, 0, 1, 3, 4])
    g = np.random.default_rng(5).standard_normal((idx.size, 2))
    g[[0, 2, 5], 0] = [1.0, 1e16, -1e16]
    g[[1, 4], 1] = -0.0                   # row 1, column 1 only ever receives -0.0
    g[6] = -0.0                           # row 4 receives nothing else
    x = Tensor(np.ones((6, 2)), requires_grad=True)
    ad.tensor_sum(ad.mul(ad.gather_rows(x, idx), Tensor(g))).backward()
    expected = np.zeros((6, 2))
    np.add.at(expected, idx, g)
    assert expected[3, 0] == 0.0
    assert x.grad.tobytes() == expected.tobytes()      # bitwise, signed zeros included


def _linear_weight_loss(weight, xs, cs):
    terms = [ad.tensor_sum(ad.mul(ad.linear(x, weight), c)) for x, c in zip(xs, cs)]
    return terms[0] if len(terms) == 1 else ad.add(*terms)


@pytest.mark.parametrize("uses", [1, 2], ids=["first", "second-adds"])
def test_linear_weight_gradient_into_home_is_the_allocated_product(uses):
    rng = np.random.default_rng(13)
    w0 = rng.standard_normal((5, 4))
    xs = [rand(rng, 2, 7, 4) for _ in range(uses)]
    cs = [rand(rng, 2, 7, 5) for _ in range(uses)]
    allocated = Tensor(w0, requires_grad=True)
    _linear_weight_loss(allocated, xs, cs).backward()
    homed = Tensor(w0, requires_grad=True)
    home = homed.grad_home = np.full(w0.shape, np.nan)   # stale contents are overwritten
    _linear_weight_loss(homed, xs, cs).backward()
    assert homed.grad is home
    assert home.tobytes() == allocated.grad.tobytes()
    if uses == 1:
        product = cs[0].data.reshape(-1, 5).T @ xs[0].data.reshape(-1, 4)
        assert home.tobytes() == product.tobytes()


@pytest.mark.parametrize("rows", [1, 3, 4, 24])
def test_linear_bias_is_the_rank_one_ones_product_bitwise(rows):
    # the bias used to enter as add(linear(x, w), ones @ bias); both its
    # forward and its gradient (homed or not) keep those bits
    rng = np.random.default_rng([19, rows])
    x, w0, b0 = rand(rng, rows, 4), rng.standard_normal((5, 4)), rng.standard_normal(5)
    c = rand(rng, rows, 5)
    weight, bias = Tensor(w0, requires_grad=True), Tensor(b0, requires_grad=True)
    old = ad.add(ad.linear(x, weight),
                 ad.matmul(Tensor(np.ones((rows, 1))), ad.reshape(bias, (1, 5))))
    ad.tensor_sum(ad.mul(old, c)).backward()
    for home in (None, np.full(5, np.nan)):
        fused_weight, fused_bias = Tensor(w0, requires_grad=True), Tensor(b0, requires_grad=True)
        fused_bias.grad_home = home
        new = ad.linear(x, fused_weight, fused_bias)
        assert new.op == "linear" and new._parents == (x, fused_weight, fused_bias)
        ad.tensor_sum(ad.mul(new, c)).backward()
        assert new.data.tobytes() == old.data.tobytes()
        assert fused_weight.grad.tobytes() == weight.grad.tobytes()
        assert fused_bias.grad.tobytes() == bias.grad.tobytes()
        assert home is None or fused_bias.grad is home


def test_linear_rejects_a_bias_of_the_wrong_length():
    x, weight = Tensor(np.ones((3, 4))), Tensor(np.ones((5, 4)))
    for bias in (np.ones(4), np.ones((1, 5)), np.ones(())):
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(x, weight, Tensor(bias))


def test_dropout_eval_is_identity_and_train_rescales():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(1000))
    # no generator (evaluation) and rate 0 hand back the input itself: no copy, no node
    assert ad.dropout(x, 0.5, None) is x
    assert ad.dropout(x, 0.0, rng) is x
    out = ad.dropout(x, 0.25, np.random.default_rng(42)).data
    kept = out != 0
    assert 0.65 < kept.mean() < 0.85
    assert np.allclose(out[kept], x.data[kept] / 0.75)
    # same seed, same mask
    again = ad.dropout(x, 0.25, np.random.default_rng(42)).data
    assert np.array_equal(out, again)
    with pytest.raises(DomainError):
        ad.dropout(x, 1.0, rng)
    with pytest.raises(DomainError):
        ad.dropout(x, 1.0, None)


# ---------------------------------------------------------------- backward structure


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        ad.add(x, x).backward()


def test_diamond_graph_accumulates():
    # y = (x + x) * (x + x) = 4x^2, dy/dx = 8x
    x = Tensor(3.0, requires_grad=True)
    a = ad.add(x, x)
    y = ad.mul(a, a)
    y.backward()
    assert y.item() == 36.0
    assert x.grad == pytest.approx(24.0)


def test_shared_gradient_is_not_written_through(monkeypatch):
    # y = sum(w * (p + q)) + sum(u * p) + sum(v * q), p = 2x, q = 3x: add
    # hands one array to p and q, then each gets its own second term
    rng = np.random.default_rng(4)
    w, u, v = (Tensor(rng.standard_normal(3)) for _ in range(3))
    x = Tensor(rng.standard_normal(3), requires_grad=True)
    p, q = ad.scale(x, 2.0), ad.scale(x, 3.0)
    y = ad.add(ad.add(ad.tensor_sum(ad.mul(ad.add(p, q), w)), ad.tensor_sum(ad.mul(p, u))),
               ad.tensor_sum(ad.mul(q, v)))
    received = {id(p): [], id(q): []}
    accumulate = Tensor.accumulate

    def spy(self, delta, b=None):
        received.get(id(self), []).append(delta)
        accumulate(self, delta, b)

    monkeypatch.setattr(Tensor, "accumulate", spy)
    y.backward()
    assert received[id(p)][0] is received[id(q)][0]     # the shared array came first
    assert len(received[id(p)]) == len(received[id(q)]) == 2
    assert np.array_equal(p.grad, w.data + u.data)
    assert np.array_equal(q.grad, w.data + v.data)
    assert np.array_equal(x.grad, 2.0 * (w.data + u.data) + 3.0 * (w.data + v.data))


def test_shared_subexpression_gradients():
    # z = sum(a*b) + sum(a); dz/da = b + 1, dz/db = a
    rng = np.random.default_rng(2)
    a = Tensor(rng.standard_normal(5), requires_grad=True)
    b = Tensor(rng.standard_normal(5), requires_grad=True)
    z = ad.add(ad.tensor_sum(ad.mul(a, b)), ad.tensor_sum(a))
    z.backward()
    assert np.allclose(a.grad, b.data + 1.0)
    assert np.allclose(b.grad, a.data)


def test_constants_build_no_graph():
    a = Tensor(np.ones(4))
    out = ad.mul(ad.add(a, a), a)
    assert out._parents == ()
    assert not out.requires_grad


# ---------------------------------------------------------------- gradient oracle

# each case builder pre-draws its constants so f is a pure function of t
def _away_from_kink(rng, *shape):
    x = rng.standard_normal(shape)
    x = np.where(np.abs(x) < 1e-2, x + np.sign(x + 0.5) * 0.1, x)
    return Tensor(x)


def _case_add(rng):
    c = rand(rng, 3, 4)
    return rand(rng, 3, 4), lambda t: ad.tensor_sum(ad.mul(ad.add(t, c), c))


def _case_sub(rng):
    c = rand(rng, 5)
    return rand(rng, 5), lambda t: ad.tensor_sum(ad.mul(ad.sub(c, t), c))


def _case_mul(rng):
    c = rand(rng, 2, 3)
    return rand(rng, 2, 3), lambda t: ad.tensor_sum(ad.mul(t, c))


def _case_neg(rng):
    c = rand(rng, 4)
    return rand(rng, 4), lambda t: ad.tensor_sum(ad.mul(ad.neg(t), c))


def _case_scale(rng):
    return rand(rng, 4), lambda t: ad.tensor_sum(ad.scale(t, 2.5))


def _case_matmul_mm(rng):
    c = rand(rng, 4, 2)
    return rand(rng, 3, 4), lambda t: ad.tensor_sum(ad.matmul(t, c))


def _case_matmul_mm_rhs(rng):
    c = rand(rng, 3, 4)
    return rand(rng, 4, 2), lambda t: ad.tensor_sum(ad.matmul(c, t))


def _case_mean_all(rng):
    return rand(rng, 3, 4), lambda t: ad.mean(t)


def _case_reshape(rng):
    c = rand(rng, 2, 6)
    return rand(rng, 3, 4), lambda t: ad.tensor_sum(ad.mul(ad.reshape(t, (2, 6)), c))


def _case_transpose(rng):
    c = rand(rng, 4, 3)
    return rand(rng, 3, 4), lambda t: ad.tensor_sum(ad.mul(ad.transpose(t), c))


def _case_concat(rng):
    other = rand(rng, 3, 3)
    c = rand(rng, 5, 3)
    return rand(rng, 2, 3), lambda t: ad.tensor_sum(ad.mul(ad.concat([t, other]), c))


def _case_split(rng):
    c = rand(rng, 2, 4)
    return rand(rng, 6, 4), lambda t: ad.tensor_sum(ad.mul(ad.split(t, 3)[1], c))


def _case_gather_rows(rng):
    c = rand(rng, 4, 3)
    return rand(rng, 5, 3), lambda t: ad.tensor_sum(ad.mul(ad.gather_rows(t, [0, 2, 2, 4]), c))


def _case_softmax(rng):
    c = rand(rng, 2, 5)
    return rand(rng, 2, 5), lambda t: ad.tensor_sum(ad.mul(ad.softmax(t), c))


def _case_sigmoid(rng):
    c = rand(rng, 6)
    return rand(rng, 6), lambda t: ad.tensor_sum(ad.mul(ad.sigmoid(t), c))


def _case_log(rng):
    return Tensor(rng.random(5) + 0.5), lambda t: ad.tensor_sum(ad.log(t))


def _case_exp(rng):
    return rand(rng, 5), lambda t: ad.tensor_sum(ad.exp(t))


def _case_relu(rng):
    c = rand(rng, 3, 4)
    return _away_from_kink(rng, 3, 4), lambda t: ad.tensor_sum(ad.mul(ad.relu(t), c))


def _case_gelu(rng):
    c = rand(rng, 6)
    return rand(rng, 6), lambda t: ad.tensor_sum(ad.mul(ad.gelu(t), c))


def _case_layer_norm_x(rng):
    gain, bias, c = rand(rng, 5), rand(rng, 5), rand(rng, 3, 5)
    return rand(rng, 3, 5), lambda t: ad.tensor_sum(ad.mul(ad.layer_norm(t, gain, bias), c))


def _case_layer_norm_gain(rng):
    x, bias = rand(rng, 3, 5), rand(rng, 5)
    return rand(rng, 5), lambda t: ad.tensor_sum(ad.layer_norm(x, t, bias))


def _case_layer_norm_bias(rng):
    x, gain = rand(rng, 3, 5), rand(rng, 5)
    return rand(rng, 5), lambda t: ad.tensor_sum(ad.layer_norm(x, gain, t))


def _case_cosine_a(rng):
    b = Tensor(rng.standard_normal((1, 6)) + 0.1)
    return Tensor(rng.standard_normal((1, 6)) + 0.1), lambda t: ad.tensor_sum(ad.cosine(t, b))


def _case_cosine_b(rng):
    a = Tensor(rng.standard_normal((1, 6)) + 0.1)
    return Tensor(rng.standard_normal((1, 6)) + 0.1), lambda t: ad.tensor_sum(ad.cosine(a, t))


def _case_cosine_matrix_a(rng):
    b, c = rand(rng, 4, 5), rand(rng, 3, 4)
    return rand(rng, 3, 5), lambda t: ad.tensor_sum(ad.mul(ad.cosine(t, b), c))


def _case_cosine_matrix_b(rng):
    a, c = rand(rng, 3, 5), rand(rng, 3, 4)
    return rand(rng, 4, 5), lambda t: ad.tensor_sum(ad.mul(ad.cosine(a, t), c))


def _case_cosine_matrix_shared(rng):
    # both operands are the leaf: the Gram matrix of cosines
    c = rand(rng, 3, 3)
    return rand(rng, 3, 5), lambda t: ad.tensor_sum(ad.mul(ad.cosine(t, t), c))


def _case_head_readout_features(rng):
    query, c = rand(rng, 1, 6), rand(rng, 1, 6)
    return rand(rng, 5, 6), lambda t: ad.tensor_sum(ad.mul(ad.head_readout(t, query, 3, [5]), c))


def _case_head_readout_query(rng):
    features, c = rand(rng, 5, 6), rand(rng, 1, 6)
    return rand(rng, 1, 6), lambda t: ad.tensor_sum(ad.mul(
        ad.head_readout(features, t, 3, [5]), c))


def _case_head_readout_segments_features(rng):
    queries, c = rand(rng, 3, 6), rand(rng, 3, 6)
    return rand(rng, 7, 6), lambda t: ad.tensor_sum(ad.mul(
        ad.head_readout(t, queries, 3, [2, 1, 4]), c))


def _case_head_readout_segments_queries(rng):
    features, c = rand(rng, 7, 6), rand(rng, 3, 6)
    return rand(rng, 3, 6), lambda t: ad.tensor_sum(ad.mul(
        ad.head_readout(features, t, 3, [2, 1, 4]), c))


def _case_linear_x(rng):
    weight, c = rand(rng, 5, 4), rand(rng, 2, 3, 5)
    return rand(rng, 2, 3, 4), lambda t: ad.tensor_sum(ad.mul(ad.linear(t, weight), c))


def _case_linear_weight(rng):
    x, c = rand(rng, 3, 4), rand(rng, 3, 5)
    return rand(rng, 5, 4), lambda t: ad.tensor_sum(ad.mul(ad.linear(x, t), c))


def _case_linear_bias(rng):
    x, weight, c = rand(rng, 2, 3, 4), rand(rng, 5, 4), rand(rng, 2, 3, 5)
    return rand(rng, 5), lambda t: ad.tensor_sum(ad.mul(ad.linear(x, weight, t), c))


def _case_linear_batched_x(rng):
    weight, c = rand(rng, 2, 5, 4), rand(rng, 2, 3, 5)
    return rand(rng, 2, 3, 4), lambda t: ad.tensor_sum(ad.mul(ad.linear(t, weight), c))


def _case_linear_batched_weight(rng):
    x, c = rand(rng, 2, 3, 4), rand(rng, 2, 3, 5)
    return rand(rng, 2, 5, 4), lambda t: ad.tensor_sum(ad.mul(ad.linear(x, t), c))


def _case_scale_matrix(rng):
    c = rand(rng, 2, 3)
    return rand(rng, 2, 3), lambda t: ad.tensor_sum(ad.mul(ad.scale(t, -0.7), c))


def _case_tensor_sum(rng):
    return rand(rng, 2, 3, 4), lambda t: ad.mul(ad.tensor_sum(t), ad.mean(ad.mul(t, t)))


def _case_dropout(rng):
    # a fresh generator with a fixed seed inside f keeps the mask identical per call
    return rand(rng, 8), lambda t: ad.tensor_sum(ad.dropout(t, 0.3, np.random.default_rng(99)))


def _case_bce(rng):
    y = (rng.random(6) < 0.5).astype(float)
    return rand(rng, 6), lambda t: ad.tensor_sum(ad.bce_with_logits(t, y))


def _case_conv2d_x(rng):
    k, b, c = rand(rng, 3, 2, 3, 3), rand(rng, 3), rand(rng, 3, 3, 3)
    return rand(rng, 2, 6, 6), lambda t: ad.tensor_sum(ad.mul(ad.conv2d(t, k, b, stride=2, padding=1), c))


def _case_conv2d_kernel(rng):
    x, b = rand(rng, 2, 6, 6), rand(rng, 3)
    return rand(rng, 3, 2, 3, 3), lambda t: ad.tensor_sum(ad.conv2d(x, t, b, stride=2, padding=1))


def _case_conv2d_bias(rng):
    x, k = rand(rng, 2, 6, 6), rand(rng, 3, 2, 3, 3)
    return rand(rng, 3), lambda t: ad.tensor_sum(ad.conv2d(x, k, t, stride=2, padding=1))


GRAD_CASES = {
    "add": _case_add,
    "sub": _case_sub,
    "mul": _case_mul,
    "neg": _case_neg,
    "scale": _case_scale,
    "matmul_mm": _case_matmul_mm,
    "matmul_mm_rhs": _case_matmul_mm_rhs,
    "mean_all": _case_mean_all,
    "reshape": _case_reshape,
    "transpose": _case_transpose,
    "concat": _case_concat,
    "split": _case_split,
    "gather_rows": _case_gather_rows,
    "softmax": _case_softmax,
    "sigmoid": _case_sigmoid,
    "log": _case_log,
    "exp": _case_exp,
    "relu": _case_relu,
    "gelu": _case_gelu,
    "layer_norm_x": _case_layer_norm_x,
    "layer_norm_gain": _case_layer_norm_gain,
    "layer_norm_bias": _case_layer_norm_bias,
    "cosine_a": _case_cosine_a,
    "cosine_b": _case_cosine_b,
    "cosine_matrix_a": _case_cosine_matrix_a,
    "cosine_matrix_b": _case_cosine_matrix_b,
    "cosine_matrix_shared": _case_cosine_matrix_shared,
    "head_readout_features": _case_head_readout_features,
    "head_readout_query": _case_head_readout_query,
    "head_readout_segments_features": _case_head_readout_segments_features,
    "head_readout_segments_queries": _case_head_readout_segments_queries,
    "linear_x": _case_linear_x,
    "linear_weight": _case_linear_weight,
    "linear_bias": _case_linear_bias,
    "linear_batched_x": _case_linear_batched_x,
    "linear_batched_weight": _case_linear_batched_weight,
    "scale_matrix": _case_scale_matrix,
    "tensor_sum": _case_tensor_sum,
    "dropout": _case_dropout,
    "bce_with_logits": _case_bce,
    "conv2d_x": _case_conv2d_x,
    "conv2d_kernel": _case_conv2d_kernel,
    "conv2d_bias": _case_conv2d_bias,
}


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_gradient_matches_central_differences(name):
    points = POINTS // 10 if name.startswith("conv2d") else POINTS  # conv points are costlier
    worst = 0.0
    for i in range(points):
        case_rng = np.random.default_rng([17, i, len(name)])
        x, f = GRAD_CASES[name](case_rng)
        worst = max(worst, grad_check(f, x))
    assert worst <= OP_TOL, f"{name}: max relative error {worst:.3e}"


def _ops():
    """The tape's ops: every public function of the autodiff module."""
    return sorted(name for name, fn in vars(ad).items()
                  if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                  and not name.startswith("_"))


def test_every_op_has_a_gradient_case():
    # a case covers op X when it is named X or X_<variant>
    unchecked = [op for op in _ops()
                 if not any(case == op or case.startswith(op + "_") for case in GRAD_CASES)]
    assert not unchecked, f"ops without a GRAD_CASES entry: {unchecked}"
    assert {"cosine", "head_readout", "scale"} <= set(_ops())


# ---------------------------------------------------------------- batched ops vs the loops they replaced


def _score_against_per_pair(joint, pooled_rows, vectors):
    """The per-pair scorer `score_against` replaced: project each pooled
    feature, then one cosine -> scale chain per (image, vector) pair."""
    scores = []
    for pooled in pooled_rows:
        visual_joint = ad.matmul(joint.visual, ad.reshape(pooled, (pooled.size, 1)))
        for vector in vectors:
            c = ad.cosine(ad.reshape(visual_joint, (1, visual_joint.size)),
                          ad.reshape(vector, (1, vector.size)))
            scores.append(ad.reshape(ad.scale(c, joint.scale), (1,)))
    return ad.concat(scores)


def _attention_per_head(params, features, label_joint):
    """The per-head split/softmax loop `attention_prototype` replaced (eval
    mode, so dropout is the identity)."""
    inv_sqrt = 1.0 / math.sqrt(params.head_dim)
    head_outputs = []
    # each head's channel slice, on the tape: a row block of the transpose
    chunks = [ad.transpose(t) for t in ad.split(ad.transpose(features), params.heads)]
    for transform, chunk in zip(params.queries, chunks):
        query = ad.matmul(transform, _column(label_joint))
        attention = ad.softmax(_row(ad.scale(ad.matmul(chunk, query), inv_sqrt)))
        head_outputs.append(_column(ad.matmul(attention, chunk)))
    merged = ad.concat(head_outputs)
    hidden = ad.gelu(ad.add(ad.matmul(params.mlp_w1, merged), _column(params.mlp_b1)))
    out = ad.add(ad.matmul(params.mlp_w2, hidden), _column(params.mlp_b2))
    return ad.reshape(out, (out.size,))


def _gradients(leaves, build):
    for leaf in leaves:
        leaf.grad = None
    out = build()
    out.backward()
    return out.item(), [leaf.grad.copy() for leaf in leaves]


def _assert_close(a, b, tol=1e-12):
    assert np.max(np.abs(a - b)) <= tol * max(1.0, np.max(np.abs(b)))


def test_batched_score_against_matches_per_pair_loop():
    from mlfewshot.joint_space import init_joint_space
    from mlfewshot.model import score_against
    for seed in range(5):
        rng = np.random.default_rng([31, seed])
        joint = init_joint_space(6, 4, 8, 10.0, rng)
        pooled = [Tensor(rng.standard_normal(6)) for _ in range(5)]
        vectors = [Tensor(rng.standard_normal(8), requires_grad=True) for _ in range(3)]
        targets = (rng.random(15) < 0.5).astype(np.float64)
        batched = score_against(joint, _rows(pooled), _rows(vectors))
        looped = _score_against_per_pair(joint, pooled, vectors)
        assert batched.shape == looped.shape == (15,)
        _assert_close(batched.data, looped.data)
        leaves = [joint.visual, *vectors]
        _, grads_batched = _gradients(leaves, lambda: ad.tensor_sum(ad.bce_with_logits(
            score_against(joint, _rows(pooled), _rows(vectors)), targets)))
        _, grads_looped = _gradients(leaves, lambda: ad.tensor_sum(ad.bce_with_logits(
            _score_against_per_pair(joint, pooled, vectors), targets)))
        for a, b in zip(grads_batched, grads_looped):
            _assert_close(a, b)


def test_fused_head_readout_matches_per_head_loop():
    from mlfewshot.prototypes import SupportPools, attention_prototype, init_attention
    for seed, (dim, heads, count) in enumerate([(8, 2, 6), (8, 4, 1), (12, 3, 9)]):
        rng = np.random.default_rng([37, seed])
        params = init_attention(dim, heads, rng, dropout=0.3)
        features = Tensor(rng.standard_normal((count, dim)), requires_grad=True)
        label = Tensor(rng.standard_normal(dim), requires_grad=True)
        c = Tensor(rng.standard_normal(dim))
        pool = SupportPools(("x",), features, [count])

        def fused_readout():
            queries = ad.linear(ad.reshape(label, (1, dim)), ad.concat(params.queries))
            out = attention_prototype(params, pool, queries, None)
            return ad.reshape(out, (dim,))

        _assert_close(fused_readout().data, _attention_per_head(params, features, label).data)
        leaves = [*params.parameters().values(), features, label]
        _, grads_fused = _gradients(leaves, lambda: ad.tensor_sum(ad.mul(fused_readout(), c)))
        _, grads_looped = _gradients(leaves, lambda: ad.tensor_sum(ad.mul(
            _attention_per_head(params, features, label), c)))
        for a, b in zip(grads_fused, grads_looped):
            _assert_close(a, b)


def test_composite_random_graphs_match_central_differences():
    # chains of several ops exercising accumulation across shared nodes
    for i in range(20):
        rng = np.random.default_rng([23, i])
        w = Tensor(rng.standard_normal((4, 6)))

        def f(t, w=w, i=i):
            h = ad.gelu(_row(ad.matmul(w, _column(t))))
            h2 = ad.softmax(h)
            mixed = ad.add(ad.mul(h2, h), ad.sigmoid(h))
            return ad.tensor_sum(ad.mul(mixed, mixed))

        x = Tensor(rng.standard_normal(6))
        assert grad_check(f, x) <= OP_TOL


def test_grad_check_flags_wrong_gradient():
    # graft a deliberately corrupted backward rule onto a node
    def bad_square(t):
        out = ad.mul(t, t)
        original = out._backward

        def corrupted(g):
            original(g * 1.01)

        out._backward = corrupted
        return ad.tensor_sum(out)

    err = grad_check(bad_square, Tensor(np.array([1.0, 2.0, 3.0])))
    assert err > 1e-3
