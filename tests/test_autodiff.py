"""Tensor op forwards against hand values and gradients against central differences."""

import math

import numpy as np
import pytest

import mlfewshot.autodiff as ad
from mlfewshot.autodiff import (
    DegenerateVectorError,
    DomainError,
    ShapeError,
    Tensor,
    grad_check,
    tensor,
)

OP_TOL = 1e-5
POINTS = 100


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape))


# ---------------------------------------------------------------- forwards


def test_softmax_of_zeros_is_uniform():
    out = ad.softmax(tensor([0.0, 0.0]))
    assert np.array_equal(out.data, [0.5, 0.5])


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.standard_normal((4, 7)) * 5
        y = ad.softmax(tensor(x)).data
        assert np.all(np.abs(y.sum(axis=-1) - 1.0) <= 1e-12)
        shifted = ad.softmax(tensor(x + 123.456)).data
        assert np.max(np.abs(y - shifted)) <= 1e-9


def test_sigmoid_at_zero():
    assert ad.sigmoid(tensor(0.0)).item() == 0.5


def test_sigmoid_extremes_stay_finite():
    y = ad.sigmoid(tensor([-1000.0, 1000.0])).data
    assert np.all(np.isfinite(y))
    assert y[0] < 1e-300 and y[1] == 1.0


def test_gelu_exact_gaussian_cdf():
    # x * Phi(x) with Phi the standard normal CDF, not the tanh approximation
    x = 1.0
    expected = x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    assert abs(ad.gelu(tensor(x)).item() - expected) < 1e-15
    assert ad.gelu(tensor(0.0)).item() == 0.0
    # the tanh approximation differs from the exact form in the 4th decimal here
    assert abs(ad.gelu(tensor(-2.0)).item() - (-2.0 * 0.5 * (1 + math.erf(-2 / math.sqrt(2))))) < 1e-15


def test_log_hand_value_and_domain():
    assert abs(ad.log(tensor(2.0)).item() - 0.6931471805599453) < 1e-15
    with pytest.raises(DomainError):
        ad.log(tensor([1.0, 0.0]))
    with pytest.raises(DomainError):
        ad.log(tensor(-1.0))


def test_relu_forward():
    out = ad.relu(tensor([-2.0, 0.0, 3.5]))
    assert np.array_equal(out.data, [0.0, 0.0, 3.5])


def test_layer_norm_zero_vector_yields_bias():
    gain = tensor([2.0, 2.0, 2.0])
    bias = tensor([0.5, -0.5, 0.0])
    out = ad.layer_norm(tensor([0.0, 0.0, 0.0]), gain, bias)
    assert np.allclose(out.data, bias.data)


def test_layer_norm_normalizes_rows():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 8)) * 3 + 2
    ones = tensor(np.ones(8))
    zeros = tensor(np.zeros(8))
    y = ad.layer_norm(tensor(x), ones, zeros).data
    assert np.all(np.abs(y.mean(axis=-1)) < 1e-12)
    assert np.all(np.abs(y.var(axis=-1) - 1.0) < 1e-4)  # eps shifts variance slightly


def test_cosine_values_and_degenerate():
    assert abs(ad.cosine(tensor([1.0, 0.0]), tensor([1.0, 1.0])).item() - 1 / math.sqrt(2)) < 1e-15
    assert ad.cosine(tensor([1.0, 2.0]), tensor([2.0, 4.0])).item() == pytest.approx(1.0)
    with pytest.raises(DegenerateVectorError, match="degenerate-vector"):
        ad.cosine(tensor([0.0, 0.0]), tensor([1.0, 1.0]))
    with pytest.raises(DegenerateVectorError, match="degenerate-vector"):
        ad.cosine(tensor([1.0, 1.0]), tensor([0.0, 0.0]))


def test_bce_matches_literal_composition():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = rng.standard_normal(6) * 3
        y = (rng.random(6) < 0.5).astype(float)
        fused = ad.bce_with_logits(tensor(s), y).data
        sig = 1 / (1 + np.exp(-s))
        literal = -(y * np.log(sig) + (1 - y) * np.log(1 - sig))
        assert np.max(np.abs(fused - literal)) < 1e-12


def test_bce_hand_value_at_zero_logit():
    # s=0, y=1 contributes ln 2
    assert abs(ad.bce_with_logits(tensor(0.0), 1.0).item() - math.log(2)) < 1e-15


def test_split_concat_round_trip_bitwise():
    rng = np.random.default_rng(7)
    x = tensor(rng.standard_normal((6, 8)))
    for axis, sections in [(0, 3), (1, 4), (1, 8)]:
        parts = ad.split(x, sections, axis=axis)
        back = ad.concat(parts, axis=axis)
        assert np.array_equal(back.data, x.data)


def test_split_rejects_uneven():
    with pytest.raises(ShapeError):
        ad.split(tensor(np.zeros((5, 4))), 3, axis=0)


def test_scalar_broadcast_allowed_other_mixes_rejected():
    t = tensor(np.ones((2, 3)))
    assert np.array_equal(ad.add(t, tensor(2.0)).data, np.full((2, 3), 3.0))
    assert np.array_equal(ad.mul(tensor(3.0), t).data, np.full((2, 3), 3.0))
    with pytest.raises(ShapeError):
        ad.add(t, tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        ad.mul(t, tensor(np.ones((3, 2))))


def test_matmul_shape_errors_name_op_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        ad.matmul(tensor(np.ones((2, 3))), tensor(np.ones((2, 3))))


def test_leaf_rejects_non_finite():
    with pytest.raises(DomainError):
        tensor([1.0, float("nan")])
    with pytest.raises(DomainError):
        tensor([float("inf")])


def test_gather_rows_forward_and_bounds():
    x = tensor(np.arange(12.0).reshape(4, 3))
    out = ad.gather_rows(x, [2, 0])
    assert np.array_equal(out.data, [[6, 7, 8], [0, 1, 2]])
    with pytest.raises(ShapeError):
        ad.gather_rows(x, [4])
    with pytest.raises(ShapeError):
        ad.gather_rows(x, [])


def test_dropout_eval_is_identity_and_train_rescales():
    rng = np.random.default_rng(0)
    x = tensor(rng.standard_normal(1000))
    assert np.array_equal(ad.dropout(x, 0.5, training=False).data, x.data)
    out = ad.dropout(x, 0.25, rng=np.random.default_rng(42), training=True).data
    kept = out != 0
    assert 0.65 < kept.mean() < 0.85
    assert np.allclose(out[kept], x.data[kept] / 0.75)
    # same seed, same mask
    again = ad.dropout(x, 0.25, rng=np.random.default_rng(42), training=True).data
    assert np.array_equal(out, again)
    with pytest.raises(DomainError):
        ad.dropout(x, 1.0, rng=rng, training=True)
    with pytest.raises(DomainError):
        ad.dropout(x, 0.5, training=True)  # rng is mandatory in train mode


# ---------------------------------------------------------------- backward structure


def test_backward_requires_scalar():
    x = tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        ad.add(x, x).backward()


def test_diamond_graph_accumulates():
    # y = (x + x) * (x + x) = 4x^2, dy/dx = 8x
    x = tensor(3.0, requires_grad=True)
    a = ad.add(x, x)
    y = ad.mul(a, a)
    grads = y.backward()
    assert y.item() == 36.0
    assert x.grad == pytest.approx(24.0)
    assert grads[x] == pytest.approx(24.0)


def test_shared_subexpression_gradients():
    # z = sum(a*b) + sum(a); dz/da = b + 1, dz/db = a
    rng = np.random.default_rng(2)
    a = tensor(rng.standard_normal(5), requires_grad=True)
    b = tensor(rng.standard_normal(5), requires_grad=True)
    z = ad.add(ad.tensor_sum(ad.mul(a, b)), ad.tensor_sum(a))
    z.backward()
    assert np.allclose(a.grad, b.data + 1.0)
    assert np.allclose(b.grad, a.data)


def test_constants_build_no_graph():
    a = tensor(np.ones(4))
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


def _case_add_scalar(rng):
    c = rand(rng, 3, 4)
    return rand(rng), lambda t: ad.tensor_sum(ad.mul(ad.add(t, c), c))


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


def _case_matmul_mv(rng):
    c = rand(rng, 3, 4)
    return rand(rng, 4), lambda t: ad.tensor_sum(ad.matmul(c, t))


def _case_matmul_vm(rng):
    c = rand(rng, 3, 4)
    return rand(rng, 3), lambda t: ad.tensor_sum(ad.matmul(t, c))


def _case_matmul_vv(rng):
    c = rand(rng, 5)
    return rand(rng, 5), lambda t: ad.matmul(t, c)


def _case_sum_axis(rng):
    c = rand(rng, 4)
    return rand(rng, 3, 4), lambda t: ad.tensor_sum(ad.mul(ad.tensor_sum(t, axis=0), c))


def _case_mean_all(rng):
    return rand(rng, 3, 4), lambda t: ad.mean(t)


def _case_mean_axes(rng):
    c = rand(rng, 2)
    return rand(rng, 2, 3, 4), lambda t: ad.tensor_sum(ad.mul(ad.mean(t, axis=(1, 2)), c))


def _case_reshape(rng):
    c = rand(rng, 2, 6)
    return rand(rng, 3, 4), lambda t: ad.tensor_sum(ad.mul(ad.reshape(t, (2, 6)), c))


def _case_transpose(rng):
    c = rand(rng, 4, 3)
    return rand(rng, 3, 4), lambda t: ad.tensor_sum(ad.mul(ad.transpose(t), c))


def _case_concat(rng):
    other = rand(rng, 3, 3)
    c = rand(rng, 5, 3)
    return rand(rng, 2, 3), lambda t: ad.tensor_sum(ad.mul(ad.concat([t, other], axis=0), c))


def _case_split(rng):
    c = rand(rng, 4, 2)
    return rand(rng, 4, 6), lambda t: ad.tensor_sum(ad.mul(ad.split(t, 3, axis=1)[1], c))


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
    b = Tensor(rng.standard_normal(6) + 0.1)
    return Tensor(rng.standard_normal(6) + 0.1), lambda t: ad.cosine(t, b)


def _case_cosine_b(rng):
    a = Tensor(rng.standard_normal(6) + 0.1)
    return Tensor(rng.standard_normal(6) + 0.1), lambda t: ad.cosine(a, t)


def _case_dropout(rng):
    # a fresh generator with a fixed seed inside f keeps the mask identical per call
    return rand(rng, 8), lambda t: ad.tensor_sum(ad.dropout(t, 0.3, rng=np.random.default_rng(99), training=True))


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
    "add_scalar": _case_add_scalar,
    "sub": _case_sub,
    "mul": _case_mul,
    "neg": _case_neg,
    "scale": _case_scale,
    "matmul_mm": _case_matmul_mm,
    "matmul_mm_rhs": _case_matmul_mm_rhs,
    "matmul_mv": _case_matmul_mv,
    "matmul_vm": _case_matmul_vm,
    "matmul_vv": _case_matmul_vv,
    "sum_axis": _case_sum_axis,
    "mean_all": _case_mean_all,
    "mean_axes": _case_mean_axes,
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
    "dropout": _case_dropout,
    "bce_with_logits": _case_bce,
    "conv2d_x": _case_conv2d_x,
    "conv2d_kernel": _case_conv2d_kernel,
    "conv2d_bias": _case_conv2d_bias,
}


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_gradient_matches_central_differences(name):
    rng = np.random.default_rng(abs(hash(name)) % (2**32))
    points = POINTS // 10 if name.startswith("conv2d") else POINTS  # conv points are costlier
    worst = 0.0
    for i in range(points):
        case_rng = np.random.default_rng([17, i, len(name)])
        x, f = GRAD_CASES[name](case_rng)
        worst = max(worst, grad_check(f, x))
    assert worst <= OP_TOL, f"{name}: max relative error {worst:.3e}"


def test_composite_random_graphs_match_central_differences():
    # chains of several ops exercising accumulation across shared nodes
    for i in range(20):
        rng = np.random.default_rng([23, i])
        w = Tensor(rng.standard_normal((4, 6)))

        def f(t, w=w, i=i):
            h = ad.gelu(ad.matmul(w, t))
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


def test_grad_check_eps_validation():
    with pytest.raises(DomainError):
        grad_check(lambda t: ad.tensor_sum(t), tensor(np.ones(2)), eps=0.1)
    with pytest.raises(DomainError):
        grad_check(lambda t: ad.tensor_sum(t), tensor(np.ones(2)), eps=0.0)
