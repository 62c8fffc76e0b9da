"""Adam update math and state round-tripping."""

import math

import numpy as np
import pytest

import mlfewshot.autodiff as ad
from mlfewshot.autodiff import Tensor
from mlfewshot.errors import DataError
from mlfewshot.optim import BLOCK, Adam


def make_param(values):
    return Tensor(np.array(values, dtype=np.float64), requires_grad=True)


def test_first_step_closed_form():
    # with bias correction, step 1 moves by lr * g / (|g| + eps)
    p = make_param([1.0, -2.0, 3.0])
    g = np.array([0.5, -1.5, 2.0])
    p.grad = g.copy()
    opt = Adam({"p": p}, lr=0.1)
    opt.step()
    expected = np.array([1.0, -2.0, 3.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.data, expected, atol=1e-12)


def test_zero_grad_fresh_state_leaves_params_unchanged():
    p = make_param([1.0, 2.0])
    p.grad = np.zeros(2)
    opt = Adam({"p": p}, lr=0.5)
    opt.step()
    assert np.array_equal(p.data, [1.0, 2.0])


def test_none_grad_treated_as_zero():
    p = make_param([3.0])
    opt = Adam({"p": p}, lr=0.5)
    opt.step()
    assert np.array_equal(p.data, [3.0])


def test_two_steps_match_reference_implementation():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(5)
    g1, g2 = rng.standard_normal(5), rng.standard_normal(5)

    p = make_param(x0)
    opt = Adam({"p": p}, lr=0.01)
    p.grad = g1.copy()
    opt.step()
    p.grad = g2.copy()
    opt.step()

    # straight-line reference
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = np.zeros(5)
    v = np.zeros(5)
    x = x0.copy()
    for t, g in [(1, g1), (2, g2)]:
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        x = x - 0.01 * mh / (np.sqrt(vh) + eps)
    assert np.allclose(p.data, x, atol=1e-14)


def test_lr_override_per_step():
    p = make_param([0.0])
    p.grad = np.array([1.0])
    opt = Adam({"p": p}, lr=1.0)
    opt.step(lr=0.25)
    assert np.allclose(p.data, [-0.25 * 1.0 / (1.0 + 1e-8)], atol=1e-12)


def test_zero_grad_clears_gradients():
    p = make_param([1.0])
    p.grad = np.array([2.0])
    opt = Adam({"p": p}, lr=0.1)
    opt.zero_grad()
    assert p.grad is None


def test_state_round_trip_resumes_identically():
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal(4)
    grads = [rng.standard_normal(4) for _ in range(4)]

    # run 4 steps straight
    p_full = make_param(x0)
    opt_full = Adam({"p": p_full}, lr=0.05)
    for g in grads:
        p_full.grad = g.copy()
        opt_full.step()

    # run 2, serialize, restore into a new optimizer, run 2 more
    p_half = make_param(x0)
    opt_a = Adam({"p": p_half}, lr=0.05)
    for g in grads[:2]:
        p_half.grad = g.copy()
        opt_a.step()
    saved = opt_a.state_tensors()
    assert "optim.steps" in saved and "optim.m.p" in saved and "optim.v.p" in saved

    opt_b = Adam({"p": p_half}, lr=0.05)
    opt_b.load_state_tensors(saved)
    for g in grads[2:]:
        p_half.grad = g.copy()
        opt_b.step()

    assert np.array_equal(p_full.data, p_half.data)


def per_tensor_adam(values, grads_per_step, lr):
    """Per-tensor Adam with both bias corrections folded into the step size,
    the update the flat, blocked step must reproduce bitwise: each tensor's
    moments and values updated on their own, a missing gradient counting as
    zeros."""
    values = {name: v.copy() for name, v in values.items()}
    m = {name: np.zeros_like(v) for name, v in values.items()}
    v2 = {name: np.zeros_like(v) for name, v in values.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        root_bias2 = math.sqrt(1.0 - 0.999 ** t)
        step = lr * root_bias2 / (1.0 - 0.9 ** t)
        eps = 1e-8 * root_bias2
        for name in values:
            g = grads[name] if grads[name] is not None else np.zeros_like(values[name])
            m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
            v2[name] = 0.999 * v2[name] + (1.0 - 0.999) * g * g
            values[name] = values[name] - (m[name] / (np.sqrt(v2[name]) + eps)) * step
    return values, m, v2


def textbook_adam(values, grads_per_step, lr):
    """Adam as Kingma & Ba's Algorithm 1 writes it: bias-corrected moments,
    EPS added to the corrected root."""
    values = {name: v.copy() for name, v in values.items()}
    m = {name: np.zeros_like(v) for name, v in values.items()}
    v2 = {name: np.zeros_like(v) for name, v in values.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        for name in values:
            g = grads[name] if grads[name] is not None else np.zeros_like(values[name])
            m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
            v2[name] = 0.999 * v2[name] + (1.0 - 0.999) * g * g
            m_hat = m[name] / (1.0 - 0.9 ** t)
            v_hat = v2[name] / (1.0 - 0.999 ** t)
            values[name] = values[name] - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return values


MIXED = {"w": (3, 4), "b": (4,), "s": (), "k": (2, 3, 2), "idle": (5,)}
# three whole blocks and 37 values more (16,384-value blocks); w, k and b
# each straddle a block edge
BLOCKS = {"w": (17_384,), "k": (3, 7, 1000), "idle": (8192,), "b": (2613,)}


def mixed_problem(seed=3, steps=4, shapes=MIXED):
    rng = np.random.default_rng(seed)
    values = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    grads = [{name: None if name == "idle" else rng.standard_normal(shape)
              for name, shape in shapes.items()} for _ in range(steps)]
    return values, grads


def backward_gradients(params, grads):
    """Leave each gradient on its parameter through the tape: the backward
    of sum(p * g) gives p the gradient g exactly."""
    terms = [ad.tensor_sum(ad.mul(params[name], Tensor(g)))
             for name, g in grads.items() if g is not None]
    total = terms[0]
    for term in terms[1:]:
        total = ad.add(total, term)
    total.backward()


def run_adam(opt, params, grads, tape=False):
    for step_grads in grads:
        if tape:
            opt.zero_grad()
            backward_gradients(params, step_grads)
        else:
            for name, p in params.items():
                p.grad = None if step_grads[name] is None else step_grads[name].copy()
        opt.step()
        for name, p in params.items():   # gradients are read, never written
            assert p.grad is None or np.array_equal(p.grad, step_grads[name])


SHAPES = pytest.mark.parametrize("shapes", [MIXED, {"importance": (6, 6)}, BLOCKS],
                                 ids=["mixed", "lone", "blocks"])


def check_flat_step_against_per_tensor_adam(shapes, tape):
    values, grads = mixed_problem(shapes=shapes)
    params = {name: make_param(v) for name, v in values.items()}
    opt = Adam(params, lr=0.01)
    run_adam(opt, params, grads, tape=tape)
    expected, m, v = per_tensor_adam(values, grads, 0.01)
    for name, p in params.items():
        assert p.data.shape == values[name].shape
        assert np.array_equal(p.data, expected[name]), name
        assert np.array_equal(opt.m[name], m[name]) and np.array_equal(opt.v[name], v[name])
    if "idle" in params:
        assert np.array_equal(params["idle"].data, values["idle"])


@SHAPES
def test_flat_step_matches_per_tensor_adam_bitwise(shapes):
    check_flat_step_against_per_tensor_adam(shapes, tape=False)


@SHAPES
def test_flat_step_on_gradients_from_the_tape_matches_per_tensor_adam_bitwise(shapes):
    check_flat_step_against_per_tensor_adam(shapes, tape=True)


def test_blocks_split_the_flat_buffers_into_whole_blocks_and_a_remainder():
    values, _ = mixed_problem(shapes=BLOCKS, steps=1)
    opt = Adam({name: make_param(v) for name, v in values.items()}, lr=0.01)
    assert opt._flat.size == 3 * BLOCK + 37
    assert [block[0].size for block in opt._blocks] == [BLOCK, BLOCK, BLOCK, 37]
    for flat, m, v, grad, scratch in opt._blocks:
        assert m.size == v.size == grad.size == scratch.size == flat.size
    assert np.shares_memory(opt._blocks[-1][0], opt.params["b"].data)


def test_folded_step_stays_within_1e12_of_the_textbook_step_over_100_steps():
    values, grads = mixed_problem(seed=5, steps=100)
    params = {name: make_param(v) for name, v in values.items()}
    run_adam(Adam(params, lr=0.01), params, grads)
    expected = textbook_adam(values, grads, 0.01)
    for name, p in params.items():
        scale = np.maximum(np.abs(expected[name]), 1e-300)
        assert np.all(np.abs(p.data - expected[name]) <= 1e-12 * scale), name
    moved = [name for name in params if not np.array_equal(params[name].data, expected[name])]
    assert moved     # the two updates round differently, so the check has teeth


def test_backward_writes_gradients_into_the_flat_buffer():
    values, grads = mixed_problem(steps=1)
    params = {name: make_param(v) for name, v in values.items()}
    opt = Adam(params, lr=0.01)
    backward_gradients(params, grads[0])
    for name, p in params.items():
        if name == "idle":
            assert p.grad is None
        else:
            assert p.grad is p.grad_home and np.shares_memory(p.grad, opt._grads), name
            assert np.array_equal(p.grad, grads[0][name])


def test_step_mixing_view_foreign_and_missing_gradients_is_per_tensor_adam():
    values, grads = mixed_problem(steps=2)
    params = {name: make_param(v) for name, v in values.items()}
    opt = Adam(params, lr=0.01)
    for step_grads in grads:
        opt.zero_grad()
        # w and b arrive through the tape into their views, k is an array
        # set from outside, s and idle have no gradient
        backward_gradients(params, {"w": step_grads["w"], "b": step_grads["b"]})
        params["k"].grad = step_grads["k"].copy()
        step_grads["s"] = None
        opt.step()
        assert params["w"].grad is params["w"].grad_home
        assert params["k"].grad is not params["k"].grad_home
        for name, p in params.items():
            assert p.grad is None or np.array_equal(p.grad, step_grads[name]), name
    expected, m, v = per_tensor_adam(values, grads, 0.01)
    for name, p in params.items():
        assert np.array_equal(p.data, expected[name]), name
        assert np.array_equal(opt.m[name], m[name]) and np.array_equal(opt.v[name], v[name])


def test_flat_state_resumes_bitwise():
    values, grads = mixed_problem(seed=4, steps=5)
    params = {name: make_param(v) for name, v in values.items()}
    first = Adam(params, lr=0.02)
    run_adam(first, params, grads[:2])
    saved = {k: np.array(v, copy=True) for k, v in first.state_tensors().items()}
    resumed_params = {name: make_param(p.data) for name, p in params.items()}
    resumed = Adam(resumed_params, lr=0.02)
    resumed.load_state_tensors(saved)
    run_adam(resumed, resumed_params, grads[2:])
    expected, m, v = per_tensor_adam(values, grads, 0.02)
    for name, p in resumed_params.items():
        assert np.array_equal(p.data, expected[name]), name
        assert np.array_equal(resumed.m[name], m[name])
        assert np.array_equal(resumed.v[name], v[name])


@pytest.mark.parametrize("missing", ["optim.steps", "optim.m.w", "optim.v.b"])
def test_missing_state_tensor_is_a_data_error(missing):
    params = {"w": make_param(np.ones((3, 4))), "b": make_param(np.ones(4))}
    state = Adam(params, lr=0.1).state_tensors()
    del state[missing]
    opt = Adam(params, lr=0.1)
    with pytest.raises(DataError, match=missing):
        opt.load_state_tensors(state)
    assert opt.steps == 0


def test_wrong_state_shape_is_a_data_error():
    params = {"w": make_param(np.ones((3, 4)))}
    state = Adam(params, lr=0.1).state_tensors()
    state["optim.m.w"] = np.zeros(3)
    opt = Adam(params, lr=0.1)
    with pytest.raises(DataError, match="optim.m.w"):
        opt.load_state_tensors(state)
    assert not np.any(opt.m["w"])
