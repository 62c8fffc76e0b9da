"""Adam update math and state round-tripping."""

import numpy as np

from mlfewshot.autodiff import Tensor
from mlfewshot.optim import Adam


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
