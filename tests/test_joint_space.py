"""Joint visual/text space: projections, scoring, and the alignment loss."""

import math

import numpy as np
import pytest

from mlfewshot import autodiff as ad
from mlfewshot.autodiff import Tensor
from mlfewshot.errors import ConfigError
from mlfewshot.joint_space import init_joint_space, project_labels
from mlfewshot.model import score_against, score_loss


def identity_params(dim=2, scale=2.0):
    return init_identity(dim, scale)


def init_identity(dim, scale):
    params = init_joint_space(dim, dim, dim, scale, np.random.default_rng(0))
    params.visual.data[...] = np.eye(dim)
    params.text.data[...] = np.eye(dim)
    return params


def test_score_hand_value():
    # cos([1,0],[1,1]) = 1/sqrt(2); scale 2 -> sqrt(2)
    params = identity_params(dim=2, scale=2.0)
    s = score_against(params, Tensor(np.array([[1.0, 0.0]])), Tensor(np.array([[1.0, 1.0]])))
    assert s.shape == (1,)
    assert abs(s.data[0] - math.sqrt(2.0)) <= 1e-15


def test_cm_loss_single_pair_is_ln2_at_zero_score():
    # orthogonal vectors give score 0; BCE(0, y=1) = ln 2
    params = identity_params(dim=2, scale=10.0)
    pooled = Tensor(np.array([[1.0, 0.0]]))
    label_joints = project_labels(params, np.array([[0.0, 1.0]]))
    loss = score_loss(params, pooled, label_joints, np.array([[1.0]]))
    assert abs(loss.item() - math.log(2.0)) <= 1e-15


def test_cm_loss_aligned_positive_pair_is_tiny():
    # perfectly aligned pair at scale 10: -log sigmoid(10) = log1p(exp(-10))
    params = identity_params(dim=2, scale=10.0)
    v = Tensor(np.array([[1.0, 0.0]]))
    loss = score_loss(params, v, project_labels(params, np.array([[1.0, 0.0]])),
                      np.array([[1.0]]))
    assert abs(loss.item() - np.log1p(np.exp(-10.0))) <= 1e-18


def test_cm_loss_sums_over_all_pairs():
    params = identity_params(dim=2, scale=10.0)
    e1, e2 = Tensor(np.array([1.0, 0.0])), Tensor(np.array([0.0, 1.0]))
    pooled = ad.concat([ad.reshape(e1, (1, 2)), ad.reshape(e2, (1, 2))])
    joints = project_labels(params, np.stack([e1.data, e2.data]))
    targets = np.eye(2)
    loss = score_loss(params, pooled, joints, targets)
    per_positive = np.log1p(np.exp(-10.0))   # aligned positive pair
    per_negative = np.log1p(np.exp(0.0))     # orthogonal negative pair: ln 2
    assert abs(loss.item() - (2 * per_positive + 2 * per_negative)) <= 1e-12


def test_cm_loss_validates_shapes_and_emptiness():
    params = identity_params()
    v = Tensor(np.array([[1.0, 0.0]]))
    lj = project_labels(params, np.array([[1.0, 0.0]]))
    none = Tensor(np.zeros((0, 2)))
    with pytest.raises(ConfigError):
        score_loss(params, none, lj, np.zeros((0, 1)))
    with pytest.raises(ConfigError):
        score_loss(params, v, none, np.zeros((1, 0)))
    with pytest.raises(ConfigError):
        score_loss(params, v, lj, np.zeros((2, 1)))


def test_gradients_flow_to_both_projections():
    rng = np.random.default_rng(1)
    params = init_joint_space(4, 3, 5, 10.0, rng)
    pooled = Tensor(rng.standard_normal((1, 4)))
    joints = project_labels(params, rng.standard_normal((1, 3)))
    loss = score_loss(params, pooled, joints, np.array([[1.0]]))
    loss.backward()
    assert params.visual.grad is not None and np.any(params.visual.grad != 0)
    assert params.text.grad is not None and np.any(params.text.grad != 0)


def test_zero_shot_probabilities_are_sigmoid_scores():
    # zero-shot evaluation is the sigmoid of the scores against the
    # projected label embeddings
    params = identity_params(dim=2, scale=3.0)
    feats = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    labels = [Tensor(np.array([1.0, 0.0])), Tensor(np.array([1.0, 1.0]))]
    joints = project_labels(params, np.stack([w.data for w in labels]))
    probs = ad._logistic(score_against(params, feats, joints).data.reshape(2, 2))
    expected_00 = 1.0 / (1.0 + math.exp(-3.0))
    assert abs(probs[0, 0] - expected_00) <= 1e-12
    expected_01 = 1.0 / (1.0 + math.exp(-3.0 / math.sqrt(2.0)))
    assert abs(probs[0, 1] - expected_01) <= 1e-12
    # image-major order: the second image is orthogonal to the first label
    assert abs(probs[1, 0] - 0.5) <= 1e-15


def test_init_is_seeded_and_shaped():
    a = init_joint_space(6, 4, 8, 10.0, np.random.default_rng(42))
    b = init_joint_space(6, 4, 8, 10.0, np.random.default_rng(42))
    assert a.visual.shape == (8, 6) and a.text.shape == (8, 4)
    assert np.array_equal(a.visual.data, b.visual.data)
    assert np.array_equal(a.text.data, b.text.data)
    # uniform +-1/sqrt(fan_in)
    assert np.abs(a.visual.data).max() <= 1.0 / math.sqrt(6)
    assert np.abs(a.text.data).max() <= 1.0 / math.sqrt(4)


def test_parameter_names():
    params = identity_params()
    assert set(params.parameters()) == {"joint.visual", "joint.text"}
