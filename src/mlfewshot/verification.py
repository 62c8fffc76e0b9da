"""Gradient verification: per-op finite-difference checks, the closed-form
LCM importance gradient, plus a whole-model composite.  Ops are looked up on
the autodiff module at call time, so a broken (or deliberately corrupted) op
is caught when the suite runs.

The central-difference checker and the taped LCM image loss (weighted
pooling into the scaled-cosine BCE) live here, beside the one suite that
runs them; the program itself runs neither.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import lcm
from .autodiff import Tensor
from .episodes import Episode
from .joint_space import JointSpaceParams, init_joint_space, project_labels
from .model import init_model, score_against
from .seeding import substream
from .training import episode_losses

EPS = 1e-6               # central-difference step
OP_TOLERANCE = 1e-5      # per-op and LCM-gradient checks
MODEL_TOLERANCE = 1e-4   # the whole-model composite
SEED = 123               # keys each op case's generator, with the case's name
MODEL_SEED = 5           # the tiny episode's generator


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def _central_difference_error(value, point: np.ndarray, analytic: np.ndarray) -> float:
    """Max over components of |analytic - numeric| / max(1, |analytic|), where
    numeric central-differences value() by nudging `point` in place."""
    worst = 0.0
    it = np.nditer(point, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = point[idx]
        point[idx] = original + EPS
        f_plus = value()
        point[idx] = original - EPS
        f_minus = value()
        point[idx] = original
        numeric = (f_plus - f_minus) / (2.0 * EPS)
        a = float(analytic[idx])
        worst = max(worst, abs(a - numeric) / max(1.0, abs(a)))
        it.iternext()
    return worst


def grad_check(f, x):
    """Compare f's analytic gradient at x against central differences.

    f must be a pure function Tensor -> scalar Tensor.  Returns the max
    over components of |analytic - numeric| / max(1, |analytic|).
    """
    leaf = Tensor(np.array(x.data, copy=True), requires_grad=True)
    f(leaf).backward()
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
    point = np.array(x.data, copy=True)
    return _central_difference_error(lambda: f(Tensor(point)).item(), point, analytic)


def _r(rng, *shape):
    return rng.standard_normal(shape)


def _case_add(rng):
    c = Tensor(_r(rng, 3, 4))
    return lambda x: ad.tensor_sum(ad.mul(ad.add(x, c), ad.add(x, c))), Tensor(_r(rng, 3, 4))


def _case_sub(rng):
    c = Tensor(_r(rng, 5))
    return lambda x: ad.tensor_sum(ad.exp(ad.sub(x, c))), Tensor(0.3 * _r(rng, 5))


def _case_mul(rng):
    c = Tensor(_r(rng, 4, 2))
    return lambda x: ad.tensor_sum(ad.mul(x, ad.mul(x, c))), Tensor(_r(rng, 4, 2))


def _case_neg_scale(rng):
    return lambda x: ad.tensor_sum(ad.scale(ad.neg(x), 1.7)), Tensor(_r(rng, 6))


def _case_matmul(rng):
    a = Tensor(_r(rng, 3, 4))
    v = Tensor(_r(rng, 1, 3))
    def f(x):
        row = ad.matmul(v, ad.matmul(a, x))                        # (1, 2)
        return ad.reshape(ad.matmul(row, ad.transpose(row)), ())   # its squared length
    return f, Tensor(_r(rng, 4, 2))


def _case_sum_mean(rng):
    c = Tensor(_r(rng, 3, 5))
    return (lambda x: ad.add(ad.tensor_sum(ad.mul(x, c)), ad.mean(ad.mul(x, x))),
            Tensor(_r(rng, 3, 5)))


def _case_reshape_transpose(rng):
    c = Tensor(_r(rng, 4, 3))
    return (lambda x: ad.tensor_sum(ad.mul(ad.transpose(ad.reshape(x, (3, 4))), c)),
            Tensor(_r(rng, 12)))


def _case_concat_split(rng):
    c = Tensor(_r(rng, 2, 3))
    def f(x):
        top, bottom = ad.split(x, 2)
        joined = ad.concat([ad.mul(top, c), bottom])
        return ad.tensor_sum(ad.mul(joined, joined))
    return f, Tensor(_r(rng, 4, 3))


def _case_gather_rows(rng):
    idx = np.array([0, 2, 2, 1])
    def f(x):
        g = ad.gather_rows(x, idx)
        return ad.tensor_sum(ad.mul(g, g))
    return f, Tensor(_r(rng, 3, 4))


def _case_softmax(rng):
    c = Tensor(_r(rng, 6))
    return lambda x: ad.tensor_sum(ad.mul(ad.softmax(x), c)), Tensor(_r(rng, 6))


def _case_sigmoid(rng):
    return lambda x: ad.tensor_sum(ad.sigmoid(x)), Tensor(2.0 * _r(rng, 7))


def _case_log(rng):
    return lambda x: ad.tensor_sum(ad.log(x)), Tensor(0.5 + np.abs(_r(rng, 5)))


def _case_exp(rng):
    return lambda x: ad.tensor_sum(ad.exp(x)), Tensor(0.5 * _r(rng, 5))


def _case_relu(rng):
    # keep points away from the kink
    x0 = _r(rng, 8)
    x0[np.abs(x0) < 0.05] = 0.3
    return lambda x: ad.tensor_sum(ad.relu(x)), Tensor(x0)


def _case_gelu(rng):
    return lambda x: ad.tensor_sum(ad.gelu(x)), Tensor(_r(rng, 8))


def _case_layer_norm(rng):
    gain = Tensor(1.0 + 0.1 * _r(rng, 6))
    bias = Tensor(0.1 * _r(rng, 6))
    return lambda x: ad.tensor_sum(ad.layer_norm(x, gain, bias)), Tensor(_r(rng, 3, 6))


def _case_cosine(rng):
    b = Tensor(_r(rng, 4, 9))
    c = Tensor(_r(rng, 3, 4))
    return lambda x: ad.tensor_sum(ad.mul(ad.cosine(x, b), c)), Tensor(_r(rng, 3, 9))


def _case_cosine_rhs(rng):
    a = Tensor(_r(rng, 3, 9))
    c = Tensor(_r(rng, 3, 4))
    return lambda x: ad.tensor_sum(ad.mul(ad.cosine(a, x), c)), Tensor(_r(rng, 4, 9))


def _case_head_readout_features(rng):
    query = Tensor(_r(rng, 1, 6))
    c = Tensor(_r(rng, 1, 6))
    return (lambda x: ad.tensor_sum(ad.mul(ad.head_readout(x, query, 3, [4]), c)),
            Tensor(_r(rng, 4, 6)))


def _case_head_readout_query(rng):
    features = Tensor(_r(rng, 4, 6))
    c = Tensor(_r(rng, 1, 6))
    return (lambda x: ad.tensor_sum(ad.mul(ad.head_readout(features, x, 3, [4]), c)),
            Tensor(_r(rng, 1, 6)))


def _case_bce(rng):
    y = (rng.uniform(size=10) > 0.5).astype(np.float64)
    return lambda x: ad.tensor_sum(ad.bce_with_logits(x, y)), Tensor(_r(rng, 10))


def _case_conv2d(rng):
    kernel = Tensor(_r(rng, 3, 2, 2, 2))
    bias = Tensor(_r(rng, 3))
    def f(x):
        out = ad.conv2d(x, kernel, bias, stride=2, padding=1)
        return ad.tensor_sum(ad.mul(out, out))
    return f, Tensor(_r(rng, 2, 5, 5))


def _case_dropout(rng):
    def f(x):
        # fixed generator per call keeps the mask identical across calls
        out = ad.dropout(x, 0.4, np.random.default_rng(11))
        return ad.tensor_sum(ad.mul(out, out))
    return f, Tensor(_r(rng, 4, 4))


def _case_pooled_score(rng):
    # weighted pooling into a scaled cosine score, the LCM inner loop shape
    fmap_const = Tensor(_r(rng, 3, 2, 2))
    target_row = Tensor(_r(rng, 1, 3))
    def f(weights):
        pooled = ad.scale(ad.matmul(ad.reshape(fmap_const, (3, 4)),
                                    ad.reshape(weights, (4, 1))), 1.0 / 4.0)
        score = ad.cosine(ad.reshape(pooled, (1, 3)), target_row)
        return ad.scale(ad.reshape(score, ()), 10.0)
    return f, Tensor(np.abs(_r(rng, 2, 2)) + 0.5)


def _case_linear(rng):
    weight = Tensor(_r(rng, 5, 4))
    c = Tensor(_r(rng, 3, 5))
    return lambda x: ad.tensor_sum(ad.mul(ad.linear(x, weight), c)), Tensor(_r(rng, 3, 4))


def _case_linear_weight(rng):
    x = Tensor(_r(rng, 3, 4))
    c = Tensor(_r(rng, 3, 5))
    return lambda w: ad.tensor_sum(ad.mul(ad.linear(x, w), c)), Tensor(_r(rng, 5, 4))


def _case_linear_batched(rng):
    # per-batch weights, as the dynamic-convolution stages apply them
    x = Tensor(_r(rng, 2, 3, 4))
    c = Tensor(_r(rng, 2, 3, 5))
    return lambda w: ad.tensor_sum(ad.mul(ad.linear(x, w), c)), Tensor(_r(rng, 2, 5, 4))


def _case_head_readout_segments_features(rng):
    queries = Tensor(_r(rng, 3, 6))
    c = Tensor(_r(rng, 3, 6))
    return (lambda x: ad.tensor_sum(ad.mul(ad.head_readout(x, queries, 3, [2, 1, 4]), c)),
            Tensor(_r(rng, 7, 6)))


def _case_head_readout_segments_queries(rng):
    features = Tensor(_r(rng, 7, 6))
    c = Tensor(_r(rng, 3, 6))
    return (lambda x: ad.tensor_sum(ad.mul(ad.head_readout(features, x, 3, [2, 1, 4]), c)),
            Tensor(_r(rng, 3, 6)))


OP_CASES = [
    ("add", _case_add),
    ("sub", _case_sub),
    ("mul", _case_mul),
    ("neg-scale", _case_neg_scale),
    ("matmul", _case_matmul),
    ("sum-mean", _case_sum_mean),
    ("reshape-transpose", _case_reshape_transpose),
    ("concat-split", _case_concat_split),
    ("gather-rows", _case_gather_rows),
    ("softmax", _case_softmax),
    ("sigmoid", _case_sigmoid),
    ("log", _case_log),
    ("exp", _case_exp),
    ("relu", _case_relu),
    ("gelu", _case_gelu),
    ("layer-norm", _case_layer_norm),
    ("cosine", _case_cosine),
    ("bce-with-logits", _case_bce),
    ("conv2d", _case_conv2d),
    ("dropout", _case_dropout),
    ("pooled-score", _case_pooled_score),
    ("cosine-rhs", _case_cosine_rhs),
    ("head-readout-features", _case_head_readout_features),
    ("head-readout-query", _case_head_readout_query),
    ("linear", _case_linear),
    ("linear-weight", _case_linear_weight),
    ("linear-batched", _case_linear_batched),
    ("head-readout-segments-features", _case_head_readout_segments_features),
    ("head-readout-segments-queries", _case_head_readout_segments_queries),
]


def _tiny_episode():
    """A fixed two-label episode with in-memory features, small enough for
    exhaustive finite differences over every model parameter."""
    rng = np.random.default_rng(MODEL_SEED)
    channels, embed_dim = 4, 6
    labels = ("alpha", "beta")
    support_ids = ("s0", "s1")
    query_ids = ("q0", "q1", "q2", "q3")
    arrays = {}
    for image_id in support_ids + query_ids:
        arrays[image_id] = rng.standard_normal((channels, 2, 2))
    support_targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    query_targets = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    episode = Episode(labels=labels, k_shot=1, support_ids=support_ids,
                      support_targets=support_targets, query_ids=query_ids,
                      query_targets=query_targets, query_per_label=2)
    embeddings = np.stack([rng.standard_normal(embed_dim) for _ in labels])
    model = init_model(channels=channels, embed_dim=embed_dim, joint_dim=8, heads=2,
                       dynconv_inner=3, dynconv_top=2, scale=10.0, dropout=0.0,
                       rng=rng)
    return model, episode, arrays, embeddings


def full_model_max_error() -> float:
    """Finite-difference the episode loss against every model parameter."""
    model, episode, store, embeddings = _tiny_episode()
    params = model.named_parameters()

    def loss_tensor():
        cm, q = episode_losses(model, episode, store, embeddings, dropout_rng=None)
        return ad.add(cm, q)

    loss_tensor().backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}
    return max(_central_difference_error(lambda: loss_tensor().item(), p.data, analytic[name])
               for name, p in params.items())


def weighted_pool(fmap: Tensor, weights: Tensor) -> Tensor:
    """Importance-weighted pooling that keeps the 1/(h*w) normalization.

    out_c = (1/(h*w)) * sum_{j,k} weights[j,k] * fmap[c,j,k]; with all
    weights one this equals features.global_pool.
    """
    if fmap.ndim != 3 or weights.shape != fmap.shape[1:]:
        raise ad.ShapeError(f"weighted_pool: map {fmap.shape} vs weights {weights.shape}")
    channels = fmap.shape[0]
    cells = fmap.shape[1] * fmap.shape[2]
    flat = ad.reshape(fmap, (channels, cells))
    pooled = ad.matmul(flat, ad.reshape(weights, (cells, 1)))
    return ad.scale(ad.reshape(pooled, (channels,)), 1.0 / cells)


def _image_loss(joint: JointSpaceParams, fmap: Tensor, targets_row: np.ndarray,
                label_joints: Tensor, weights: Tensor):
    """One image's CM loss with importance-weighted pooling, on the tape:
    the loss whose weight gradient `lcm._image_loss_gradient` writes in
    closed form.  The suite reads its value only, never its gradient."""
    pooled = weighted_pool(fmap, weights)
    flat = score_against(joint, ad.reshape(pooled, (1, pooled.shape[0])), label_joints)
    return ad.tensor_sum(ad.bce_with_logits(flat, targets_row))


def lcm_gradient_max_error() -> float:
    """Finite-difference the taped LCM image loss against the closed-form
    importance gradient that the fit uses."""
    rng = np.random.default_rng(SEED)
    joint = init_joint_space(4, 3, 6, 10.0, rng)
    fmap = rng.standard_normal((4, 3, 3))
    targets = np.array([1.0, 0.0, 1.0])
    label_embeddings = rng.standard_normal((3, 3))
    weights = rng.uniform(0.2, 1.0, size=(3, 3))
    label_joints = project_labels(joint, label_embeddings)
    fmap_t = Tensor(fmap)

    def loss_value():
        return _image_loss(joint, fmap_t, targets, label_joints, Tensor(weights)).item()

    analytic = lcm._image_loss_gradient(joint, fmap[None], targets[None],
                                        label_joints.data)(weights[None])[0]
    return _central_difference_error(loss_value, weights, analytic)


def run_suite(include_model=True) -> list[CheckResult]:
    """Run every per-op check and (optionally) the whole-model composite."""
    results = []
    for name, builder in OP_CASES:
        f, x0 = builder(substream(SEED, "gradcheck", name))
        results.append(CheckResult(name=name, max_error=grad_check(f, x0),
                                   tolerance=OP_TOLERANCE))
    results.append(CheckResult(name="lcm-importance-gradient",
                               max_error=lcm_gradient_max_error(), tolerance=OP_TOLERANCE))
    if include_model:
        results.append(CheckResult(name="full-model", max_error=full_model_max_error(),
                                   tolerance=MODEL_TOLERANCE))
    return results
