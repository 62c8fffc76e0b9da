"""Loss-change measurement: per-image local-feature importance and selection.

Each support image gets a grid of importance weights, fitted at test time
by minimizing that image's class-mapping loss under weighted pooling with
everything else frozen, against the initial prototypes: the label vectors
in the joint space, which callers take from their run's label side.  A
dataset has one map shape, so one fit takes an episode's (n, c, h, w)
stack.  A first-order estimate of how much the loss would change if a cell
were removed, |w * d loss / d w| (the Taylor criterion of Molchanov et al.,
CVPR 2019), is tracked with a momentum accumulator, and `select_cells`
keeps the cells whose sigmoided accumulator clears `LcmConfig.threshold`,
the run's theta.

The fit needs only the loss's gradient in the weights, which has a closed
form (pooling is linear in the weights), so it runs in plain numpy with no
tape.  The taped form of the same loss is in verification.py, whose
gradient check measures the closed form against it.  This module holds
the method only; the `inspect-lcm` command writes the grids it fits.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DegenerateVectorError, Tensor
from .errors import ConfigError
from .joint_space import JointSpaceParams
from .optim import Adam


# cap on the momentum warm-up coefficient
MOMENTUM_CAP = 0.95
# the axes of one importance grid in a stack of them
GRID_AXES = (-2, -1)


@dataclass
class LcmConfig:
    """Importance-fitting values; the one place their rules are checked.
    Messages name the run-config keys (theta, lcm_lr, lcm_epochs)."""

    threshold: float = 0.65     # selection threshold on sigma(accumulator), in [0.5, 1)
    learning_rate: float = 0.01
    epochs: int = 20

    def __post_init__(self):
        # sigma of a nonnegative accumulator is always >= 0.5, so 0.5 keeps everything
        if not 0.5 <= self.threshold < 1.0:
            raise ConfigError(f"theta (the selection threshold) must lie in [0.5, 1), "
                              f"got {self.threshold}")
        if self.epochs < 1:
            raise ConfigError(f"lcm_epochs must be >= 1, got {self.epochs}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ConfigError(f"lcm_lr must be positive and finite, got {self.learning_rate}")


@dataclass
class Selection:
    """A support stack's fitted grids and the cells kept from each map."""

    importance: np.ndarray   # (n, h, w) weights in [0, 1]
    sigma: np.ndarray        # (n, h, w) sigmoid of the loss-change accumulator
    mask: np.ndarray         # (n, h, w) bool: sigma >= threshold, or every cell when none clears it
    fell_back: np.ndarray    # (n,) bool: whether each map's mask fell back to every cell


def normalize_importance(values: np.ndarray) -> np.ndarray:
    """Min-max each grid (the last two axes) to [0, 1] on its own; exact
    zeros are lifted to the smallest nonzero entry of their normalized grid
    so no cell is removed permanently; a constant grid becomes all ones."""
    v = np.asarray(values, dtype=np.float64)
    low = np.minimum.reduce(v, axis=GRID_AXES, keepdims=True)
    span = np.maximum.reduce(v, axis=GRID_AXES, keepdims=True) - low
    # a constant grid divides by inf, to all zeros
    out = (v - low) / np.where(span == 0.0, np.inf, span)
    # every nonzero entry is at least the smallest one, so only zeros move;
    # a grid of zeros has no nonzero entry and takes the initial 1
    return np.maximum(out, np.minimum.reduce(out, axis=GRID_AXES, keepdims=True,
                                             where=out > 0, initial=1.0))


def _image_loss_gradient(joint: JointSpaceParams, fmaps: np.ndarray, targets, label_joints):
    """Closed-form d loss / d importance of each image's CM loss under
    weighted pooling, for every image of an (n, c, h, w) stack with
    (n, labels) targets against the (labels, joint_dim) `label_joints`, as
    a function of the (n, h, w) weights.

    Per image, with M = visual @ fmap_flat / cells, v = M w, unit label
    joints u_l, cosines c_l = u_l . v / |v| and residuals
    r_l = sigma(scale * c_l) - y_l:
    d loss / d v = (scale / |v|) * (sum_l r_l u_l - (r . c) v / |v|) and
    d loss / d w = M^T (d loss / d v).

    Every product keeps its one-image shape and runs as one BLAS call per
    image, so each image's gradient sums in the order a stack of that image
    alone does, bitwise; one matrix product over the whole stack would not.
    """
    count, channels, height, width = fmaps.shape
    cells = height * width
    pooling = np.matmul(joint.visual.data, fmaps.reshape(count, channels, cells)) / cells
    pooling_t = pooling.transpose(0, 2, 1)
    label_norms = np.linalg.norm(label_joints, axis=1)
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (count, label_norms.shape[0]):
        raise ad.ShapeError(f"lcm: targets {y.shape} vs {count} images and "
                            f"{label_norms.shape[0]} labels")
    if np.any(label_norms == 0.0):
        raise DegenerateVectorError("degenerate-vector: cosine of a zero-length vector")
    units = label_joints / label_norms[:, None]
    units_t = units.T
    y = y[..., None]
    scale = joint.scale

    def gradient(weights: np.ndarray) -> np.ndarray:
        # column vectors throughout: (n, d, 1) pooled visuals, (n, labels, 1) cosines
        visual = np.matmul(pooling, weights.reshape(count, cells, 1))
        norm = np.sqrt(np.matmul(visual.transpose(0, 2, 1), visual))
        if not norm.all():
            raise DegenerateVectorError("degenerate-vector: cosine of a zero-length vector")
        cosines = np.matmul(units, visual) / norm
        residuals = ad._logistic(scale * cosines) - y
        along = np.matmul(residuals.transpose(0, 2, 1), cosines)
        d_visual = (scale / norm) * (np.matmul(units_t, residuals) - along / norm * visual)
        return np.matmul(pooling_t, d_visual).reshape(count, height, width)

    return gradient


def fit_importance(joint: JointSpaceParams, fmaps: np.ndarray, targets, label_joints,
                   config: LcmConfig) -> tuple[np.ndarray, np.ndarray]:
    """Fit the importance weights of an (n, c, h, w) stack of support maps,
    one grid per image, with the model frozen, against the (labels, joint_dim)
    `label_joints`; `targets` is (n, labels).  Returns the (n, h, w) weights
    in [0, 1] and the (n, h, w) momentum-smoothed loss-change grids, which
    are nonnegative.

    Per epoch: one Adam step on the weights minimizing each image's CM loss
    under weighted pooling, clamp to [0, 1] and normalize each grid, then
    fold the loss-change grids g_i = |w * d loss / d w| into the momentum
    f_i = a_i f_{i-1} + (1 - a_i) g_i, with f_0 = 0 and a_i = min(1 - 1/(i+1),
    MOMENTUM_CAP).  The gradient behind each grid is also the one the next
    epoch's Adam step takes, so every epoch evaluates the gradient once.
    Images do not interact: every operation is elementwise or per image, so
    each image's grids are bitwise those of a stack of that image alone.
    """
    fmaps = np.asarray(fmaps, dtype=np.float64)
    if fmaps.ndim != 4:
        raise ConfigError(f"fit_importance: expected an (n, c, h, w) stack of feature maps, "
                          f"got {fmaps.shape}")
    gradient = _image_loss_gradient(joint, fmaps, targets, label_joints)
    weights = Tensor(np.ones((fmaps.shape[0], *fmaps.shape[2:])))
    accumulator = np.zeros(weights.shape)
    optimizer = Adam({"importance": weights}, lr=config.learning_rate)
    weights.grad = gradient(weights.data)
    for iteration in range(1, config.epochs + 1):
        optimizer.step()
        np.clip(weights.data, 0.0, 1.0, out=weights.data)
        weights.data[...] = normalize_importance(weights.data)
        weights.grad = gradient(weights.data)
        alpha = min(1.0 - 1.0 / (iteration + 1), MOMENTUM_CAP)
        accumulator = alpha * accumulator + (1.0 - alpha) * np.abs(weights.data * weights.grad)
    return weights.data.copy(), accumulator


def select_cells(joint: JointSpaceParams, fmaps, targets, label_joints,
                 config: LcmConfig, *, trained: bool) -> Selection:
    """Fit an (n, c, h, w) stack of support maps with (n, labels) `targets`
    against the (labels, joint_dim) `label_joints` of a trained model in one
    `fit_importance` call and keep each map's cells whose sigma(accumulator)
    >= `config.threshold`, as one Selection of (n, h, w) grids.  A grid that
    keeps nothing becomes all-true; callers report the fallbacks.  The
    accumulator is nonnegative, so threshold 0.5 keeps every cell: the base
    model."""
    if not trained:
        raise ConfigError("untrained-model: importance weights are fitted on a trained model")
    importance, accumulator = fit_importance(joint, fmaps, targets, label_joints, config)
    sigma = ad._logistic(accumulator)
    mask = sigma >= config.threshold
    fell_back = ~mask.any(axis=GRID_AXES)
    mask |= fell_back[:, None, None]
    return Selection(importance, sigma, mask, fell_back)
