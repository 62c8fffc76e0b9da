"""Loss-change measurement: per-image local-feature importance and selection.

Each support image gets a grid of importance weights, fitted at test time
by minimizing that image's class-mapping loss under weighted pooling with
everything else frozen.  A first-order estimate of how much the loss would
change if a cell were removed is tracked with a momentum accumulator, and
cells whose sigmoided accumulator clears a threshold are kept.

The fit needs only the loss's gradient in the weights, which has a closed
form (pooling is linear in the weights), so it runs in plain numpy with no
tape.  The taped image loss stays as the definition that the exact
loss-change and the tests measure the closed form against.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DegenerateVectorError, Tensor
from .errors import ConfigError
from .features import weighted_pool
from .joint_space import JointSpaceParams, project_labels
from .model import atomic_open, score_against
from .optim import Adam


# cap on the momentum warm-up coefficient
MOMENTUM_CAP = 0.95


@dataclass
class LcmConfig:
    """Importance-fitting values; the one place their rules are checked.
    Messages name the run-config keys (theta, lcm_lr, lcm_epochs)."""

    threshold: float = 0.65     # selection threshold on sigma(accumulator), in [0.5, 1)
    learning_rate: float = 0.01
    epochs: int = 20

    def __post_init__(self):
        validate_threshold(self.threshold)
        if self.epochs < 1:
            raise ConfigError(f"lcm_epochs must be >= 1, got {self.epochs}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ConfigError(f"lcm_lr must be positive and finite, got {self.learning_rate}")


def validate_threshold(threshold: float):
    # sigma of a nonnegative accumulator is always >= 0.5, so 0.5 keeps everything
    if not 0.5 <= threshold < 1.0:
        raise ConfigError(f"theta (the selection threshold) must lie in [0.5, 1), got {threshold}")


@dataclass
class ImportanceMap:
    """Fitted state for one support image."""

    importance: np.ndarray   # (h, w) weights in [0, 1]
    accumulator: np.ndarray  # (h, w) momentum-smoothed loss-change grid, nonnegative


def normalize_importance(values: np.ndarray) -> np.ndarray:
    """Min-max to [0, 1]; exact zeros are lifted to the smallest nonzero
    entry of the normalized map so no cell is removed permanently; a
    constant map becomes all ones."""
    v = np.asarray(values, dtype=np.float64)
    low = v.min()
    high = v.max()
    if high == low:
        return np.ones_like(v)
    out = (v - low) / (high - low)
    smallest_nonzero = out[out > 0].min()
    out[out == 0] = smallest_nonzero
    return out


def momentum_alpha(iteration: int) -> float:
    """Warm-up coefficient min(1 - 1/(i+1), MOMENTUM_CAP) for iteration i >= 1."""
    if iteration < 1:
        raise ConfigError(f"momentum iteration starts at 1, got {iteration}")
    return min(1.0 - 1.0 / (iteration + 1), MOMENTUM_CAP)


def momentum_update(accumulator: np.ndarray, grid: np.ndarray, iteration: int) -> np.ndarray:
    """f_i = alpha_i * f_{i-1} + (1 - alpha_i) * g_i with f_0 = 0."""
    alpha = momentum_alpha(iteration)
    return alpha * np.asarray(accumulator, dtype=np.float64) + (1.0 - alpha) * np.asarray(grid, dtype=np.float64)


def _frozen_view(joint: JointSpaceParams) -> JointSpaceParams:
    # shares data, drops requires_grad: only the importance weights may train
    return JointSpaceParams(
        visual=Tensor(joint.visual.data),
        text=Tensor(joint.text.data),
        scale=joint.scale,
    )


def _image_loss(frozen: JointSpaceParams, fmap: Tensor, targets_row: np.ndarray,
                label_joints: Tensor, weights: Tensor):
    """This image's CM loss with importance-weighted pooling."""
    pooled = weighted_pool(fmap, weights)
    flat = score_against(frozen, ad.reshape(pooled, (1, pooled.shape[0])), label_joints)
    return ad.tensor_sum(ad.bce_with_logits(flat, targets_row))


def loss_change_exact(joint: JointSpaceParams, fmap: np.ndarray, targets_row,
                      label_embeddings, importance: np.ndarray, row: int, col: int) -> float:
    """|loss(importance) - loss(importance with cell (row, col) zeroed)|,
    by two forward passes."""
    frozen = _frozen_view(joint)
    label_joints = project_labels(frozen, label_embeddings)
    fmap_t = Tensor(fmap)
    y = np.asarray(targets_row, dtype=np.float64)
    with_cell = _image_loss(frozen, fmap_t, y, label_joints, Tensor(importance)).item()
    zeroed = np.array(importance, dtype=np.float64, copy=True)
    zeroed[row, col] = 0.0
    without_cell = _image_loss(frozen, fmap_t, y, label_joints, Tensor(zeroed)).item()
    return abs(with_cell - without_cell)


def _image_loss_gradient(joint: JointSpaceParams, fmap: np.ndarray, targets_row,
                         label_embeddings):
    """Closed-form d loss / d importance of `_image_loss`, as a function of
    the (h, w) weights.

    With M = visual @ fmap_flat / cells, v = M w, unit label vectors u_l,
    cosines c_l = u_l . v / |v| and residuals r_l = sigma(scale * c_l) - y_l:
    d loss / d v = (scale / |v|) * (sum_l r_l u_l - (r . c) v / |v|) and
    d loss / d w = M^T (d loss / d v).
    """
    channels, height, width = fmap.shape
    cells = height * width
    pooling = joint.visual.data @ fmap.reshape(channels, cells) / cells
    label_joints = np.asarray(label_embeddings, dtype=np.float64) @ joint.text.data.T
    label_norms = np.linalg.norm(label_joints, axis=1)
    y = np.asarray(targets_row, dtype=np.float64)
    if y.shape != label_norms.shape:
        raise ad.ShapeError(f"lcm: targets {y.shape} vs {label_norms.shape[0]} labels")
    if np.any(label_norms == 0.0):
        raise DegenerateVectorError("degenerate-vector: cosine of a zero-length vector")
    units = label_joints / label_norms[:, None]
    scale = joint.scale

    def gradient(weights: np.ndarray) -> np.ndarray:
        visual = pooling @ weights.reshape(cells)
        norm = np.linalg.norm(visual)
        if norm == 0.0:
            raise DegenerateVectorError("degenerate-vector: cosine of a zero-length vector")
        cosines = units @ visual / norm
        residuals = ad._logistic(scale * cosines) - y
        d_visual = (scale / norm) * (units.T @ residuals - (residuals @ cosines) / norm * visual)
        return (pooling.T @ d_visual).reshape(height, width)

    return gradient


def loss_change_taylor(joint: JointSpaceParams, fmap: np.ndarray, targets_row,
                       label_embeddings, importance: np.ndarray) -> np.ndarray:
    """First-order grid |importance * d loss / d importance| for every cell,
    from the closed-form gradient."""
    importance = np.asarray(importance, dtype=np.float64)
    gradient = _image_loss_gradient(joint, np.asarray(fmap, dtype=np.float64), targets_row,
                                    label_embeddings)
    return np.abs(importance * gradient(importance))


def fit_importance(joint: JointSpaceParams, fmap: np.ndarray, targets_row,
                   label_embeddings, config: LcmConfig, *, trained: bool = True) -> ImportanceMap:
    """Fit one support image's importance weights with the model frozen.

    Per epoch: one Adam step on the weights minimizing the image's CM loss
    under weighted pooling, clamp to [0, 1] and normalize, then refresh the
    loss-change grid and fold it into the momentum accumulator.  The
    gradient behind each grid is also the one the next epoch's Adam step
    takes, so every epoch evaluates the gradient once.
    """
    if not trained:
        raise ConfigError("untrained-model: importance weights are fitted on a trained model")
    fmap = np.asarray(fmap, dtype=np.float64)
    if fmap.ndim != 3:
        raise ConfigError(f"fit_importance: expected a (c, h, w) feature map, got {fmap.shape}")
    gradient = _image_loss_gradient(joint, fmap, targets_row, label_embeddings)
    weights = Tensor(np.ones(fmap.shape[1:]))
    accumulator = np.zeros(weights.shape)
    optimizer = Adam({"importance": weights}, lr=config.learning_rate)
    weights.grad = gradient(weights.data)
    for iteration in range(1, config.epochs + 1):
        optimizer.step()
        np.clip(weights.data, 0.0, 1.0, out=weights.data)
        weights.data[...] = normalize_importance(weights.data)
        weights.grad = gradient(weights.data)
        grid = np.abs(weights.data * weights.grad)
        accumulator = momentum_update(accumulator, grid, iteration)
    return ImportanceMap(importance=weights.data.copy(), accumulator=accumulator)


def sigma_grid(state: ImportanceMap) -> np.ndarray:
    """Sigmoid of the accumulator; what the selection threshold is applied to."""
    return ad._logistic(state.accumulator)


def select_features(state: ImportanceMap, threshold: float) -> tuple[np.ndarray, bool]:
    """Boolean keep-mask sigma(accumulator) >= threshold, and whether it fell
    back: a mask that keeps nothing becomes all-true.  Callers report the
    fallbacks.

    The accumulator is nonnegative, so threshold 0.5 keeps every cell and
    reduces the pipeline to the base model.
    """
    validate_threshold(threshold)
    mask = sigma_grid(state) >= threshold
    if not mask.any():
        return np.ones_like(mask), True
    return mask, False


def write_importance_grid(path, grid: np.ndarray):
    """Write a (h, w) grid as text, one row per line."""
    grid = np.asarray(grid)
    with atomic_open(path, "w") as handle:
        for row in grid:
            handle.write(" ".join(f"{v:.6f}" for v in row) + "\n")


def write_selection_mask(path, mask: np.ndarray):
    with atomic_open(path, "w") as handle:
        for row in np.asarray(mask).astype(int):
            handle.write(" ".join(str(v) for v in row) + "\n")
