"""Test-only oracles: the exact loss change of one LCM cell and the
invariants of a sampled episode."""

import numpy as np

from mlfewshot.autodiff import Tensor
from mlfewshot.joint_space import project_labels
from mlfewshot.verification import _frozen_view, _image_loss


def loss_change_exact(joint, fmap, targets_row, label_embeddings, importance, row, col) -> float:
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


def validate_episode(episode, manifest=None) -> list[str]:
    """Return a list of invariant violations; empty means the episode is sound."""
    problems = []
    n = len(episode.labels)
    if len(episode.support_ids) != episode.k_shot * n:
        problems.append(
            f"support size {len(episode.support_ids)} != k_shot*labels {episode.k_shot * n}"
        )
    if len(episode.query_ids) != episode.query_per_label * n:
        problems.append(
            f"query size {len(episode.query_ids)} != {episode.query_per_label}*labels"
        )
    if len(set(episode.support_ids)) != len(episode.support_ids):
        problems.append("support ids are not distinct")
    if len(set(episode.query_ids)) != len(episode.query_ids):
        problems.append("query ids are not distinct")
    overlap = set(episode.support_ids) & set(episode.query_ids)
    if overlap:
        problems.append(f"support and query overlap: {sorted(overlap)}")
    support_cover = episode.support_targets.sum(axis=0)
    query_cover = episode.query_targets.sum(axis=0)
    for i, label in enumerate(episode.labels):
        if support_cover[i] < episode.k_shot:
            problems.append(f"label {label!r} has {int(support_cover[i])} support images, needs {episode.k_shot}")
        if query_cover[i] < episode.query_per_label:
            problems.append(f"label {label!r} has {int(query_cover[i])} query images, needs {episode.query_per_label}")
    if manifest is not None:
        for image_id in episode.support_ids + episode.query_ids:
            manifest.record_for(image_id)  # raises on unknown ids
    return problems
