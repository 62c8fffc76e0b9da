"""Test-only oracles: the exact loss change of one LCM cell, the
invariants of a sampled episode, and the set-based episode sampler."""

import numpy as np

from mlfewshot.autodiff import Tensor
from mlfewshot.episodes import QUERY_PER_LABEL, SAMPLE_RETRIES, Episode
from mlfewshot.errors import DataError, InsufficientImagesError
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


def _multi_hot(manifest, ids, labels) -> np.ndarray:
    index = {label: i for i, label in enumerate(labels)}
    out = np.zeros((len(ids), len(labels)), dtype=np.float64)
    for row, image_id in enumerate(ids):
        for label in manifest.record_for(image_id).labels:
            if label in index:
                out[row, index[label]] = 1.0
    return out


def _draw_for_labels(manifest, pool, labels, per_label, excluded, rng):
    """Draw `per_label` fresh images carrying each label, label order seeded,
    rebuilding each label's candidates as a sorted set difference."""
    chosen: list[int] = []
    chosen_set = set(excluded)
    order = [labels[i] for i in rng.permutation(len(labels))]
    for label in order:
        candidates = sorted(set(manifest.by_label.get(label, ())) & pool - chosen_set)
        if len(candidates) < per_label:
            raise InsufficientImagesError(label, per_label, len(candidates))
        picks = rng.choice(len(candidates), size=per_label, replace=False)
        for p in sorted(picks):
            chosen.append(candidates[p])
            chosen_set.add(candidates[p])
    return chosen


def set_based_sample_episode(manifest, record_pool, labels, k_shot, rng) -> Episode:
    """The set-based sampler that `episodes.sample_episode` must match draw
    for draw: same ids, same targets, same InsufficientImagesError.  It
    rebuilds every label's candidates from Python sets at every draw."""
    labels = tuple(labels)
    if not labels:
        raise DataError("episode needs at least one label")
    if k_shot < 1:
        raise DataError(f"k_shot must be >= 1, got {k_shot}")
    pool = set(record_pool)
    support = _draw_for_labels(manifest, pool, labels, k_shot, set(), rng)
    query = _draw_for_labels(manifest, pool, labels, QUERY_PER_LABEL, set(support), rng)
    support_ids = tuple(manifest.records[i].image_id for i in support)
    query_ids = tuple(manifest.records[i].image_id for i in query)
    return Episode(
        labels=labels,
        k_shot=k_shot,
        support_ids=support_ids,
        support_targets=_multi_hot(manifest, support_ids, labels),
        query_ids=query_ids,
        query_targets=_multi_hot(manifest, query_ids, labels),
    )


def set_based_sample_episode_with_retries(manifest, record_pool, labels, k_shot,
                                          make_rng) -> Episode:
    """`episodes.sample_episode_with_retries` over the set-based sampler."""
    last = None
    for attempt in range(SAMPLE_RETRIES):
        try:
            return set_based_sample_episode(manifest, record_pool, labels, k_shot,
                                            make_rng(attempt))
        except InsufficientImagesError as err:
            last = err
    raise last
