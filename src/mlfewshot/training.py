"""Episodic training of the joint space and the prototype modules.

Each episode draws support/query images for every base label, then
minimizes  total = cm + gamma * query  where cm aligns every episode
image's global feature with the label embeddings and query scores the
query images against the constructed prototypes.
"""

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import seeding
from .embeddings import embed_labels
from .episodes import EpisodePool, records_for_split, sample_episode_with_retries
from .errors import ConfigError, NumericError
from .joint_space import project_labels
from .model import (FeatureStore, ModelState, atomic_open, episode_prototypes, pooled_globals,
                    score_against, score_loss)
from .optim import Adam
from .prototypes import label_side


@dataclass
class TrainSettings:
    """Training values; the one place their rules are checked."""

    epochs: int = 30
    warmup_epochs: int = 3
    episodes_per_epoch: int = 16
    k_shot: int = 1
    lr: float = 0.001
    gamma: float = 1.0
    seed: int = 0
    normalize_embeddings: bool = False

    def __post_init__(self):
        for name in ["epochs", "warmup_epochs"]:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ["episodes_per_epoch", "k_shot"]:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not (self.gamma >= 0 and math.isfinite(self.gamma)):
            raise ConfigError(f"gamma must be >= 0 and finite, got {self.gamma}")
        if self.epochs > 0 and self.warmup_epochs >= self.epochs:
            raise ConfigError(
                f"warmup_epochs ({self.warmup_epochs}) must be below epochs ({self.epochs})")


@dataclass
class EpochRow:
    epoch: int
    cm_loss: float
    query_loss: float
    total_loss: float
    lr: float


@dataclass
class TrainResult:
    model: ModelState
    optimizer: Adam
    rows: list = field(default_factory=list)


def warmup_lr(base_lr: float, epoch: int, warmup_epochs: int) -> float:
    """Linear ramp from 0 to base_lr across the warm-up epochs, then flat."""
    if warmup_epochs <= 0:
        return base_lr
    return base_lr * min(1.0, epoch / warmup_epochs)


def episode_losses(model: ModelState, episode, store, label_embeddings, *, dropout_rng):
    """Forward one episode against the label-embedding matrix, with dropout
    drawn from `dropout_rng` (None for none); returns (cm, query) losses.
    The parameters move after every step, so each episode projects the
    labels and builds their label side afresh, on the tape.  Queries are
    scored against `episode_prototypes` as in `base`-mode evaluation."""
    fmaps = np.stack([store.get(image_id) for image_id in episode.support_ids])
    side = label_side(model.attention, model.dynconv,
                      project_labels(model.joint, label_embeddings))
    protos = episode_prototypes(model, episode, fmaps, side, masks=None, dropout_rng=dropout_rng)
    logits = score_against(model.joint, pooled_globals(store, episode.query_ids), protos)
    # the alignment loss sees support images only; queries contribute
    # through the prototype scoring
    cm = score_loss(model.joint, pooled_globals(store, episode.support_ids), side.joints,
                    episode.support_targets)
    y = np.asarray(episode.query_targets, dtype=np.float64).reshape(-1)
    return cm, ad.tensor_sum(ad.bce_with_logits(logits, y))


def train(model: ModelState, manifest, vocabulary, table, settings: TrainSettings,
          *, store: FeatureStore, optimizer: Adam, log_path=None) -> TrainResult:
    """Run episodic training from model.epoch up to settings.epochs, stepping
    the caller's `optimizer`, fresh or restored to resume, over the model.

    With `log_path`, the CSV log there is rewritten whole, atomically, before
    the first epoch and after each one: the header, an earlier log's rows for
    epochs below model.epoch, and this run's rows.

    Deterministic for a fixed seed: episode sampling, dropout, and parameter
    updates all draw from named substreams of settings.seed.
    """
    # a loaded checkpoint holds frozen parameters; training needs their gradients
    for p in model.named_parameters().values():
        p.requires_grad = True
    base_labels = list(vocabulary.base)
    if not base_labels:
        raise ConfigError("no base labels to train on")
    record_pool = EpisodePool(manifest, records_for_split(manifest, vocabulary, "base"))
    label_embeddings = embed_labels(table, base_labels, normalize=settings.normalize_embeddings)

    rows = []
    earlier = []
    if log_path is not None and model.epoch > 0 and Path(log_path).is_file():
        with open(log_path, newline="") as old:
            earlier = [row for row in list(csv.reader(old))[1:]
                       if row and row[0].isdigit() and int(row[0]) < model.epoch]

    def write_log():
        if log_path is not None:
            with atomic_open(log_path, "w") as handle:
                writer = csv.writer(handle)
                writer.writerows([["epoch", "cm_loss", "query_loss", "total_loss", "lr"], *earlier])
                writer.writerows(
                    [r.epoch, *map(repr, (r.cm_loss, r.query_loss, r.total_loss, r.lr))]
                    for r in rows)

    write_log()
    for epoch in range(model.epoch, settings.epochs):
        lr = warmup_lr(settings.lr, epoch, settings.warmup_epochs)
        cm_sum = 0.0
        query_sum = 0.0
        total_sum = 0.0
        for i in range(settings.episodes_per_epoch):
            episode = sample_episode_with_retries(
                record_pool, base_labels, settings.k_shot,
                lambda attempt: seeding.substream(settings.seed, "sample", epoch, i, attempt))
            cm, q = episode_losses(
                model, episode, store, label_embeddings,
                dropout_rng=seeding.substream(settings.seed, "dropout", epoch, i))
            total = ad.add(cm, ad.scale(q, settings.gamma))
            if not np.isfinite(total.data):
                raise NumericError(
                    f"non-finite loss at epoch {epoch} episode {i} "
                    f"(seed {settings.seed})")
            optimizer.zero_grad()
            total.backward()
            optimizer.step(lr=lr)
            cm_sum += cm.item()
            query_sum += q.item()
            total_sum += total.item()
        n = settings.episodes_per_epoch
        rows.append(EpochRow(epoch=epoch, cm_loss=cm_sum / n, query_loss=query_sum / n,
                             total_loss=total_sum / n, lr=lr))
        write_log()
        model.epoch = epoch + 1
    return TrainResult(model=model, optimizer=optimizer, rows=rows)
