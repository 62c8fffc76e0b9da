"""Episodic training of the joint space and the prototype modules.

Each episode draws support/query images for every base label, then
minimizes  total = cm + gamma * query  where cm aligns every episode
image's global feature with the label embeddings and query scores the
query images against the constructed prototypes.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import seeding
from .embeddings import embed_label
from .episodes import records_for_split, sample_episode_with_retries
from .errors import ConfigError, NumericError
from .features import global_pool
from .model import FeatureStore, ModelState, episode_forward, score_loss
from .optim import Adam


@dataclass
class TrainSettings:
    epochs: int = 30
    warmup_epochs: int = 3
    episodes_per_epoch: int = 16
    k_shot: int = 1
    lr: float = 0.001
    gamma: float = 1.0
    seed: int = 0
    retries: int = 20
    normalize_embeddings: bool = False

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.episodes_per_epoch < 1:
            raise ConfigError(f"episodes_per_epoch must be >= 1, got {self.episodes_per_epoch}")
        if self.k_shot < 1:
            raise ConfigError(f"k_shot must be >= 1, got {self.k_shot}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if self.warmup_epochs < 0:
            raise ConfigError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
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


def episode_losses(model: ModelState, episode, store, embeddings_by_label,
                   *, dropout_rngs=None, training=True):
    """Forward one episode; returns (cm, query) loss tensors."""
    label_joints, support_maps, logits = episode_forward(
        model, episode, store, embeddings_by_label, dropout_rngs=dropout_rngs,
        training=training)
    # the alignment loss sees support images only; queries contribute
    # through the prototype scoring
    cm = score_loss(model.joint, [global_pool(m) for m in support_maps], label_joints,
                    episode.support_targets)
    y = np.asarray(episode.query_targets, dtype=np.float64).reshape(-1)
    return cm, ad.tensor_sum(ad.bce_with_logits(logits, y))


def train(model: ModelState, manifest, vocabulary, table, settings: TrainSettings,
          *, store=None, optimizer=None, log_path=None) -> TrainResult:
    """Run episodic training from model.epoch up to settings.epochs.

    Deterministic for a fixed seed: episode sampling, dropout, and parameter
    updates all draw from named substreams of settings.seed.
    """
    if store is None:
        store = FeatureStore(manifest)
    if optimizer is None:
        optimizer = Adam(model.named_parameters(), settings.lr)
    base_labels = list(vocabulary.base)
    if not base_labels:
        raise ConfigError("no base labels to train on")
    record_pool = records_for_split(manifest, vocabulary, "base")
    embeddings_by_label = {
        label: embed_label(table, label, normalize=settings.normalize_embeddings)
        for label in base_labels
    }

    rows = []
    log_handle = None
    writer = None
    if log_path is not None:
        fresh = model.epoch == 0
        log_handle = open(log_path, "a" if not fresh else "w", newline="")
        writer = csv.writer(log_handle)
        if fresh:
            writer.writerow(["epoch", "cm_loss", "query_loss", "total_loss", "lr"])
    try:
        for epoch in range(model.epoch, settings.epochs):
            lr = warmup_lr(settings.lr, epoch, settings.warmup_epochs)
            cm_sum = 0.0
            query_sum = 0.0
            total_sum = 0.0
            for i in range(settings.episodes_per_epoch):
                episode = sample_episode_with_retries(
                    manifest, record_pool, base_labels, settings.k_shot,
                    lambda attempt: seeding.substream(settings.seed, "sample", epoch, i, attempt),
                    retries=settings.retries)
                dropout_rngs = {
                    label: seeding.substream(settings.seed, "dropout", epoch, i, li)
                    for li, label in enumerate(episode.labels)
                }
                cm, q = episode_losses(model, episode, store, embeddings_by_label,
                                       dropout_rngs=dropout_rngs, training=True)
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
            row = EpochRow(epoch=epoch, cm_loss=cm_sum / n, query_loss=query_sum / n,
                           total_loss=total_sum / n, lr=lr)
            rows.append(row)
            if writer is not None:
                writer.writerow([row.epoch, repr(row.cm_loss), repr(row.query_loss),
                                 repr(row.total_loss), repr(row.lr)])
                log_handle.flush()
            model.epoch = epoch + 1
    finally:
        if log_handle is not None:
            log_handle.close()
    return TrainResult(model=model, optimizer=optimizer, rows=rows)
