"""Ranking metrics and episodic evaluation.

Average precision ranks by descending score with ties broken by original
position; episode-level numbers are averaged unweighted across episodes.
"""

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import seeding
from .autodiff import Tensor
from .embeddings import embed_labels
from .episodes import EpisodePool, records_for_split, sample_episode_with_retries
from .errors import ConfigError
from .joint_space import project_labels
from .lcm import LcmConfig, select_cells
from .model import FeatureStore, ModelState, episode_forward, pooled_globals, score_against
from .prototypes import LabelSide, label_side, simple_attention_prototype

EVAL_MODES = ("base", "lcm", "zeroshot", "simple-attention")

log = logging.getLogger(__name__)


class UndefinedAveragePrecision(ValueError):
    """Raised when AP is requested for a target vector with no positives."""


def average_precision(scores, targets) -> float:
    """AP of one ranking: mean precision at each positive's rank.

    Descending score order; equal scores keep their original relative order.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    if s.shape != y.shape:
        raise ConfigError(f"average_precision: {s.shape} scores vs {y.shape} targets")
    positives = y.sum()
    if positives == 0:
        raise UndefinedAveragePrecision("undefined-ap: no positive targets")
    order = np.lexsort((np.arange(s.size), -s))
    ranked = y[order]
    cumulative = np.cumsum(ranked)
    ranks = np.arange(1, s.size + 1)
    precision_at_positives = (cumulative / ranks)[ranked > 0]
    return float(precision_at_positives.sum() / positives)


def micro_average_precision(score_matrix, target_matrix) -> float:
    """AP over every (image, label) pair pooled into one ranking."""
    s = np.asarray(score_matrix, dtype=np.float64)
    y = np.asarray(target_matrix, dtype=np.float64)
    if s.shape != y.shape:
        raise ConfigError(f"micro_average_precision: {s.shape} vs {y.shape}")
    return average_precision(s.reshape(-1), y.reshape(-1))


def per_label_average_precision(score_matrix, target_matrix, labels) -> dict[str, float]:
    """AP per column; columns without positives are skipped."""
    s = np.asarray(score_matrix, dtype=np.float64)
    y = np.asarray(target_matrix, dtype=np.float64)
    out = {}
    for li, label in enumerate(labels):
        if y[:, li].sum() == 0:
            continue
        out[label] = average_precision(s[:, li], y[:, li])
    return out


def macro_average_precision(per_label: dict[str, float]) -> float:
    """Mean of the per-label APs that are defined (as
    `per_label_average_precision` returns them)."""
    if not per_label:
        raise UndefinedAveragePrecision("undefined-ap: no label has positive targets")
    return float(np.mean(list(per_label.values())))


def f1_scores(prob_matrix, target_matrix) -> tuple[float, float]:
    """(micro, macro) F1 at the fixed threshold: predict iff probability > 0.5.

    A label with no true and no predicted positives scores 0 and still
    counts toward the macro mean.
    """
    p = np.asarray(prob_matrix, dtype=np.float64)
    y = np.asarray(target_matrix, dtype=np.float64)
    if p.shape != y.shape:
        raise ConfigError(f"f1_scores: {p.shape} vs {y.shape}")
    predicted = p > 0.5
    actual = y > 0.5
    # integer counts per label (column)
    tp = (predicted & actual).sum(axis=0)
    fp = (predicted & ~actual).sum(axis=0)
    fn = (~predicted & actual).sum(axis=0)

    def f1(tp, fp, fn):
        denom = 2 * tp + fp + fn
        return np.divide(2 * tp, denom, out=np.zeros(np.shape(denom)), where=denom > 0)

    micro = float(f1(tp.sum(), fp.sum(), fn.sum()))
    macro = float(np.mean(f1(tp, fp, fn)))
    return micro, macro


@dataclass
class MetricsReport:
    micro_ap: float
    macro_ap: float
    micro_f1: float
    macro_f1: float
    per_label_ap: dict[str, float] = field(default_factory=dict)
    episodes: int = 0

    def to_dict(self) -> dict:
        return {
            "micro_ap": self.micro_ap,
            "macro_ap": self.macro_ap,
            "micro_f1": self.micro_f1,
            "macro_f1": self.macro_f1,
            "per_label_ap": {k: self.per_label_ap[k] for k in sorted(self.per_label_ap)},
            "episodes": self.episodes,
        }


def _episode_probabilities(model: ModelState, episode, store, side: LabelSide,
                           mode, lcm_config, collect_detail):
    """Score every query image against every episode label; returns
    (probability matrix, detail rows, per-support-mask fallback flags).
    `side` is the run's label side; lcm mode fits against its joints."""
    shape = (len(episode.query_ids), len(episode.labels))
    detail, fell_back = [], []
    if mode in ("base", "lcm"):
        fmaps = np.stack([store.get(image_id) for image_id in episode.support_ids])
        masks = None
        if mode == "lcm":
            selection = select_cells(model.joint, fmaps, episode.support_targets,
                                     side.joints.data, lcm_config, trained=model.trained)
            masks, fell_back = selection.mask, selection.fell_back
            if collect_detail:
                detail = [{"image_id": image_id, "sigma": selection.sigma[i], "mask": masks[i],
                           "importance": selection.importance[i]}
                          for i, image_id in enumerate(episode.support_ids)]
        logits = episode_forward(model, episode, store, fmaps, side, masks=masks, dropout_rng=None)
    else:
        vectors = side.joints
        if mode == "simple-attention":
            support_globals = pooled_globals(store, episode.support_ids).data
            vectors = ad.concat([
                simple_attention_prototype(
                    ad.linear(Tensor(support_globals[episode.support_targets[:, li] > 0]),
                              model.joint.visual),
                    Tensor(label_joint), model.joint.scale)
                for li, label_joint in enumerate(vectors.data)])
        logits = score_against(model.joint, pooled_globals(store, episode.query_ids), vectors)
    return ad._logistic(logits.data.reshape(shape)), detail, fell_back


def evaluate(model: ModelState, manifest, vocabulary, table, *, split, episodes, k_shot,
             seed, mode, theta, lcm_config: LcmConfig, store: FeatureStore,
             normalize_embeddings, collect_detail=False,
             threads) -> tuple[MetricsReport, list]:
    """Evaluate seeded episodes of `split`, reading maps through the run's `store`.

    Episode sampling depends only on (seed, episode index), so different
    modes at the same seed see identical episodes.  "lcm" mode fits with
    `lcm_config` against the label side's joints and selects at its
    threshold, which `theta` must equal.  Detail rows carry the
    per-support-image importance data in "lcm" mode when asked.  Support
    masks that fall back to keep-all are summarised in one warning.
    `RunConfig.validate` owns the rules on `episodes` and `threads`.
    """
    if mode not in EVAL_MODES:
        raise ConfigError(f"unknown-mode: {mode!r} is not one of {EVAL_MODES}")
    if theta != lcm_config.threshold:
        raise ConfigError(f"theta {theta} differs from the LCM threshold {lcm_config.threshold}")
    labels = list(vocabulary.labels_for(split))
    if not labels:
        raise ConfigError(f"split {split!r} has no labels")
    record_pool = EpisodePool(manifest, records_for_split(manifest, vocabulary, split))
    # a frozen model and episodes that carry all of the split's labels: one side serves them all
    side = label_side(model.attention, model.dynconv, project_labels(
        model.joint, embed_labels(table, labels, normalize=normalize_embeddings)))

    def run_episode(idx):
        episode = sample_episode_with_retries(
            record_pool, labels, k_shot,
            lambda attempt: seeding.substream(seed, "eval", idx, attempt))
        probs, detail, fell_back = _episode_probabilities(
            model, episode, store, side, mode, lcm_config, collect_detail)
        targets = episode.query_targets
        per_label = per_label_average_precision(probs, targets, episode.labels)
        row = {
            "micro_ap": micro_average_precision(probs, targets),
            "macro_ap": macro_average_precision(per_label),
            "per_label_ap": per_label,
        }
        row["micro_f1"], row["macro_f1"] = f1_scores(probs, targets)
        for entry in detail:
            entry["episode"] = idx
        return row, detail, fell_back

    if threads == 1:
        results = [run_episode(idx) for idx in range(episodes)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_episode, range(episodes)))

    rows = [r for r, _, _ in results]
    all_detail = [entry for _, d, _ in results for entry in d]
    flags = [flag for _, _, f in results for flag in f]
    if any(flags):
        log.warning("lcm: %d of %d support masks fell back to keep-all at theta=%s",
                    sum(flags), len(flags), lcm_config.threshold)
    per_label_values: dict[str, list[float]] = {}
    for row in rows:
        for label, value in row["per_label_ap"].items():
            per_label_values.setdefault(label, []).append(value)
    report = MetricsReport(
        micro_ap=float(np.mean([r["micro_ap"] for r in rows])),
        macro_ap=float(np.mean([r["macro_ap"] for r in rows])),
        micro_f1=float(np.mean([r["micro_f1"] for r in rows])),
        macro_f1=float(np.mean([r["macro_f1"] for r in rows])),
        per_label_ap={label: float(np.mean(vals)) for label, vals in per_label_values.items()},
        episodes=episodes,
    )
    return report, all_detail
