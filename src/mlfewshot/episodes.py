"""Dataset manifests, episode sampling, and a synthetic planted-signal generator.

A manifest is UTF-8 JSON-lines, one record per line with fields id, features
(path relative to the manifest), and labels; '#' lines are comments.  An
episode draws K support images per label and a fixed 4 query images per
label, all without replacement across the whole episode.
"""

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import (
    EmbeddingTable,
    LabelVocabulary,
    utf8_lines,
    write_embedding_file,
    write_vocabulary,
)
from .errors import ConfigError, DataError, InsufficientImagesError
from .features import write_feature_file

log = logging.getLogger(__name__)

QUERY_PER_LABEL = 4
# fresh seeds an episode sampler tries before giving up
SAMPLE_RETRIES = 20


@dataclass
class ManifestRecord:
    image_id: str
    features: str          # path relative to the manifest file
    labels: tuple[str, ...]


@dataclass
class DatasetManifest:
    root: Path
    records: list[ManifestRecord]
    by_label: dict[str, list[int]] = field(init=False)
    by_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.by_label, self.by_id = {}, {}
        for idx, record in enumerate(self.records):
            self.by_id[record.image_id] = idx
            for label in record.labels:
                self.by_label.setdefault(label, []).append(idx)

    def feature_path(self, index: int) -> Path:
        return self.root / self.records[index].features

    def record_for(self, image_id: str) -> ManifestRecord:
        if image_id not in self.by_id:
            raise DataError(f"no-such-image: {image_id!r} is not in the manifest")
        return self.records[self.by_id[image_id]]


def load_manifest(path, vocabulary: LabelVocabulary) -> DatasetManifest:
    """Read a manifest; every label must be in `vocabulary` and every feature file exist."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"manifest {path} does not exist")
    records = []
    ids = set()
    known = set(vocabulary.all_labels())
    for lineno, line in enumerate(utf8_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as bad:
            raise DataError(f"manifest {path}: line {lineno} is not valid JSON") from bad
        if not isinstance(obj, dict) or not {"id", "features", "labels"} <= obj.keys():
            raise DataError(f"manifest {path}: line {lineno} lacks id/features/labels")
        if not (isinstance(obj["id"], str) and isinstance(obj["features"], str)
                and isinstance(obj["labels"], list)
                and all(isinstance(label, str) for label in obj["labels"])):
            raise DataError(f"manifest {path}: line {lineno} needs string id/features "
                            "and a list of string labels")
        labels = tuple(obj["labels"])
        if not labels:
            raise DataError(f"manifest {path}: image {obj['id']!r} has no labels")
        if obj["id"] in ids:
            raise DataError(f"manifest {path}: duplicate image id {obj['id']!r}")
        ids.add(obj["id"])
        unknown = [l for l in labels if l not in known]
        if unknown:
            raise DataError(
                f"manifest {path}: image {obj['id']!r} has labels outside the vocabulary: {unknown}"
            )
        records.append(ManifestRecord(obj["id"], obj["features"], labels))
    if not records:
        raise DataError(f"manifest {path} lists no images")
    manifest = DatasetManifest(root=path.parent, records=records)
    for idx in range(len(records)):
        feature_file = manifest.feature_path(idx)
        if not feature_file.is_file():
            raise DataError(f"manifest {path}: feature file {feature_file} is missing")
    return manifest


def write_manifest(path, records, provenance: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# {provenance}\n")
        for record in records:
            handle.write(json.dumps(
                {"id": record.image_id, "features": record.features, "labels": list(record.labels)},
                sort_keys=True) + "\n")


def records_for_split(manifest: DatasetManifest, vocabulary: LabelVocabulary,
                      split: str) -> list[int]:
    """Indices of images whose labels all belong to the split."""
    allowed = set(vocabulary.labels_for(split))
    return [i for i, r in enumerate(manifest.records) if set(r.labels) <= allowed]


@dataclass
class Episode:
    """One few-shot task: labels, support and query ids, multi-hot targets
    restricted to the episode's label set."""

    labels: tuple[str, ...]
    k_shot: int
    support_ids: tuple[str, ...]
    support_targets: np.ndarray   # (k_shot * n_labels, n_labels)
    query_ids: tuple[str, ...]
    query_targets: np.ndarray     # (4 * n_labels, n_labels)
    query_per_label: int = QUERY_PER_LABEL


class EpisodePool:
    """The images an episode may draw from, indexed for sampling: each
    label's candidates as a sorted array of positions into `records` (the
    pool's manifest indices, sorted) and `image_ids` (their ids, in the same
    order), and each pool image's multi-hot row over `label_columns`.

    Build it once per split and pass it to every draw.
    """

    def __init__(self, manifest: DatasetManifest, record_pool):
        pool = set(record_pool)
        self.records = np.array(sorted(pool), dtype=np.intp)
        self.image_ids = [manifest.records[i].image_id for i in self.records.tolist()]
        self.label_columns = {label: i for i, label in enumerate(manifest.by_label)}
        self.targets = np.zeros((self.records.size, len(self.label_columns)))
        self.candidates = {}
        for label, column in self.label_columns.items():
            members = np.array(sorted(set(manifest.by_label[label]) & pool), dtype=np.intp)
            self.candidates[label] = np.searchsorted(self.records, members)
            self.targets[self.candidates[label], column] = 1.0


_NO_CANDIDATES = np.zeros(0, dtype=np.intp)


def _draw_for_labels(pool: EpisodePool, labels, per_label, taken, rng) -> np.ndarray:
    """Draw `per_label` fresh images carrying each label, label order seeded;
    returns their positions in the pool and marks them in `taken`.

    An image picked for one label also counts toward any other label it
    carries, but every label still draws `per_label` fresh images.
    """
    chosen = []
    order = [labels[i] for i in rng.permutation(len(labels))]
    for label in order:
        candidates = pool.candidates.get(label, _NO_CANDIDATES)
        candidates = candidates[~taken[candidates]]
        if len(candidates) < per_label:
            raise InsufficientImagesError(label, per_label, len(candidates))
        picks = candidates[sorted(rng.choice(len(candidates), size=per_label, replace=False))]
        taken[picks] = True
        chosen.append(picks)
    return np.concatenate(chosen)


def sample_episode(pool: EpisodePool, labels, k_shot: int, rng) -> Episode:
    """Sample a K-shot episode over the given labels from the pool's images.

    Support gets exactly k_shot * len(labels) distinct images; queries get
    QUERY_PER_LABEL per label, disjoint from support.  Raises
    InsufficientImagesError when a label cannot be covered.
    """
    labels = tuple(labels)
    if not labels:
        raise DataError("episode needs at least one label")
    if len(set(labels)) != len(labels):
        raise DataError(f"episode labels must be distinct, got {labels}")
    if k_shot < 1:
        raise DataError(f"k_shot must be >= 1, got {k_shot}")
    taken = np.zeros(pool.records.size, dtype=bool)
    support = _draw_for_labels(pool, labels, k_shot, taken, rng)
    query = _draw_for_labels(pool, labels, QUERY_PER_LABEL, taken, rng)
    # every label was drawn from, so each has a column
    columns = [pool.label_columns[label] for label in labels]
    return Episode(
        labels=labels,
        k_shot=k_shot,
        support_ids=tuple(pool.image_ids[i] for i in support.tolist()),
        support_targets=pool.targets[support[:, None], columns],
        query_ids=tuple(pool.image_ids[i] for i in query.tolist()),
        query_targets=pool.targets[query[:, None], columns],
    )


def sample_episode_with_retries(pool: EpisodePool, labels, k_shot, make_rng) -> Episode:
    """`sample_episode` from the pool, resampled with fresh seeds up to
    SAMPLE_RETRIES times before giving up.

    make_rng(attempt) must return a fresh deterministic generator per attempt.
    """
    last = None
    for attempt in range(SAMPLE_RETRIES):
        try:
            return sample_episode(pool, labels, k_shot, make_rng(attempt))
        except InsufficientImagesError as err:
            last = err
    raise last


@dataclass
class SyntheticDataset:
    """Paths and ground truth for a generated planted-signal dataset."""

    manifest_path: Path
    splits_path: Path
    embeddings_path: Path
    cells_path: Path
    vocabulary: LabelVocabulary
    signatures: dict[str, np.ndarray]          # label -> unit feature-space direction
    cell_labels: dict[str, list[list[str | None]]]  # image id -> per-cell planted label


def make_synthetic(out_dir, *, n_base=8, n_validation=0, n_novel=4, images_per_label=40,
                   grid=(6, 6), channels=32, embed_dim=16, signal_fraction=0.5,
                   signal_noise=0.3, background_scale=1.0, extra_label_prob=0.5,
                   seed=0) -> SyntheticDataset:
    """Generate feature files, manifest, split file, and embedding file.

    Each label gets a random unit word embedding; its feature-space
    signature is a fixed linear map of that embedding, normalized.  The map
    has orthonormal columns, so signature geometry mirrors embedding
    geometry exactly.  Every image plants its labels' signatures (plus
    white noise of scale `signal_noise`) in disjoint random cell sets
    covering `signal_fraction` of the grid; remaining cells are pure white
    noise of scale `background_scale`.  With signal_fraction 1.0 and zero
    noise, every cell equals one of the image's signatures exactly.  Sizes
    out of range raise ConfigError before anything is written.
    """
    h, w = grid
    for name, value in (("grid sides", min(h, w)), ("embed_dim", embed_dim),
                        ("images_per_label", images_per_label)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    if channels < embed_dim:
        raise ConfigError(f"channels ({channels}) must be >= embed_dim ({embed_dim}): "
                          "the signature map needs orthonormal columns")
    if min(n_base, n_validation, n_novel) < 0 or n_base + n_validation + n_novel < 1:
        raise ConfigError(f"label counts must be >= 0 with at least one label, got n_base "
                          f"{n_base}, n_validation {n_validation}, n_novel {n_novel}")
    if not 0.0 < signal_fraction <= 1.0:
        raise ConfigError(f"signal_fraction must lie in (0, 1], got {signal_fraction}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    feature_dir = out_dir / "features"
    feature_dir.mkdir(exist_ok=True)
    rng = np.random.default_rng(seed)

    names = [f"lab{i:02d}" for i in range(n_base + n_validation + n_novel)]
    vocabulary = LabelVocabulary(
        base=tuple(names[:n_base]),
        validation=tuple(names[n_base:n_base + n_validation]),
        novel=tuple(names[n_base + n_validation:]),
    )

    # embeddings and feature signatures share one fixed linear relation;
    # orthonormal columns keep signature cosines equal to embedding cosines
    relation = np.linalg.qr(rng.standard_normal((channels, embed_dim)))[0]
    embeddings = {}
    signatures = {}
    for name in names:
        vec = rng.standard_normal(embed_dim)
        vec /= np.linalg.norm(vec)
        embeddings[name] = vec
        sig = relation @ vec
        signatures[name] = sig / np.linalg.norm(sig)

    split_of = {name: vocabulary.split_of(name) for name in names}
    same_split = {name: [n for n in names if split_of[n] == split_of[name] and n != name]
                  for name in names}

    records = []
    cell_labels: dict[str, list[list[str | None]]] = {}
    n_signal = max(1, round(signal_fraction * h * w))
    counter = 0
    for name in names:
        for _ in range(images_per_label):
            image_labels = [name]
            others = same_split[name]
            if others and rng.random() < extra_label_prob:
                image_labels.append(others[rng.integers(len(others))])
            cells = rng.permutation(h * w)[:n_signal]
            assignment: list[str | None] = [None] * (h * w)
            for pos, cell in enumerate(cells):
                assignment[cell] = image_labels[pos % len(image_labels)]
            # one noise row per cell, drawn in cell order
            noise = rng.standard_normal((h * w, channels))
            planted = [cell for cell in range(h * w) if assignment[cell] is not None]
            values = background_scale * noise
            values[planted] = np.array([signatures[assignment[cell]] for cell in planted]) \
                + signal_noise * noise[planted]
            fmap = values.T.reshape(channels, h, w)
            image_id = f"img{counter:05d}"
            counter += 1
            rel = f"features/{image_id}.fmap"
            write_feature_file(feature_dir / f"{image_id}.fmap", fmap)
            records.append(ManifestRecord(image_id, rel, tuple(sorted(set(image_labels)))))
            cell_labels[image_id] = [
                [assignment[r * w + c] for c in range(w)] for r in range(h)
            ]

    provenance = f"synthetic planted-signal dataset, seed {seed}"
    manifest_path = out_dir / "manifest.jsonl"
    write_manifest(manifest_path, records, provenance=provenance)
    splits_path = out_dir / "labels.tsv"
    write_vocabulary(splits_path, vocabulary, provenance=provenance)
    embeddings_path = out_dir / "embeddings.txt"
    write_embedding_file(embeddings_path, EmbeddingTable(embed_dim, embeddings))
    cells_path = out_dir / "cells.json"
    with open(cells_path, "w", encoding="utf-8") as handle:
        json.dump(cell_labels, handle, sort_keys=True)

    return SyntheticDataset(
        manifest_path=manifest_path,
        splits_path=splits_path,
        embeddings_path=embeddings_path,
        cells_path=cells_path,
        vocabulary=vocabulary,
        signatures=signatures,
        cell_labels=cell_labels,
    )
