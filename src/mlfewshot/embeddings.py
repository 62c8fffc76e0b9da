"""Word-embedding text files, label embedding, and label split vocabularies.

The embedding file grammar is one entry per line: a whitespace-free token
followed by the vector components, separated by single spaces.  Every line
must carry the same arity.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

SPLIT_NAMES = ("base", "validation", "novel")


@dataclass
class EmbeddingTable:
    """Token -> float64 vector map with a fixed dimension."""

    dimension: int
    vectors: dict[str, np.ndarray]


def utf8_lines(path):
    """Yield the lines of a UTF-8 text file as text-mode `open` reads them.
    Bytes that are not UTF-8 raise DataError naming the path and the line
    they are on."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield from handle
    except UnicodeDecodeError:
        blob = Path(path).read_bytes()      # the decoder's offset is chunk-relative
        try:
            blob.decode("utf-8")
        except UnicodeDecodeError as bad:
            line = blob.count(b"\n", 0, bad.start) + 1
            raise DataError(f"{path}: line {line} is not UTF-8") from bad
        raise


def parse_embedding_file(path) -> EmbeddingTable:
    """Parse a GloVe-style text file; malformed lines name their line number."""
    dimension = None
    vectors: dict[str, np.ndarray] = {}
    if not Path(path).is_file():
        raise DataError(f"embedding file {path} does not exist")
    for lineno, line in enumerate(utf8_lines(path), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            raise DataError(f"embedding file {path}: blank line {lineno}")
        fields = line.split(" ")
        if len(fields) < 2:
            raise DataError(f"embedding file {path}: line {lineno} has no vector")
        token = fields[0]
        if not token:
            raise DataError(f"embedding file {path}: line {lineno} has an empty token")
        if token in vectors:
            raise DataError(f"embedding file {path}: duplicate token {token!r} at line {lineno}")
        try:
            values = np.array([float(v) for v in fields[1:]], dtype=np.float64)
        except ValueError as bad:
            raise DataError(f"embedding file {path}: line {lineno} has a non-numeric value") from bad
        if not np.all(np.isfinite(values)):
            raise DataError(f"embedding file {path}: line {lineno} has a non-finite value")
        if dimension is None:
            dimension = values.size
        elif values.size != dimension:
            raise DataError(
                f"embedding file {path}: line {lineno} has {values.size} components, expected {dimension}"
            )
        vectors[token] = values
    if not vectors:
        raise DataError(f"empty-embedding-file: {path}")
    return EmbeddingTable(dimension=dimension, vectors=vectors)


def write_embedding_file(path, table: EmbeddingTable):
    """Serialize with repr-precision floats so reparsing is exact."""
    with open(path, "w", encoding="utf-8") as handle:
        for token, vec in table.vectors.items():
            parts = " ".join(repr(float(v)) for v in vec)
            handle.write(f"{token} {parts}\n")


def label_tokens(label: str) -> list[str]:
    """Lowercase a label and split it into tokens on whitespace and underscores."""
    return [t for t in label.lower().replace("_", " ").split() if t]


def embed_labels(table: EmbeddingTable, labels, *, normalize: bool) -> np.ndarray:
    """The (labels, dimension) matrix of the labels' embeddings, in order: each
    the mean of its label's token vectors, scaled to unit length if `normalize`.

    A multi-word label ("traffic light") averages its tokens; any token
    absent from the table is an error naming all missing tokens.  A zero mean
    is an error too: no cosine can be taken against it.
    """
    rows = []
    for label in labels:
        tokens = label_tokens(label)
        if not tokens:
            raise DataError(f"label {label!r} has no tokens")
        missing = [t for t in tokens if t not in table.vectors]
        if missing:
            raise DataError("missing-token: " + ", ".join(missing))
        vec = np.stack([table.vectors[t] for t in tokens]).mean(axis=0)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise DataError(f"label {label!r} embeds to a zero vector")
        rows.append(vec / norm if normalize else vec)
    return np.stack(rows)


@dataclass
class LabelVocabulary:
    """Disjoint base / validation / novel label lists, in file order."""

    base: tuple[str, ...] = ()
    validation: tuple[str, ...] = ()
    novel: tuple[str, ...] = ()

    def labels_for(self, split: str) -> tuple[str, ...]:
        if split not in SPLIT_NAMES:
            raise DataError(f"unknown split {split!r}; expected one of {SPLIT_NAMES}")
        return getattr(self, split)

    def all_labels(self) -> tuple[str, ...]:
        return self.base + self.validation + self.novel

    def split_of(self, label: str) -> str:
        for split in SPLIT_NAMES:
            if label in getattr(self, split):
                return split
        raise DataError(f"label {label!r} is in no split")


def load_vocabulary(path) -> LabelVocabulary:
    """Read 'split<TAB>label' lines; '#' lines are comments."""
    buckets: dict[str, list[str]] = {name: [] for name in SPLIT_NAMES}
    seen: dict[str, str] = {}
    if not Path(path).is_file():
        raise DataError(f"split file {path} does not exist")
    for lineno, line in enumerate(utf8_lines(path), start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[1]:
            raise DataError(f"split file {path}: malformed line {lineno}")
        split, label = parts
        if split not in SPLIT_NAMES:
            raise DataError(f"split file {path}: unknown split {split!r} at line {lineno}")
        if label in seen:
            raise DataError(
                f"split file {path}: label {label!r} appears in both {seen[label]} and {split}"
            )
        seen[label] = split
        buckets[split].append(label)
    if not any(buckets.values()):
        raise DataError(f"split file {path} lists no labels")
    return LabelVocabulary(
        base=tuple(buckets["base"]),
        validation=tuple(buckets["validation"]),
        novel=tuple(buckets["novel"]),
    )


def write_vocabulary(path, vocabulary: LabelVocabulary, provenance: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# {provenance}\n")
        for split in SPLIT_NAMES:
            for label in vocabulary.labels_for(split):
                handle.write(f"{split}\t{label}\n")
