"""Plain-numpy reference for base-mode evaluation and brute-force metric oracles.

Everything here is written from the method's definition, not from the
program's code: the checkpoint and feature files are parsed from their
documented byte layouts, and the forward pass follows the paper's pipeline
(projection into the joint space, per-head cross-attention with a GELU MLP,
top-k dynamic convolution, scaled cosine).  The benchmark compares the
program's report against these numbers.
"""

import math
import struct
from pathlib import Path

import numpy as np
from scipy.special import erf

LAYER_NORM_EPS = 1e-5


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Named float64 tensors of an MMCI1 checkpoint."""
    blob = Path(path).read_bytes()
    if blob[:5] != b"MMCI1":
        raise ValueError(f"{path} is not an MMCI1 checkpoint")
    (count,) = struct.unpack_from("<I", blob, 5)
    offset = 9
    tensors = {}
    for _ in range(count):
        (length,) = struct.unpack_from("<I", blob, offset)
        name = blob[offset + 4:offset + 4 + length].decode("utf-8")
        offset += 4 + length
        (rank,) = struct.unpack_from("<I", blob, offset)
        dims = struct.unpack_from(f"<{rank}I", blob, offset + 4)
        offset += 4 + 4 * rank
        size = math.prod(dims)
        tensors[name] = np.frombuffer(blob, "<f8", size, offset).reshape(dims)
        offset += 8 * size
    if offset != len(blob):
        raise ValueError(f"{path} has {len(blob) - offset} trailing bytes")
    return tensors


def read_feature_map(path) -> np.ndarray:
    """A (channels, h, w) float64 array from an FMAP1 file."""
    blob = Path(path).read_bytes()
    if blob[:5] != b"FMAP1":
        raise ValueError(f"{path} is not an FMAP1 file")
    shape = struct.unpack_from("<III", blob, 5)
    return np.frombuffer(blob, "<f4", math.prod(shape), 17).astype(np.float64).reshape(shape)


def read_embeddings(path) -> dict[str, np.ndarray]:
    table = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        token, *values = line.split(" ")
        table[token] = np.array([float(v) for v in values])
    return table


def label_vector(table, label) -> np.ndarray:
    """Mean of the label's lower-cased tokens (words split on spaces and '_')."""
    return np.mean([table[t] for t in label.lower().replace("_", " ").split()], axis=0)


def _layer_norm(x, gain, bias):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(var + LAYER_NORM_EPS) * gain + bias


def _gelu(x):
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def _cosine(a, b):
    return float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))


class BaseModel:
    """Base-mode forward pass over the parameters of a checkpoint file."""

    def __init__(self, tensors: dict[str, np.ndarray]):
        self.t = tensors
        self.heads = sum(1 for name in tensors if name.startswith("attention.query."))
        self.scale = float(tensors["model.scale"])
        self.top = int(tensors["model.top_count"])

    def prototype(self, pool: np.ndarray, label_joint: np.ndarray) -> np.ndarray:
        t = self.t
        # cross-attention: head j reads the j-th channel slice of every pooled cell
        outputs = []
        for j, chunk in enumerate(np.split(pool, self.heads, axis=1)):
            query = t[f"attention.query.{j}"] @ label_joint
            logits = chunk @ query / math.sqrt(chunk.shape[1])
            weights = np.exp(logits - logits.max())
            outputs.append(weights / weights.sum() @ chunk)
        hidden = _gelu(t["attention.mlp.w1"] @ np.concatenate(outputs) + t["attention.mlp.b1"])
        attention_part = t["attention.mlp.w2"] @ hidden + t["attention.mlp.b2"]
        # dynamic convolution over the cells most similar to the label
        similarity = pool @ label_joint / (np.linalg.norm(pool, axis=1) * np.linalg.norm(label_joint))
        picked = pool[np.lexsort((np.arange(len(pool)), -similarity))[:self.top]]
        inner = t["dynconv.norm1.gain"].shape[0]
        joint = t["dynconv.norm2.gain"].shape[0]
        kernel1 = (t["dynconv.gen1.weight"] @ label_joint + t["dynconv.gen1.bias"]).reshape(inner, joint)
        kernel2 = (t["dynconv.gen2.weight"] @ label_joint + t["dynconv.gen2.bias"]).reshape(joint, inner)
        mid = np.maximum(_layer_norm(picked @ kernel1.T, t["dynconv.norm1.gain"],
                                     t["dynconv.norm1.bias"]), 0.0)
        rows = np.maximum(_layer_norm(mid @ kernel2.T, t["dynconv.norm2.gain"],
                                      t["dynconv.norm2.bias"]), 0.0)
        return attention_part + rows.mean(axis=0)

    def probabilities(self, episode, fmaps, embeddings) -> np.ndarray:
        """(queries, labels) probabilities of one episode."""
        visual, text = self.t["joint.visual"], self.t["joint.text"]
        label_joints = [text @ label_vector(embeddings, label) for label in episode.labels]
        cells = []
        for image_id in episode.support_ids:
            fmap = fmaps(image_id)
            cells.append(fmap.reshape(fmap.shape[0], -1).T @ visual.T)
        scores = np.empty((len(episode.query_ids), len(episode.labels)))
        prototypes = []
        for li, label_joint in enumerate(label_joints):
            members = [cells[i] for i in range(len(cells)) if episode.support_targets[i, li] > 0]
            prototypes.append(self.prototype(np.concatenate(members), label_joint))
        for qi, image_id in enumerate(episode.query_ids):
            projected = visual @ fmaps(image_id).mean(axis=(1, 2))
            for li, proto in enumerate(prototypes):
                scores[qi, li] = self.scale * _cosine(projected, proto)
        return 1.0 / (1.0 + np.exp(-scores))


# ------------------------------------------------------------------ oracles


def average_precision(scores, targets) -> float:
    """Mean precision at each positive, ranked by descending score, ties by position."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, total = 0, 0.0
    for rank, i in enumerate(order, start=1):
        if targets[i]:
            hits += 1
            total += hits / rank
    return total / hits


def f1(predicted, actual) -> float:
    tp = sum(p and a for p, a in zip(predicted, actual))
    fp = sum(p and not a for p, a in zip(predicted, actual))
    fn = sum(a and not p for p, a in zip(predicted, actual))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


def episode_metrics(probs, targets) -> dict[str, float]:
    """Micro/macro AP and F1 of one episode; macro AP skips labels without positives."""
    probs = [[float(v) for v in row] for row in probs]
    actual = [[bool(v > 0.5) for v in row] for row in targets]
    flat_p = [v for row in probs for v in row]
    flat_a = [v for row in actual for v in row]
    columns = range(len(probs[0]))
    column_p = [[row[j] for row in probs] for j in columns]
    column_a = [[row[j] for row in actual] for j in columns]
    return {
        "micro_ap": average_precision(flat_p, flat_a),
        "macro_ap": float(np.mean([average_precision(p, a)
                                   for p, a in zip(column_p, column_a) if any(a)])),
        "micro_f1": f1([v > 0.5 for v in flat_p], flat_a),
        "macro_f1": float(np.mean([f1([v > 0.5 for v in p], a)
                                   for p, a in zip(column_p, column_a)])),
    }


def mean_metrics(per_episode) -> dict[str, float]:
    return {key: float(np.mean([m[key] for m in per_episode])) for key in per_episode[0]}
