"""Model state: parameter bundle, checkpoint format, and the episode forward.

A checkpoint is magic "MMCI1", a u32 entry count, then named tensors sorted
by name: u32 name length, UTF-8 name, u32 rank, rank u32 dims, float64
little-endian data.  Numeric run-config values ride along as rank-0 tensors
under "config.*"; optimizer buffers under "optim.*".
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError
from .features import global_pool, load_feature_file
from .joint_space import JointSpaceParams, init_joint_space, project_label, project_visual
from .prototypes import (
    AttentionParams,
    DynConvParams,
    LabelSupportPool,
    build_prototype,
    init_attention,
    init_dynconv,
)

CHECKPOINT_MAGIC = b"MMCI1"


@dataclass
class ModelState:
    """Every trainable tensor plus the epoch counter."""

    joint: JointSpaceParams
    attention: AttentionParams
    dynconv: DynConvParams
    epoch: int = 0

    @property
    def trained(self) -> bool:
        return self.epoch > 0

    def named_parameters(self) -> dict[str, Tensor]:
        params = {}
        params.update(self.joint.parameters())
        params.update(self.attention.parameters())
        params.update(self.dynconv.parameters())
        return params

    def zero_grad(self):
        for p in self.named_parameters().values():
            p.grad = None


def init_model(*, channels, embed_dim, joint_dim, heads, dynconv_inner, dynconv_top,
               scale, dropout, rng) -> ModelState:
    """Seeded initialization of every component."""
    return ModelState(
        joint=init_joint_space(channels, embed_dim, joint_dim, scale, rng),
        attention=init_attention(joint_dim, heads, rng, dropout=dropout),
        dynconv=init_dynconv(joint_dim, dynconv_inner, dynconv_top, rng),
    )


# ------------------------------------------------------------- checkpoints


def save_checkpoint(path, model: ModelState, optimizer=None, config_scalars=None):
    """Write the model (and optionally optimizer state and numeric config)."""
    entries: dict[str, np.ndarray] = {
        name: p.data for name, p in model.named_parameters().items()
    }
    entries["trainer.epoch"] = np.float64(model.epoch)
    entries["model.scale"] = np.float64(model.joint.scale)
    entries["model.dropout"] = np.float64(model.attention.dropout)
    entries["model.top_count"] = np.float64(model.dynconv.top_count)
    if optimizer is not None:
        entries.update(optimizer.state_tensors())
    if config_scalars:
        for key, value in config_scalars.items():
            entries[f"config.{key}"] = np.float64(value)
    with open(path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(struct.pack("<I", len(entries)))
        for name in sorted(entries):
            arr = np.asarray(entries[name], dtype=np.float64)
            encoded = name.encode("utf-8")
            handle.write(struct.pack("<I", len(encoded)))
            handle.write(encoded)
            handle.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                handle.write(struct.pack("<I", dim))
            handle.write(arr.astype("<f8").tobytes())


def read_checkpoint_tensors(path) -> dict[str, np.ndarray]:
    """Read the raw named-tensor manifest, validating the framing."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no-checkpoint: {path} does not exist")
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < len(CHECKPOINT_MAGIC) or blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise DataError(f"bad-magic: {path} is not a checkpoint")
    offset = len(CHECKPOINT_MAGIC)

    def take(count, what):
        nonlocal offset
        if offset + count > len(blob):
            raise DataError(f"truncated: {path} ends inside {what}")
        piece = blob[offset:offset + count]
        offset += count
        return piece

    (count,) = struct.unpack("<I", take(4, "the entry count"))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "a name length"))
        name = take(name_len, "a tensor name").decode("utf-8")
        if name in tensors:
            raise DataError(f"duplicate-name: {path} repeats tensor {name!r}")
        (rank,) = struct.unpack("<I", take(4, "a tensor rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "tensor dims")) if rank else ()
        size = int(np.prod(dims)) if dims else 1
        data = np.frombuffer(take(8 * size, f"tensor {name!r} data"), dtype="<f8")
        tensors[name] = data.reshape(dims).astype(np.float64)
    if offset != len(blob):
        raise DataError(f"trailing-bytes: {path} carries {len(blob) - offset} extra bytes")
    return tensors


def load_checkpoint(path) -> tuple[ModelState, dict[str, np.ndarray]]:
    """Rebuild a ModelState; returns it plus the optim.*/config.* extras."""
    tensors = read_checkpoint_tensors(path)
    try:
        heads = len([k for k in tensors if k.startswith("attention.query.")])
        joint = JointSpaceParams(
            visual=Tensor(tensors["joint.visual"], requires_grad=True),
            text=Tensor(tensors["joint.text"], requires_grad=True),
            scale=float(tensors["model.scale"]),
        )
        attention = AttentionParams(
            queries=[Tensor(tensors[f"attention.query.{j}"], requires_grad=True)
                     for j in range(heads)],
            mlp_w1=Tensor(tensors["attention.mlp.w1"], requires_grad=True),
            mlp_b1=Tensor(tensors["attention.mlp.b1"], requires_grad=True),
            mlp_w2=Tensor(tensors["attention.mlp.w2"], requires_grad=True),
            mlp_b2=Tensor(tensors["attention.mlp.b2"], requires_grad=True),
            dropout=float(tensors["model.dropout"]),
        )
        dynconv = DynConvParams(
            gen1_weight=Tensor(tensors["dynconv.gen1.weight"], requires_grad=True),
            gen1_bias=Tensor(tensors["dynconv.gen1.bias"], requires_grad=True),
            gen2_weight=Tensor(tensors["dynconv.gen2.weight"], requires_grad=True),
            gen2_bias=Tensor(tensors["dynconv.gen2.bias"], requires_grad=True),
            norm1_gain=Tensor(tensors["dynconv.norm1.gain"], requires_grad=True),
            norm1_bias=Tensor(tensors["dynconv.norm1.bias"], requires_grad=True),
            norm2_gain=Tensor(tensors["dynconv.norm2.gain"], requires_grad=True),
            norm2_bias=Tensor(tensors["dynconv.norm2.bias"], requires_grad=True),
            top_count=int(tensors["model.top_count"]),
        )
        epoch = int(tensors["trainer.epoch"])
    except KeyError as missing:
        raise DataError(f"checkpoint {path} lacks tensor {missing}") from missing
    model = ModelState(joint=joint, attention=attention, dynconv=dynconv, epoch=epoch)
    extras = {k: v for k, v in tensors.items()
              if k.startswith("optim.") or k.startswith("config.")}
    return model, extras


# ----------------------------------------------------- episode forward plumbing


class FeatureStore:
    """Loads FMAP1 files referenced by a manifest, with a small cache."""

    def __init__(self, manifest):
        self.manifest = manifest
        self._cache: dict[str, np.ndarray] = {}

    def get(self, image_id: str) -> np.ndarray:
        if image_id not in self._cache:
            index = self.manifest.by_id.get(image_id)
            if index is None:
                raise DataError(f"no-such-image: {image_id!r} is not in the manifest")
            self._cache[image_id] = load_feature_file(self.manifest.feature_path(index))
        return self._cache[image_id]


class ArrayStore:
    """In-memory stand-in for FeatureStore, for tests and gradient checks."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.arrays = arrays

    def get(self, image_id: str) -> np.ndarray:
        if image_id not in self.arrays:
            raise DataError(f"no-such-image: {image_id!r}")
        return self.arrays[image_id]


def local_feature_rows(joint: JointSpaceParams, fmap: Tensor) -> Tensor:
    """Project every grid cell into the joint space: (c, h, w) -> (h*w, joint_dim),
    rows in row-major cell order."""
    channels = fmap.shape[0]
    cells = fmap.shape[1] * fmap.shape[2]
    flat = ad.transpose(ad.reshape(fmap, (channels, cells)))        # (cells, c)
    return ad.matmul(flat, ad.transpose(joint.visual))              # (cells, joint_dim)


def build_pools(labels, support_targets, projections, grid, masks=None) -> dict[str, LabelSupportPool]:
    """Assemble per-label support pools from per-image projected local features.

    masks, when given, is one boolean (h, w) keep-grid per support image
    (None entries keep everything).  Feature order is support order, then
    row-major cells, so identical masks give bitwise-identical pools.
    """
    h, w = grid
    pools = {}
    for li, label in enumerate(labels):
        members = [i for i in range(len(projections)) if support_targets[i, li] > 0]
        pieces = []
        origins = []
        for i in members:
            mask = None if masks is None else masks[i]
            if mask is None:
                pieces.append(projections[i])
                origins.extend((i, r, c) for r in range(h) for c in range(w))
            else:
                kept = np.flatnonzero(np.asarray(mask).reshape(-1))
                pieces.append(ad.gather_rows(projections[i], kept))
                origins.extend((i, int(k) // w, int(k) % w) for k in kept)
        if not pieces:
            raise DataError(f"label {label!r} has no support images in the episode")
        features = pieces[0] if len(pieces) == 1 else ad.concat(pieces, axis=0)
        pools[label] = LabelSupportPool(label=label, features=features, origins=tuple(origins))
    return pools


def episode_prototypes(model: ModelState, pools, label_joints, *, dropout_rngs=None,
                       training=False) -> dict:
    """Build one prototype per label; dropout_rngs maps label -> generator."""
    protos = {}
    for label, label_joint in label_joints.items():
        rng = dropout_rngs.get(label) if dropout_rngs else None
        protos[label] = build_prototype(model.attention, model.dynconv, pools[label],
                                        label_joint, rng=rng, training=training)
    return protos


def score_against(joint: JointSpaceParams, pooled_globals, vectors) -> Tensor:
    """Scaled cosine of each pooled global feature against each vector: the
    one joint-space score.  Returns the flat (n_images * n_vectors) logits,
    image-major."""
    scores = []
    for pooled in pooled_globals:
        visual_joint = project_visual(joint, pooled)
        for vector in vectors:
            s = ad.scale(ad.cosine(visual_joint, vector), joint.scale)
            scores.append(ad.reshape(s, (1,)))
    return ad.concat(scores, axis=0)


def score_loss(joint: JointSpaceParams, pooled_globals, vectors, targets) -> Tensor:
    """Summed BCE of every (pooled feature, vector) score against the
    (n_images, n_vectors) multi-hot targets; the class-mapping loss."""
    pooled_globals = list(pooled_globals)
    vectors = list(vectors)
    y = np.asarray(targets, dtype=np.float64)
    if not pooled_globals:
        raise ConfigError("score_loss: no pooled features to score")
    if not vectors:
        raise ConfigError("score_loss: no vectors to score against")
    if y.shape != (len(pooled_globals), len(vectors)):
        raise ConfigError(
            f"score_loss: targets shape {y.shape} does not match "
            f"({len(pooled_globals)}, {len(vectors)})"
        )
    flat = score_against(joint, pooled_globals, vectors)
    return ad.tensor_sum(ad.bce_with_logits(flat, y.reshape(-1)))


def episode_forward(model: ModelState, episode, store, embeddings_by_label, *, masks=None,
                    dropout_rngs=None, training=False):
    """The episode forward shared by training and evaluation.

    Projects the episode's label embeddings, pools each label's support
    cells (only the kept ones where `masks` gives a support image a keep
    grid), builds the prototypes and scores every query image against them.
    Returns (label joints in episode label order, support feature maps, flat
    query logits).
    """
    labels = list(episode.labels)
    label_joints = {label: project_label(model.joint, Tensor(embeddings_by_label[label]))
                    for label in labels}
    support_maps = [Tensor(store.get(i)) for i in episode.support_ids]
    query_globals = [global_pool(Tensor(store.get(i))) for i in episode.query_ids]
    grid = (support_maps[0].shape[1], support_maps[0].shape[2])
    projections = [local_feature_rows(model.joint, m) for m in support_maps]
    pools = build_pools(labels, episode.support_targets, projections, grid, masks)
    protos = episode_prototypes(model, pools, label_joints,
                                dropout_rngs=dropout_rngs, training=training)
    logits = score_against(model.joint, query_globals, [protos[label].vector for label in labels])
    return [label_joints[label] for label in labels], support_maps, logits
