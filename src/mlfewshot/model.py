"""Model state: parameter bundle, checkpoint format, and the episode forward.

A checkpoint is magic "MMCI1", a u32 entry count, then named tensors sorted
by name: u32 name length, UTF-8 name, u32 rank, rank u32 dims, float64
little-endian data.  Numeric run-config values ride along as rank-0 tensors
under "config.*"; optimizer buffers under "optim.*".
"""

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError
from .features import global_pool, load_feature_file
from .joint_space import JointSpaceParams, init_joint_space
from .prototypes import (
    AttentionParams,
    DynConvParams,
    LabelSide,
    SupportPools,
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


def init_model(*, channels, embed_dim, joint_dim, heads, dynconv_inner, dynconv_top,
               scale, dropout, rng) -> ModelState:
    """Seeded initialization of every component."""
    return ModelState(
        joint=init_joint_space(channels, embed_dim, joint_dim, scale, rng),
        attention=init_attention(joint_dim, heads, rng, dropout=dropout),
        dynconv=init_dynconv(joint_dim, dynconv_inner, dynconv_top, rng),
    )


# ------------------------------------------------------------- checkpoints


@contextmanager
def atomic_open(path, mode):
    """Open a temp file beside `path` for writing ("wb", or "w" for UTF-8
    text) and move it onto `path` with `os.replace` once the block
    succeeds; if the block fails the temp file is removed and any earlier
    file at `path` is left as it was."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


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
    with atomic_open(path, "wb") as handle:
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
        missing = "is not a file" if path.exists() else "does not exist"
        raise DataError(f"no-checkpoint: {path} {missing}")
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
        raw_name = take(name_len, "a tensor name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as bad:
            raise DataError(f"bad-name: {path} has a tensor name {raw_name!r} "
                            "that is not UTF-8") from bad
        if name in tensors:
            raise DataError(f"duplicate-name: {path} repeats tensor {name!r}")
        (rank,) = struct.unpack("<I", take(4, "a tensor rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "tensor dims")) if rank else ()
        size = math.prod(dims)  # Python ints: a product past 2**63 cannot wrap
        data = np.frombuffer(take(8 * size, f"tensor {name!r} data"), dtype="<f8")
        tensors[name] = data.reshape(dims).astype(np.float64)
    if offset != len(blob):
        raise DataError(f"trailing-bytes: {path} carries {len(blob) - offset} extra bytes")
    return tensors


def load_checkpoint(path) -> tuple[ModelState, dict[str, np.ndarray]]:
    """Rebuild a ModelState; returns it plus the optim.*/config.* extras.

    The model is built at the checkpoint's sizes and each parameter read
    under its `named_parameters()` name; a missing, wrong-shaped or
    non-finite tensor is a DataError naming it, as is a `trainer.epoch`
    that is not a whole number >= 0 or a `model.top_count` that is not one
    >= 1.  Parameters come back frozen, so evaluation builds no backward
    graph; `training.train` makes them trainable again."""
    tensors = read_checkpoint_tensors(path)

    def read(name, shape):
        if name not in tensors:
            raise DataError(f"checkpoint {path} lacks tensor {name!r}")
        value = tensors[name]
        if value.shape != shape:
            raise DataError(f"checkpoint {path}: tensor {name!r} has shape {value.shape}, "
                            f"the model's is {shape}")
        if not np.all(np.isfinite(value)):
            raise DataError(f"checkpoint {path}: tensor {name!r} holds non-finite values")
        return value

    scale, dropout, top_count, epoch = (
        read(name, ()) for name in ("model.scale", "model.dropout", "model.top_count",
                                    "trainer.epoch"))
    # both are counts; init_dynconv rejects a top_count of 0
    for name, value in (("trainer.epoch", epoch), ("model.top_count", top_count)):
        if value < 0 or value != int(value):
            raise DataError(f"checkpoint {path}: tensor {name!r} holds {float(value)}, "
                            "not a whole number >= 0")
    try:
        visual, text = tensors["joint.visual"].shape, tensors["joint.text"].shape
        model = init_model(
            channels=visual[1], embed_dim=text[1], joint_dim=visual[0],
            heads=sum(name.startswith("attention.query.") for name in tensors),
            dynconv_inner=tensors["dynconv.norm1.gain"].shape[0], dynconv_top=int(top_count),
            scale=float(scale), dropout=float(dropout), rng=np.random.default_rng(0))
    except KeyError as missing:
        raise DataError(f"checkpoint {path} lacks tensor {missing}") from missing
    except (ConfigError, IndexError) as bad:      # IndexError: a size tensor of too low a rank
        raise DataError(f"checkpoint {path} holds sizes no model has: {bad}") from bad
    for name, p in model.named_parameters().items():
        p.data = read(name, p.shape)
        p.requires_grad = False
    model.epoch = int(epoch)
    extras = {k: v for k, v in tensors.items()
              if k.startswith("optim.") or k.startswith("config.")}
    return model, extras


# ----------------------------------------------------- episode forward plumbing


class FeatureStore:
    """Loads FMAP1 files referenced by a manifest, with a small cache.

    A dataset has one map shape: every map must have the (c, h, w) shape of
    the manifest's first, or `get` raises a DataError naming its file.
    Maps are handed out read-only, so each image's globally pooled vector,
    computed on its first request and kept, always matches its map."""

    def __init__(self, manifest):
        self.manifest = manifest
        self._cache: dict[str, np.ndarray] = {}
        self._pooled: dict[str, np.ndarray] = {}

    def get(self, image_id: str) -> np.ndarray:
        if image_id not in self._cache:
            index = self.manifest.by_id.get(image_id)
            if index is None:
                raise DataError(f"no-such-image: {image_id!r} is not in the manifest")
            path = self.manifest.feature_path(index)
            fmap = load_feature_file(path)
            if index and fmap.shape != self.shape:
                raise DataError(f"feature map {path} has shape {fmap.shape}, but the first map, "
                                f"{self.manifest.feature_path(0)}, has {self.shape}: a dataset "
                                "has one map shape")
            fmap.flags.writeable = False
            self._cache[image_id] = fmap
        return self._cache[image_id]

    @property
    def shape(self) -> tuple:
        """The dataset's one (c, h, w) map shape, read from its first map."""
        return self.get(self.manifest.records[0].image_id).shape

    def pooled(self, image_id: str) -> np.ndarray:
        """The image's (channels,) globally pooled feature, read-only."""
        if image_id not in self._pooled:
            vector = global_pool(self.get(image_id))
            vector.flags.writeable = False
            self._pooled[image_id] = vector
        return self._pooled[image_id]


def build_pools(joint: JointSpaceParams, labels, fmaps: np.ndarray, keep) -> SupportPools:
    """Project the support cells into the joint space and gather each
    label's kept cells as its pool.

    `fmaps` is the (n, c, h, w) stack of support maps and `keep` the
    (labels, n*h*w) boolean keep-matrix: row l marks the cells label l
    pools, in (support image, grid row, grid col) order.  Every support
    cell is projected once, with one product by `joint.visual`, and one
    `gather_rows` takes every label's kept cells, label by label, in that
    order, the order top-k ties break in, so identical keep-matrices give
    bitwise-identical pools.  A label that keeps no cell is rejected by the
    first op that reads the pools, `attention_prototype`'s `head_readout`.
    """
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (len(labels), fmaps[:, 0].size):
        raise ad.ShapeError(f"build_pools: keep-matrix {keep.shape} is not (labels, cells)")
    cells = fmaps.transpose(0, 2, 3, 1).reshape(-1, fmaps.shape[1])     # (n*h*w, c)
    features = ad.gather_rows(ad.linear(Tensor(cells), joint.visual), np.nonzero(keep)[1])
    return SupportPools(labels=labels, features=features, sizes=keep.sum(axis=1))


def pooled_globals(store, image_ids) -> Tensor:
    """The (n_images, channels) matrix of the images' globally pooled
    features, in numpy: feature maps are constants.  A FeatureStore gives
    its kept vectors; a plain mapping's maps are pooled here."""
    pool = getattr(store, "pooled", None) or (lambda image_id: global_pool(store.get(image_id)))
    return Tensor(np.stack([pool(i) for i in image_ids]))


def score_against(joint: JointSpaceParams, pooled: Tensor, vectors: Tensor) -> Tensor:
    """Scaled cosine of each pooled global feature against each vector: the
    one joint-space score.  `pooled` is an (n_images, channels) matrix and
    `vectors` an (n_vectors, joint_dim) matrix; one projection, one matrix
    cosine and one scale give the flat (n_images * n_vectors) logits,
    image-major."""
    visual_joint = ad.linear(pooled, joint.visual)                    # (n_images, joint_dim)
    scores = ad.scale(ad.cosine(visual_joint, vectors), joint.scale)
    return ad.reshape(scores, (scores.size,))


def score_loss(joint: JointSpaceParams, pooled: Tensor, vectors: Tensor, targets) -> Tensor:
    """Summed BCE of every (pooled feature, vector) score against the
    (n_images, n_vectors) multi-hot targets; the class-mapping loss."""
    y = np.asarray(targets, dtype=np.float64)
    if pooled.shape[0] == 0:
        raise ConfigError("score_loss: no pooled features to score")
    if vectors.shape[0] == 0:
        raise ConfigError("score_loss: no vectors to score against")
    if y.shape != (pooled.shape[0], vectors.shape[0]):
        raise ConfigError(
            f"score_loss: targets shape {y.shape} does not match "
            f"({pooled.shape[0]}, {vectors.shape[0]})"
        )
    flat = score_against(joint, pooled, vectors)
    return ad.tensor_sum(ad.bce_with_logits(flat, y.reshape(-1)))


def episode_prototypes(model: ModelState, episode, fmaps: np.ndarray, side: LabelSide,
                       *, masks, dropout_rng) -> Tensor:
    """The episode's (labels, joint_dim) prototypes, for training and the
    `base` and `lcm` evaluation modes, which score them with `score_against`.

    Pools each label's cells of the (n, c, h, w) support stack `fmaps` and
    builds the prototypes from `side`, the label side of the episode's
    labels in order.  A label pools its member images' cells that `masks`
    keeps, all of them when it is None: an (n, h, w) keep-array keeps the
    same cells for every label, a (labels, n, h, w) one each label's own.
    Training passes the generator that draws the dropout mask; evaluation
    passes None.
    """
    members = (episode.support_targets.T > 0)[:, :, None, None]         # (labels, n, 1, 1)
    kept = np.ones(fmaps[:, 0].shape, dtype=bool) if masks is None else masks
    keep = (members & kept).reshape(len(members), -1)
    pools = build_pools(model.joint, episode.labels, fmaps, keep)
    return build_prototype(model.attention, model.dynconv, pools, side, dropout_rng)
