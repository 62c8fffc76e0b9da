"""Model assembly, checkpoint format, the feature store, and pool building."""

import struct

import numpy as np
import pytest

from mlfewshot import autodiff as ad
from mlfewshot import model as model_module
from mlfewshot import seeding
from mlfewshot.autodiff import Tensor
from mlfewshot.episodes import EpisodePool, records_for_split, sample_episode
from mlfewshot.errors import ConfigError, DataError
from mlfewshot.joint_space import project_labels
from mlfewshot.model import (
    CHECKPOINT_MAGIC,
    FeatureStore,
    build_pools,
    episode_forward,
    init_model,
    load_checkpoint,
    pooled_globals,
    read_checkpoint_tensors,
    save_checkpoint,
    score_against,
    score_loss,
)
from mlfewshot.optim import Adam
from mlfewshot.prototypes import SupportPools, label_side
from mlfewshot.training import episode_losses

from conftest import build_tiny_model
from test_prototypes import assert_close, per_label_prototype


def small_model(seed=3):
    return init_model(channels=6, embed_dim=4, joint_dim=8, heads=2,
                      dynconv_inner=3, dynconv_top=4, scale=10.0, dropout=0.1,
                      rng=seeding.substream(seed, "init"))


# -------------------------------------------------------------- model state


def test_named_parameters_cover_all_components():
    model = small_model()
    names = set(model.named_parameters())
    assert {"joint.visual", "joint.text", "attention.mlp.w1", "attention.query.0",
            "attention.query.1", "dynconv.gen1.weight", "dynconv.norm2.gain"} <= names


def test_trained_flag_follows_epoch():
    model = small_model()
    assert not model.trained
    model.epoch = 1
    assert model.trained


def test_zero_grad_clears_everything():
    model = small_model()
    for p in model.named_parameters().values():
        p.grad = np.ones_like(p.data)
    model.zero_grad()
    assert all(p.grad is None for p in model.named_parameters().values())


# -------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    model = small_model()
    model.epoch = 7
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, config_scalars={"seed": 11, "gamma": 1.0})
    back, extras = load_checkpoint(path)
    assert back.epoch == 7
    assert back.joint.scale == model.joint.scale
    assert back.attention.dropout == pytest.approx(model.attention.dropout)
    assert back.dynconv.top_count == model.dynconv.top_count
    for name, p in model.named_parameters().items():
        assert np.array_equal(back.named_parameters()[name].data, p.data), name
    assert extras["config.seed"] == 11.0
    assert extras["config.gamma"] == 1.0

    # rewriting the loaded model gives a byte-identical file
    path2 = tmp_path / "m2.ckpt"
    save_checkpoint(path2, back)
    save_checkpoint(path, model)
    assert path.read_bytes() == path2.read_bytes()


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path):
    model = small_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    before = path.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
    # entries are written in name order: the attention tensors and the
    # first dynconv ones are on disk when this one fails to convert
    model.dynconv.norm2_bias.data = np.array(["not a number"])
    with pytest.raises(ValueError):
        save_checkpoint(path, model)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_checkpoint_preserves_optimizer_state(tmp_path):
    model = small_model()
    optimizer = Adam(model.named_parameters(), lr=0.01)
    for p in model.named_parameters().values():
        p.grad = np.full_like(p.data, 0.5)
    optimizer.step()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, optimizer=optimizer)
    _, extras = load_checkpoint(path)
    assert extras["optim.steps"] == 1.0
    assert any(k.startswith("optim.m.") for k in extras)
    assert any(k.startswith("optim.v.") for k in extras)


def test_checkpoint_names_are_sorted(tmp_path):
    model = small_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    blob = path.read_bytes()
    offset = len(CHECKPOINT_MAGIC)
    (count,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    names = []
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        names.append(blob[offset:offset + nlen].decode("utf-8"))
        offset += nlen
        (rank,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        dims = struct.unpack_from(f"<{rank}I", blob, offset)
        offset += 4 * rank
        offset += 8 * (int(np.prod(dims)) if dims else 1)
    assert names == sorted(names)
    assert offset == len(blob)


def test_missing_checkpoint_error(tmp_path):
    with pytest.raises(DataError, match="no-checkpoint"):
        read_checkpoint_tensors(tmp_path / "absent.ckpt")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XXXXX" + b"\x00" * 16)
    with pytest.raises(DataError, match="bad-magic"):
        read_checkpoint_tensors(path)


def test_truncated_checkpoint_rejected(tmp_path):
    model = small_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    blob = path.read_bytes()
    for cut in (len(CHECKPOINT_MAGIC) + 2, len(blob) // 2, len(blob) - 3):
        (tmp_path / "cut.ckpt").write_bytes(blob[:cut])
        with pytest.raises(DataError, match="truncated"):
            read_checkpoint_tensors(tmp_path / "cut.ckpt")


def test_trailing_bytes_rejected(tmp_path):
    model = small_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    (tmp_path / "fat.ckpt").write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(DataError, match="trailing-bytes"):
        read_checkpoint_tensors(tmp_path / "fat.ckpt")


def test_duplicate_tensor_name_rejected(tmp_path):
    path = tmp_path / "dup.ckpt"
    entry = b""
    name = "x".encode()
    entry += struct.pack("<I", len(name)) + name
    entry += struct.pack("<I", 0)          # rank 0 scalar
    entry += struct.pack("<d", 1.0)
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 2) + entry + entry)
    with pytest.raises(DataError, match="duplicate-name"):
        read_checkpoint_tensors(path)


@pytest.mark.parametrize("name,dims,fragment", [
    (b"\xff\xfe", (), "bad-name"),
    # 2**31 * 2**31 * 4 wraps to 0 in int64
    (b"x", (2**31, 2**31, 4), "truncated"),
])
def test_malformed_tensor_entry_rejected(tmp_path, name, dims, fragment):
    path = tmp_path / "entry.ckpt"
    entry = struct.pack("<I", len(name)) + name + struct.pack(f"<I{len(dims)}I", len(dims), *dims)
    entry += struct.pack("<d", 1.0)
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 1) + entry)
    with pytest.raises(DataError, match=fragment):
        read_checkpoint_tensors(path)


def test_incomplete_model_checkpoint_names_missing_tensor(tmp_path):
    path = tmp_path / "half.ckpt"
    name = b"joint.visual"
    entry = struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 2)
    entry += struct.pack("<dd", 1.0, 2.0)
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 1) + entry)
    with pytest.raises(DataError, match="lacks tensor"):
        load_checkpoint(path)


# ------------------------------------------------------------ feature store


def test_feature_store_loads_and_caches(tiny_data):
    store = FeatureStore(tiny_data["manifest"])
    first_id = tiny_data["manifest"].records[0].image_id
    a = store.get(first_id)
    assert a.shape == (8, 4, 4)
    assert store.get(first_id) is a
    with pytest.raises(DataError, match="no-such-image"):
        store.get("nope")


def test_feature_store_maps_are_read_only(tiny_data):
    store = FeatureStore(tiny_data["manifest"])
    fmap = store.get(tiny_data["manifest"].records[0].image_id)
    with pytest.raises(ValueError):
        fmap[0, 0, 0] = 1.0


def test_feature_store_keeps_each_pooled_vector(tiny_data):
    store = FeatureStore(tiny_data["manifest"])
    ids = [record.image_id for record in tiny_data["manifest"].records[:3]]
    first = store.pooled(ids[0])
    assert store.pooled(ids[0]) is first
    with pytest.raises(ValueError):
        first[0] = 1.0
    maps = {i: store.get(i) for i in ids}                # a plain mapping is pooled on the spot
    assert pooled_globals(store, ids).data.tobytes() == pooled_globals(maps, ids).data.tobytes()


# ------------------------------------------------------------ pools, scores


def test_local_feature_rows_shape_and_order():
    # build_pools lays a support map's cells out as rows in (grid row, grid col) order
    model = small_model()
    fmap = np.arange(6 * 2 * 3, dtype=np.float64).reshape(6, 2, 3)
    rows = build_pools(model.joint, ("a",), fmap[None], np.ones((1, 6), dtype=bool)).features.data
    assert isinstance(rows, np.ndarray)
    assert rows.shape == (6, 8)
    assert np.allclose(rows[5], model.joint.visual.data @ fmap[:, 1, 2], atol=1e-12)


def project(model, fmap):
    """One support map's cells in the joint space, written out in numpy."""
    return fmap.reshape(fmap.shape[0], -1).T @ model.joint.visual.data.T


def by_label(pools):
    """Each label's rows of the row-segmented pools."""
    return dict(zip(pools.labels, np.split(pools.features.data, np.cumsum(pools.sizes)[:-1])))


def member_keep(targets, fmaps):
    """The keep-matrix that pools every cell of each label's member images."""
    return np.repeat(np.asarray(targets).T > 0, fmaps[0, 0].size, axis=1)


def test_build_pools_members_in_support_order():
    model = small_model()
    rng = np.random.default_rng(1)
    fmaps = rng.standard_normal((2, 6, 2, 3))
    targets = np.array([[1.0, 0.0], [1.0, 1.0]])
    pools = by_label(build_pools(model.joint, ("a", "b"), fmaps, member_keep(targets, fmaps)))
    assert np.allclose(pools["a"],
                       np.vstack([project(model, fmaps[0]), project(model, fmaps[1])]),
                       atol=1e-12)
    assert np.allclose(pools["b"], project(model, fmaps[1]), atol=1e-12)


def test_build_pools_mask_drops_cells():
    model = small_model()
    rng = np.random.default_rng(3)
    fmaps = rng.standard_normal((3, 6, 2, 2))
    cases = [
        # one label on images 0 and 2, some of their cells kept
        (("a",), [[1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1]],
         {"a": [(0, [0, 3]), (2, [1, 2, 3])]}),
        # two labels on images 0 and 1: label a drops image 0's cells, label b keeps them
        (("a", "b"), [[0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0]],
         {"a": [(1, [0, 1, 2, 3])], "b": [(0, [0, 1, 2, 3]), (1, [0, 1, 2, 3])]}),
    ]
    for labels, keep, expected in cases:
        pools = by_label(build_pools(model.joint, labels, fmaps, np.array(keep, dtype=bool)))
        for label, cells in expected.items():
            assert np.allclose(pools[label],
                               np.vstack([project(model, fmaps[i])[kept] for i, kept in cells]),
                               atol=1e-12), label


def test_build_pools_unsupported_label_is_an_error():
    # a label whose keep row is empty
    model = small_model()
    fmaps = np.zeros((1, 6, 2, 2))
    keep = np.array([[True] * 4, [False] * 4])
    with pytest.raises(ConfigError, match="support pool for 'b'"):
        build_pools(model.joint, ("a", "b"), fmaps, keep)


@pytest.mark.parametrize("masks", [
    np.ones((1, 3), dtype=bool),                                    # fewer cells than the maps
    np.ones((1, 5), dtype=bool),                                    # more cells than the maps
    np.ones((2, 4), dtype=bool),                                    # one row too many
    np.ones(4, dtype=bool),                                         # not one row per label
])
def test_build_pools_masks_must_cover_every_cell(masks):
    # `masks` is the keep-matrix, which must be (labels, support cells)
    model = small_model()
    fmaps = np.ones((1, 6, 2, 2))
    with pytest.raises(ad.ShapeError, match="keep-matrix"):
        build_pools(model.joint, ("a",), fmaps, masks)


def per_image_pools(joint, labels, fmaps, keep):
    """The pool builder `build_pools` replaced: each support map projected on
    the tape on its own, then each label's kept cells of each map gathered
    and joined, label by label."""
    projections = [ad.matmul(ad.transpose(ad.reshape(Tensor(fmap), (fmap.shape[0], fmap[0].size))),
                             ad.transpose(joint.visual))
                   for fmap in fmaps]
    per_label = []
    for row in np.asarray(keep).reshape(len(labels), len(fmaps), -1):
        pieces = [ad.gather_rows(projections[i], np.flatnonzero(kept))
                  for i, kept in enumerate(row) if kept.any()]
        per_label.append(pieces[0] if len(pieces) == 1 else ad.concat(pieces))
    return SupportPools(labels=labels, features=ad.concat(per_label),
                        sizes=[features.shape[0] for features in per_label])


def tiny_episode(tiny_data, seed=5):
    manifest, vocabulary = tiny_data["manifest"], tiny_data["vocabulary"]
    labels = list(vocabulary.base)
    pool = EpisodePool(manifest, records_for_split(manifest, vocabulary, "base"))
    episode = sample_episode(pool, labels, 1, np.random.default_rng(seed))
    embeddings = np.stack([tiny_data["table"].vectors[label] for label in labels])
    return episode, FeatureStore(manifest), embeddings


def support_stack(store, episode):
    return np.stack([store.get(i) for i in episode.support_ids])


def test_build_pools_matches_the_per_image_loop(tiny_data):
    model = build_tiny_model(tiny_data["table"])
    episode, store, _ = tiny_episode(tiny_data)
    fmaps = support_stack(store, episode)
    rng = np.random.default_rng(6)
    masks = rng.random((len(fmaps), *fmaps.shape[2:])) < 0.5
    masks[:, 0, 0] = True
    members = member_keep(episode.support_targets, fmaps)
    for keep in (members, members & masks.reshape(1, -1)):
        args = (model.joint, episode.labels, fmaps, keep)
        new, old = build_pools(*args), per_image_pools(*args)
        assert np.array_equal(new.sizes, old.sizes)
        new, old = by_label(new), by_label(old)
        for label in episode.labels:
            assert new[label].shape == old[label].shape
            assert np.allclose(new[label], old[label], rtol=0.0, atol=1e-12), label


def test_episode_gradients_match_the_per_image_loop(tiny_data, monkeypatch):
    model = build_tiny_model(tiny_data["table"])
    episode, store, embeddings = tiny_episode(tiny_data)

    def joint_grads():
        model.zero_grad()
        cm, query = episode_losses(model, episode, store, embeddings, dropout_rng=None)
        ad.add(cm, query).backward()
        return model.joint.visual.grad.copy(), model.joint.text.grad.copy()

    new = joint_grads()
    monkeypatch.setattr(model_module, "build_pools", per_image_pools)
    old = joint_grads()
    for a, b in zip(new, old):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)


def episode_side(model, embeddings):
    return label_side(model.attention, model.dynconv, project_labels(model.joint, embeddings))


def test_episode_forward_broadcasts_masks_into_one_keep_matrix(tiny_data, monkeypatch):
    # None, an (n, h, w) and a (labels, n, h, w) keep-all mask give one
    # keep-matrix, the members'; a label-wise mask drops a cell from its
    # own label's row only
    model = build_tiny_model(tiny_data["table"])
    episode, store, embeddings = tiny_episode(tiny_data)
    fmaps = support_stack(store, episode)
    side = episode_side(model, embeddings)
    grid, labels = fmaps[:, 0].shape, len(episode.labels)
    keeps = []

    def recording_pools(joint, labels, fmaps, keep):
        keeps.append(keep)
        return build_pools(joint, labels, fmaps, keep)

    monkeypatch.setattr(model_module, "build_pools", recording_pools)
    first = int(np.flatnonzero(episode.support_targets[:, 0])[0])   # label 0's first member
    label_wise = np.ones((labels, *grid), dtype=bool)
    label_wise[0, first, 0, 0] = False
    logits = [episode_forward(model, episode, store, fmaps, side, masks=masks,
                              dropout_rng=None).data
              for masks in (None, np.ones(grid, dtype=bool),
                            np.ones((labels, *grid), dtype=bool), label_wise)]
    members = member_keep(episode.support_targets, fmaps)
    for keep, out in zip(keeps[:3], logits[:3]):
        assert np.array_equal(keep, members)
        assert out.tobytes() == logits[0].tobytes()
    dropped = np.zeros_like(members)
    dropped[0, first * fmaps[0, 0].size] = True
    assert np.array_equal(keeps[3], members & ~dropped)
    # one side serves two episodes over the same labels: each episode's
    # logits are bitwise those of a side built for it alone
    for other in (episode, tiny_episode(tiny_data, seed=6)[0]):
        other_maps = support_stack(store, other)
        shared, own = (episode_forward(model, other, store, other_maps, s, masks=None,
                                       dropout_rng=None).data
                       for s in (side, episode_side(model, embeddings)))
        assert shared.tobytes() == own.tobytes()


def per_label_forward(model, episode, store, fmaps, embeddings, *, masks, dropout_rng):
    """The episode forward the batched one replaced: each label's embedding
    projected, its kept member cells projected as its pool, and its
    prototype built on its own, then the prototypes stacked and scored.
    Label i's dropout takes row i of one draw from `dropout_rng`."""
    labels = list(episode.labels)
    joints = [ad.reshape(ad.matmul(model.joint.text, Tensor(embeddings[li].reshape(-1, 1))),
                         (model.joint.text.shape[0],))
              for li in range(len(labels))]
    cells = fmaps.transpose(0, 2, 3, 1).reshape(-1, fmaps.shape[1])
    image_of_cell = np.repeat(np.arange(len(fmaps)), fmaps[0, 0].size)
    kept = np.ones(len(cells), dtype=bool) if masks is None else masks.reshape(-1)
    protos = []
    draws = [None] * len(labels) if dropout_rng is None else \
        dropout_rng.random((len(labels), model.joint.text.shape[0]))
    for li in range(len(labels)):
        members = episode.support_targets[image_of_cell, li] > 0
        pool = ad.matmul(Tensor(cells[members & kept]), ad.transpose(model.joint.visual))
        protos.append(per_label_prototype(model.attention, model.dynconv, pool, joints[li],
                                          draws[li]))
    logits = score_against(model.joint, pooled_globals(store, episode.query_ids),
                           ad.concat([ad.reshape(p, (1, p.size)) for p in protos]))
    return ad.concat([ad.reshape(j, (1, j.size)) for j in joints]), logits


@pytest.mark.parametrize("case", ["lcm-short-pool", "zero-norm-row", "training-dropout"])
def test_episode_forward_matches_the_per_label_loop(tiny_data, case):
    model = build_tiny_model(tiny_data["table"])
    episode, store, embeddings = tiny_episode(tiny_data)
    maps = {i: store.get(i).copy() for i in episode.support_ids + episode.query_ids}
    masks = None
    if case == "lcm-short-pool":
        # two kept cells per support map: a label on one image pools two rows
        masks = np.stack([np.arange(maps[i][0].size).reshape(maps[i][0].shape) < 2
                          for i in episode.support_ids])
    if case == "zero-norm-row":
        maps[episode.support_ids[0]][:, 0, 0] = 0.0
    fmaps = support_stack(maps, episode)
    if masks is not None:
        keep = member_keep(episode.support_targets, fmaps) & masks.reshape(1, -1)
        sizes = build_pools(model.joint, episode.labels, fmaps, keep).sizes
        assert sizes.min() < model.dynconv.top_count
    training = case == "training-dropout"

    def run(forward):
        model.zero_grad()
        joints, logits = forward(model, episode, maps, fmaps, embeddings, masks=masks,
                                 dropout_rng=seeding.substream(5, "dropout") if training else None)
        cm = score_loss(model.joint, pooled_globals(maps, episode.support_ids), joints,
                        episode.support_targets)
        query = ad.tensor_sum(ad.bce_with_logits(logits, episode.query_targets.reshape(-1)))
        ad.add(cm, query).backward()
        return [joints.data, logits.data] + [p.grad.copy()
                                             for p in model.named_parameters().values()]

    def batched_forward(model, episode, store, fmaps, embeddings, **kwargs):
        side = episode_side(model, embeddings)
        return side.joints, episode_forward(model, episode, store, fmaps, side, **kwargs)

    for new, old in zip(run(batched_forward), run(per_label_forward)):
        assert_close(new, old)


def test_score_against_matrix_matches_flat():
    model = small_model()
    rng = np.random.default_rng(4)
    globals_ = [Tensor(rng.standard_normal(6)) for _ in range(3)]
    vectors = [Tensor(rng.standard_normal(8)) for _ in range(2)]
    flat = score_against(model.joint, ad.concat([ad.reshape(g, (1, 6)) for g in globals_]),
                         ad.concat([ad.reshape(v, (1, 8)) for v in vectors]))
    assert flat.shape == (6,)
    # image-major: entry (i, j) of the score matrix is flat[i * n_vectors + j]
    matrix = flat.data.reshape(3, 2)
    v0 = model.joint.visual.data @ globals_[0].data
    expected = 10.0 * (v0 @ vectors[1].data) / (
        np.linalg.norm(v0) * np.linalg.norm(vectors[1].data))
    assert matrix[0, 1] == pytest.approx(expected, abs=1e-12)


def test_init_model_is_seeded():
    a, b = small_model(seed=9), small_model(seed=9)
    for name, p in a.named_parameters().items():
        assert np.array_equal(p.data, b.named_parameters()[name].data), name
    c = small_model(seed=10)
    assert not np.array_equal(a.joint.visual.data, c.joint.visual.data)
