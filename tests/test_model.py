"""Model assembly, checkpoint format, the feature store, and pool building."""

import struct

import numpy as np
import pytest

from mlfewshot import autodiff as ad
from mlfewshot import seeding
from mlfewshot.autodiff import Tensor
from mlfewshot.errors import DataError
from mlfewshot.model import (
    CHECKPOINT_MAGIC,
    FeatureStore,
    build_pools,
    init_model,
    load_checkpoint,
    local_feature_rows,
    read_checkpoint_tensors,
    save_checkpoint,
    score_against,
)
from mlfewshot.optim import Adam


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


# ------------------------------------------------------------ pools, scores


def test_local_feature_rows_shape_and_order():
    model = small_model()
    fmap = np.arange(6 * 2 * 3, dtype=np.float64).reshape(6, 2, 3)
    rows = local_feature_rows(model.joint, Tensor(fmap))
    assert rows.shape == (6, 8)
    cell_12 = fmap[:, 1, 2]
    assert np.allclose(rows.data[5], model.joint.visual.data @ cell_12, atol=1e-12)


def test_build_pools_members_in_support_order():
    rng = np.random.default_rng(1)
    projections = [Tensor(rng.standard_normal((4, 8))) for _ in range(2)]
    targets = np.array([[1.0, 0.0], [1.0, 1.0]])
    pools = build_pools(("a", "b"), targets, projections)
    assert np.array_equal(pools["a"].features.data,
                          np.vstack([projections[0].data, projections[1].data]))
    assert np.array_equal(pools["b"].features.data, projections[1].data)


def test_build_pools_full_mask_equals_no_mask():
    rng = np.random.default_rng(2)
    projections = [Tensor(rng.standard_normal((4, 8)))]
    targets = np.array([[1.0]])
    plain = build_pools(("a",), targets, projections)
    masked = build_pools(("a",), targets, projections, masks=[np.ones((2, 2), dtype=bool)])
    assert np.array_equal(plain["a"].features.data, masked["a"].features.data)


def test_build_pools_mask_drops_cells():
    rng = np.random.default_rng(3)
    projections = [Tensor(rng.standard_normal((4, 8))) for _ in range(3)]
    targets = np.array([[1.0], [0.0], [1.0]])
    masks = [np.array([[True, False], [False, True]]), None,
             np.array([[False, True], [True, True]])]
    pools = build_pools(("a",), targets, projections, masks=masks)
    assert np.array_equal(pools["a"].features.data,
                          np.vstack([projections[0].data[[0, 3]], projections[2].data[[1, 2, 3]]]))


def test_build_pools_unsupported_label_is_an_error():
    projections = [Tensor(np.zeros((4, 8)))]
    targets = np.array([[0.0]])
    with pytest.raises(DataError, match="no support images"):
        build_pools(("a",), targets, projections)


def test_score_against_matrix_matches_flat():
    model = small_model()
    rng = np.random.default_rng(4)
    globals_ = [Tensor(rng.standard_normal(6)) for _ in range(3)]
    vectors = [Tensor(rng.standard_normal(8)) for _ in range(2)]
    flat = score_against(model.joint, ad.stack(globals_), ad.stack(vectors))
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
