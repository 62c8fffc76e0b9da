"""Feature-map file format and pooling."""

import struct

import numpy as np
import pytest

from mlfewshot.autodiff import Tensor
from mlfewshot.errors import DataError
from mlfewshot.features import (
    FMAP_MAGIC,
    global_pool,
    load_feature_file,
    weighted_pool,
    write_feature_file,
)


def test_round_trip_is_bitwise_for_float32_values(tmp_path):
    rng = np.random.default_rng(5)
    fmap = rng.standard_normal((4, 3, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "x.fmap"
    write_feature_file(path, fmap)
    back = load_feature_file(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, fmap)
    # and a second write of the reloaded data is byte-identical
    path2 = tmp_path / "y.fmap"
    write_feature_file(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.fmap"
    path.write_bytes(b"NOPE!" + b"\x00" * 20)
    with pytest.raises(DataError, match="bad-magic"):
        load_feature_file(path)


def test_truncated_header_and_payload_rejected(tmp_path):
    path = tmp_path / "x.fmap"
    path.write_bytes(FMAP_MAGIC + struct.pack("<II", 2, 2))
    with pytest.raises(DataError, match="truncated"):
        load_feature_file(path)
    path.write_bytes(FMAP_MAGIC + struct.pack("<III", 2, 2, 2) + b"\x00" * 8)
    with pytest.raises(DataError, match="truncated"):
        load_feature_file(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "x.fmap"
    payload = np.zeros(4, dtype="<f4").tobytes()
    path.write_bytes(FMAP_MAGIC + struct.pack("<III", 1, 2, 2) + payload + b"xx")
    with pytest.raises(DataError, match="trailing-bytes"):
        load_feature_file(path)


def test_zero_dims_rejected(tmp_path):
    path = tmp_path / "x.fmap"
    path.write_bytes(FMAP_MAGIC + struct.pack("<III", 0, 2, 2))
    with pytest.raises(DataError, match="zero-dims"):
        load_feature_file(path)


def test_non_finite_payload_rejected(tmp_path):
    path = tmp_path / "x.fmap"
    payload = np.array([1.0, np.inf, 0.0, 2.0], dtype="<f4").tobytes()
    path.write_bytes(FMAP_MAGIC + struct.pack("<III", 1, 2, 2) + payload)
    with pytest.raises(DataError, match="non-finite"):
        load_feature_file(path)


# ------------------------------------------------------------------ pooling


def test_global_pool_hand_value():
    fmap = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    assert np.array_equal(global_pool(fmap).data, [2.5])


def test_weighted_pool_hand_value():
    fmap = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    rho = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(weighted_pool(fmap, rho).data, [1.25])


def test_weighted_pool_with_uniform_weights_equals_global():
    rng = np.random.default_rng(3)
    fmap = Tensor(rng.standard_normal((6, 3, 4)))
    ones = Tensor(np.ones((3, 4)))
    assert np.allclose(weighted_pool(fmap, ones).data, global_pool(fmap).data,
                       atol=1e-15)


def test_weighted_pool_is_differentiable_in_weights():
    rng = np.random.default_rng(4)
    fmap = Tensor(rng.standard_normal((2, 2, 2)))
    rho = Tensor(np.full((2, 2), 0.5), requires_grad=True)
    out = weighted_pool(fmap, rho)
    (out @ out).backward()
    assert rho.grad is not None and rho.grad.shape == (2, 2)
