"""Local feature maps: binary file format and pooling.

A feature map is a (channels, h, w) grid of float64 cell vectors.  On disk
the FMAP1 format stores magic "FMAP1", three u32 little-endian dims, then
channel-major float32 little-endian values; loading widens to float64.
"""

import struct

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError

FMAP_MAGIC = b"FMAP1"
_HEADER = struct.Struct("<III")


def load_feature_file(path) -> np.ndarray:
    """Read an FMAP1 file into a float64 (channels, h, w) array."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError as missing:
        raise DataError(f"feature file {path} does not exist") from missing
    if len(blob) < len(FMAP_MAGIC) or blob[: len(FMAP_MAGIC)] != FMAP_MAGIC:
        raise DataError(f"bad-magic: {path} is not an FMAP1 file")
    offset = len(FMAP_MAGIC)
    if len(blob) < offset + _HEADER.size:
        raise DataError(f"truncated: {path} ends inside the FMAP1 header")
    channels, height, width = _HEADER.unpack_from(blob, offset)
    if channels == 0 or height == 0 or width == 0:
        raise DataError(f"zero-dims: {path} declares shape ({channels}, {height}, {width})")
    offset += _HEADER.size
    expected = channels * height * width * 4
    payload = blob[offset:]
    if len(payload) < expected:
        raise DataError(f"truncated: {path} carries {len(payload)} payload bytes, expected {expected}")
    if len(payload) > expected:
        raise DataError(f"trailing-bytes: {path} carries {len(payload) - expected} extra bytes")
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise DataError(f"non-finite: {path} contains NaN or Inf values")
    return values.reshape(channels, height, width)


def write_feature_file(path, values: np.ndarray):
    """Write a (channels, h, w) array as FMAP1, narrowing to float32."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 3 or min(arr.shape) < 1:
        raise DataError(f"feature map must be a non-empty 3-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError("feature map contains non-finite values")
    with open(path, "wb") as handle:
        handle.write(FMAP_MAGIC)
        handle.write(_HEADER.pack(*arr.shape))
        handle.write(arr.astype("<f4").tobytes())


def global_pool(fmap: Tensor) -> Tensor:
    """Per-channel mean over the grid: (c, h, w) -> (c,)."""
    if fmap.ndim != 3:
        raise ad.ShapeError(f"global_pool: expected a 3-d map, got shape {fmap.shape}")
    return ad.mean(fmap, axis=(1, 2))


def weighted_pool(fmap: Tensor, weights: Tensor) -> Tensor:
    """Importance-weighted pooling that keeps the 1/(h*w) normalization.

    out_c = (1/(h*w)) * sum_{j,k} weights[j,k] * fmap[c,j,k]; with all
    weights one this equals global_pool.
    """
    if fmap.ndim != 3 or weights.shape != fmap.shape[1:]:
        raise ad.ShapeError(f"weighted_pool: map {fmap.shape} vs weights {weights.shape}")
    channels = fmap.shape[0]
    cells = fmap.shape[1] * fmap.shape[2]
    flat = ad.reshape(fmap, (channels, cells))
    pooled = ad.matmul(flat, ad.reshape(weights, (cells,)))
    return ad.scale(pooled, 1.0 / cells)
