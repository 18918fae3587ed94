"""Dense tensor plumbing: the RTS1 raster codec, raster file I/O, PGM export.

Tensors are plain numpy float64 arrays, rank 1 through 5, row-major
semantics throughout.  The on-disk raster format ("RTS1") is:

    bytes 0..3    magic b"RTS1"
    bytes 4..7    rank, uint32 little-endian (1..5)
    next 4*rank   extents, uint32 little-endian each
    rest          payload, float32 little-endian, row-major,
                  exactly 4 * prod(extents) bytes

Compute stays in float64; files store float32.  The record encoder and
decoder are shared with checkpoints (backbone.py), which concatenate RTS1
records after a JSON index.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

RASTER_MAGIC = b"RTS1"
MAX_RANK = 5


class RasterFormatError(ValueError):
    """Malformed raster file or un-storable tensor."""


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise RasterFormatError(f"{what} contains non-finite values")


def _atomic_write(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-raster-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _encode_raster(tensor: np.ndarray) -> bytes:
    """One RTS1 record for a rank 1..5 finite tensor, values cast to float32."""
    arr = np.asarray(tensor, dtype=np.float64)
    if not 1 <= arr.ndim <= MAX_RANK:
        raise RasterFormatError(f"raster rank must be 1..{MAX_RANK}, got {arr.ndim}")
    if min(arr.shape) == 0:
        raise RasterFormatError("zero extents are not storable")
    _require_finite(arr, "tensor")
    with np.errstate(over="ignore"):
        payload = arr.astype("<f4")
    ## catch float32 overflow (large float64 -> inf) before it reaches disk
    _require_finite(payload, "float32-cast tensor")
    header = RASTER_MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + payload.tobytes(order="C")


def _decode_raster(blob: bytes, start: int, what: str) -> tuple[np.ndarray, int]:
    """Parse the RTS1 record at byte offset start of blob.

    Returns the float64 array and the offset one past the record's end;
    bytes after that are the caller's to judge.
    """
    if len(blob) < start + 8:
        raise RasterFormatError(f"{what}: shorter than any valid header")
    if blob[start : start + 4] != RASTER_MAGIC:
        raise RasterFormatError(f"{what}: bad magic {blob[start : start + 4]!r}")
    (rank,) = struct.unpack_from("<I", blob, start + 4)
    if not 1 <= rank <= MAX_RANK:
        raise RasterFormatError(f"{what}: rank {rank} outside 1..{MAX_RANK}")
    data_start = start + 8 + 4 * rank
    if len(blob) < data_start:
        raise RasterFormatError(f"{what}: truncated extent list")
    extents = struct.unpack_from(f"<{rank}I", blob, start + 8)
    if any(e == 0 for e in extents):
        raise RasterFormatError(f"{what}: zero extent in {extents}")
    count = 1
    for e in extents:
        count *= e
    end = data_start + 4 * count
    if len(blob) < end:
        raise RasterFormatError(
            f"{what}: truncated payload, extents {extents} need {end - start} bytes "
            f"but {len(blob) - start} remain"
        )
    flat = np.frombuffer(blob, dtype="<f4", offset=data_start, count=count)
    out = flat.astype(np.float64).reshape(extents)
    if not np.all(np.isfinite(out)):
        raise RasterFormatError(f"{what}: payload contains non-finite values")
    return out, end


def write_raster(path: str, tensor: np.ndarray) -> None:
    """Serialize a rank 1..5 finite tensor; float64 values are cast to float32."""
    _atomic_write(path, _encode_raster(tensor))


def read_raster(path: str) -> np.ndarray:
    """Read an RTS1 file back into a float64 array; fails loudly, never partially."""
    with open(path, "rb") as fh:
        blob = fh.read()
    out, end = _decode_raster(blob, 0, path)
    if end != len(blob):
        raise RasterFormatError(
            f"{path}: payload length mismatch, extents {out.shape} need "
            f"{end} bytes total but file has {len(blob)}"
        )
    return out


def export_pgm(path: str, image: np.ndarray) -> None:
    """Write a (H, W) map with values in [0, 1] as binary PGM (P5, maxval 255).

    Quantization is round-half-away-from-zero: byte = floor(255*v + 0.5).
    """
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"PGM export expects rank 2, got rank {arr.ndim}")
    _require_finite(arr, "image")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("PGM export expects values in [0, 1]")
    h, w = arr.shape
    data = np.floor(arr * 255.0 + 0.5).astype(np.uint8)
    _atomic_write(path, b"P5\n%d %d\n255\n" % (w, h) + data.tobytes(order="C"))
