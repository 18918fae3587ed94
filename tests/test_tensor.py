"""Raster container round-trips, byte layout, and PGM export."""

import os
import struct
from pathlib import Path

import numpy as np
import pytest

from changeseries.rng import SeededRng
from changeseries.tensor import (
    RASTER_MAGIC,
    RasterFormatError,
    export_pgm,
    read_raster,
    write_raster,
)


@pytest.mark.parametrize(
    "shape", [(7,), (3, 4), (2, 3, 4), (2, 3, 4, 5), (2, 2, 2, 3, 3)]
)
def test_raster_round_trip(tmp_path, shape):
    x = SeededRng(99).uniform(shape) * 100.0 - 50.0
    path = str(tmp_path / "t.rts")
    write_raster(path, x)
    back = read_raster(path)
    assert back.shape == shape
    assert back.dtype == np.float64
    ## storage is float32; the round trip must equal the cast exactly
    assert np.array_equal(back, x.astype(np.float32).astype(np.float64))


def test_raster_exact_byte_layout(tmp_path):
    x = np.array([[1.0, 2.5], [-3.0, 0.25], [8.0, 1e-3]])
    path = str(tmp_path / "t.rts")
    write_raster(path, x)
    blob = Path(path).read_bytes()
    expected = RASTER_MAGIC + struct.pack("<I", 2) + struct.pack("<II", 3, 2)
    expected += x.astype("<f4").tobytes(order="C")
    assert blob == expected


def test_raster_write_read_write_identical(tmp_path):
    x = SeededRng(4).uniform((2, 3, 4))
    p1, p2 = str(tmp_path / "a.rts"), str(tmp_path / "b.rts")
    write_raster(p1, x)
    write_raster(p2, read_raster(p1))
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_raster_rank_limits(tmp_path):
    path = str(tmp_path / "t.rts")
    with pytest.raises(RasterFormatError):
        write_raster(path, np.float64(3.0))
    with pytest.raises(RasterFormatError):
        write_raster(path, np.zeros((1, 1, 1, 1, 1, 1)))
    assert not os.path.exists(path)


def test_raster_rejects_zero_extent(tmp_path):
    path = str(tmp_path / "t.rts")
    with pytest.raises(RasterFormatError):
        write_raster(path, np.zeros((2, 0, 3)))
    assert not os.path.exists(path)


def test_raster_rejects_non_finite(tmp_path):
    path = str(tmp_path / "t.rts")
    bad = np.array([1.0, np.nan])
    with pytest.raises(RasterFormatError):
        write_raster(path, bad)
    ## values that overflow float32 must be refused, not silently inf
    with pytest.raises(RasterFormatError):
        write_raster(path, np.array([1e39]))
    assert not os.path.exists(path)


def test_read_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "t.rts")
    with open(path, "wb") as fh:
        fh.write(b"JUNK" + b"\x00" * 16)
    with pytest.raises(RasterFormatError):
        read_raster(path)


def test_read_rejects_truncated_and_padded(tmp_path):
    x = np.arange(6, dtype=np.float64).reshape(2, 3)
    path = str(tmp_path / "t.rts")
    write_raster(path, x)
    blob = Path(path).read_bytes()
    short = str(tmp_path / "short.rts")
    with open(short, "wb") as fh:
        fh.write(blob[:-4])
    with pytest.raises(RasterFormatError):
        read_raster(short)
    long = str(tmp_path / "long.rts")
    with open(long, "wb") as fh:
        fh.write(blob + b"\x00\x00\x00\x00")
    with pytest.raises(RasterFormatError):
        read_raster(long)


def test_read_rejects_bad_rank(tmp_path):
    path = str(tmp_path / "t.rts")
    with open(path, "wb") as fh:
        fh.write(RASTER_MAGIC + struct.pack("<I", 6) + b"\x00" * 24)
    with pytest.raises(RasterFormatError):
        read_raster(path)


def test_read_rejects_non_finite_payload(tmp_path):
    path = str(tmp_path / "t.rts")
    payload = np.array([1.0, np.inf], dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(RASTER_MAGIC + struct.pack("<I", 1) + struct.pack("<I", 2) + payload)
    with pytest.raises(RasterFormatError):
        read_raster(path)


def test_pgm_bytes(tmp_path):
    img = np.array([[0.0, 0.5, 1.0], [0.25, 0.75, 1.0]])
    path = str(tmp_path / "m.pgm")
    export_pgm(path, img)
    blob = Path(path).read_bytes()
    ## rounding is floor(255 v + 0.5): 0.5 -> 128, 0.25 -> 64 (63.75 + 0.5)
    assert blob == b"P5\n3 2\n255\n" + bytes([0, 128, 255, 64, 191, 255])


def test_pgm_rejects_out_of_range(tmp_path):
    path = str(tmp_path / "m.pgm")
    with pytest.raises(ValueError):
        export_pgm(path, np.array([[1.5]]))
    with pytest.raises(ValueError):
        export_pgm(path, np.array([[-0.1]]))
    with pytest.raises(ValueError):
        export_pgm(path, np.zeros((2, 2, 2)))
    assert not os.path.exists(path)
