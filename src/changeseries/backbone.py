"""Shared-weight encoder, twin decoders, and checkpoints on the RTS1 codec.

The encoder applies the same weights to every image of the series by
folding timestamps into the batch axis.  It emits a feature pyramid with
scales s = 0 .. S-1: level s has width base_width * 2^s at resolution
(H / 2^s, W / 2^s), captured before the next pooling step.

A decoder walks the pyramid back up: each step is a 2x2 transpose
convolution that doubles resolution and halves width, concatenation with
the matching skip level, and a ConvBlock.  A 1x1 convolution plus sigmoid
produces per-pixel probabilities.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .jsonconfig import JsonConfig
from .layers import Conv2d, ConvBlock, Layer, MaxPool2x2, Sigmoid, TransposeConv2x2
from .rng import SeededRng
from .tensor import RasterFormatError, _atomic_write, _decode_raster, _encode_raster

CHECKPOINT_MAGIC = b"CKPT"


@dataclass(frozen=True)
class BackboneConfig(JsonConfig):
    scales: int = 3
    base_width: int = 8
    in_channels: int = field(default=3, metadata={"flag": None})
    use_batchnorm: bool = field(default=True, metadata={"flag": None})

    def __post_init__(self):
        if self.scales < 2:
            raise ValueError("need at least 2 pyramid scales")
        if self.base_width < 2:
            raise ValueError("base width must be at least 2")
        if self.in_channels < 1:
            raise ValueError("in_channels must be positive")

    def width_at(self, scale: int) -> int:
        return self.base_width * (2 ** scale)


def pyramid_dims(cfg: BackboneConfig, height: int, width: int) -> list[tuple[int, int, int]]:
    """[(width_s, H_s, W_s)] per scale; validates divisibility by 2^(S-1)."""
    divisor = 2 ** (cfg.scales - 1)
    if height % divisor or width % divisor:
        raise ValueError(
            f"{height}x{width} input not divisible by {divisor} ({cfg.scales} scales)"
        )
    return [
        (cfg.width_at(s), height // (2 ** s), width // (2 ** s)) for s in range(cfg.scales)
    ]


class Encoder(Layer):
    """Timestamp-shared feature extractor returning the full pyramid.

    Block s (s = 1 .. S-1) is also the attribute down{s}, its record name.
    """

    def __init__(self, cfg: BackboneConfig, rng: SeededRng):
        self.cfg = cfg
        ## nothing reads the gradient of the images: the entry conv skips it
        self.entry = ConvBlock(
            cfg.in_channels, cfg.base_width, cfg.use_batchnorm, rng, input_grad=False
        )
        self.pools = []
        self.blocks = []
        for s in range(1, cfg.scales):
            self.pools.append(MaxPool2x2())
            block = ConvBlock(cfg.width_at(s - 1), cfg.width_at(s), cfg.use_batchnorm, rng)
            self.blocks.append(block)
            setattr(self, f"down{s}", block)

    def forward(self, x: np.ndarray, *, keep: bool = True) -> list[np.ndarray]:
        pyramid_dims(self.cfg, x.shape[2], x.shape[3])
        feats = [self.entry.forward(x, keep=keep)]
        for pool, block in zip(self.pools, self.blocks):
            feats.append(block.forward(pool.forward(feats[-1], keep=keep), keep=keep))
        return feats

    def backward(self, d_pyramid: list[np.ndarray]) -> None:
        """Accumulate every parameter gradient; the images get none."""
        grad = d_pyramid[-1]
        for s in range(len(self.blocks) - 1, -1, -1):
            grad = self.pools[s].backward(self.blocks[s].backward(grad))
            grad = grad + d_pyramid[s]
        self.entry.backward(grad)


class Decoder(Layer):
    """Pyramid-to-probability-map decoder with skip concatenation.

    The deepest pyramid level seeds the walk; levels S-2 .. 0 enter as
    skips.  Concatenation order is (upsampled, skip).  Step i's layers are
    also the attributes up{i} and block{i}, their record names.
    """

    def __init__(self, cfg: BackboneConfig, rng: SeededRng):
        self.cfg = cfg
        self.ups = []
        self.blocks = []
        for i, s in enumerate(range(cfg.scales - 2, -1, -1)):
            up = TransposeConv2x2(cfg.width_at(s + 1), cfg.width_at(s), rng)
            block = ConvBlock(2 * cfg.width_at(s), cfg.width_at(s), cfg.use_batchnorm, rng)
            self.ups.append(up)
            self.blocks.append(block)
            setattr(self, f"up{i}", up)
            setattr(self, f"block{i}", block)
        self.head = Conv2d(cfg.base_width, 1, 1, rng)
        self.squash = Sigmoid()

    def forward(self, pyramid: list[np.ndarray], *, keep: bool = True) -> np.ndarray:
        if len(pyramid) != self.cfg.scales:
            raise ValueError(f"expected {self.cfg.scales} pyramid levels, got {len(pyramid)}")
        h = pyramid[-1]
        for i, (up, block) in enumerate(zip(self.ups, self.blocks)):
            skip = pyramid[self.cfg.scales - 2 - i]
            u = up.forward(h, keep=keep)
            h = block.forward(np.concatenate([u, skip], axis=1), keep=keep)
        return self.squash.forward(self.head.forward(h, keep=keep), keep=keep)[:, 0]

    def backward(self, d_out: np.ndarray) -> list[np.ndarray]:
        d_pyramid = [None] * self.cfg.scales
        g = self.head.backward(self.squash.backward(d_out[:, None]))
        for i in range(len(self.blocks) - 1, -1, -1):
            dcat = self.blocks[i].backward(g)
            ## ups[i] outputs the width of the skip it is concatenated with
            split = self.cfg.width_at(self.cfg.scales - 2 - i)
            du, dskip = dcat[:, :split], dcat[:, split:]
            d_pyramid[self.cfg.scales - 2 - i] = dskip
            g = self.ups[i].backward(du)
        d_pyramid[-1] = g
        return d_pyramid


def save_checkpoint(path: str, named_values: dict, meta: dict) -> None:
    """Single-file checkpoint: magic, JSON header, concatenated raster records.

    Layout: b"CKPT" | uint32-LE header length | UTF-8 JSON
    {"meta": ..., "index": [{"name": ...}, ...]} | records.  Each record is
    a complete RTS1 raster, which carries its own extents; they follow the
    index order end to end.  Values are stored float32.
    """
    records = []
    for name, value in named_values.items():
        try:
            records.append(_encode_raster(value))
        except RasterFormatError as exc:
            raise RasterFormatError(f"parameter {name}: {exc}") from exc
    index = [{"name": name} for name in named_values]
    header = json.dumps({"meta": meta, "index": index}, sort_keys=True).encode("utf-8")
    _atomic_write(
        path, CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header + b"".join(records)
    )


def load_checkpoint(path: str) -> tuple[dict, dict]:
    """Read back (meta, {name: float64 array}) from save_checkpoint's layout.

    Only the index's names are read, and each must be listed once.  The
    records must fill the body exactly: each starts where the previous one
    ends, and the last ends at the end of the file.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != CHECKPOINT_MAGIC:
        raise RasterFormatError(f"{path}: not a checkpoint file")
    (hlen,) = struct.unpack_from("<I", blob, 4)
    end = 8 + hlen
    if len(blob) < end:
        raise RasterFormatError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[8:end].decode("utf-8"))
    except ValueError as exc:
        raise RasterFormatError(f"{path}: unreadable checkpoint header: {exc}") from exc
    if not (
        isinstance(header, dict)
        and set(header) == {"meta", "index"}
        and isinstance(header["index"], list)
    ):
        raise RasterFormatError(f'{path}: header is not {{"meta": ..., "index": [...]}}')
    values = {}
    for i, entry in enumerate(header["index"]):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)):
            raise RasterFormatError(f"{path}: index entry {i} needs a string name")
        name = entry["name"]
        if name in values:
            raise RasterFormatError(f"{path}: duplicate record name {name!r}")
        values[name], end = _decode_raster(blob, end, f"{path}: record {name!r}")
    if end != len(blob):
        raise RasterFormatError(f"{path}: {len(blob) - end} bytes after the last record")
    return header["meta"], values
