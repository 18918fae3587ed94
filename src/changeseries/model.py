"""Full network: shared encoder, per-scale temporal refiners, twin decoders.

forward() maps an image series (T, C, H, W) plus an edge set to
segmentation probabilities (T, H, W) and change probabilities (N, H, W).
The change branch consumes parameter-free later-minus-earlier differences
of the refined pyramid, both as its deepest input and as its skip
connections.  backward() routes loss gradients from both heads down to
every parameter.  forward(..., keep=False) keeps no backward cache in any
layer, for callers that never call backward (inference, validation), and
runs inside cores.threaded(): its 3x3 convs, BatchNorms and refiners split
their work between the cores, bitwise equal to one core's result.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import cores
from .backbone import BackboneConfig, Decoder, Encoder
from .changefeat import EdgeSet, change_pyramid, change_pyramid_backward
from .jsonconfig import JsonConfig
from .layers import Identity, Layer
from .rng import SeededRng
from .temporal import FF_MULT, TemporalConfig, TemporalRefiner

_STREAM_INIT = 777


@dataclass(frozen=True)
class ModelConfig(JsonConfig):
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    temporal: TemporalConfig | None = field(default_factory=TemporalConfig)
    seed: int = 0

    def __post_init__(self):
        if self.temporal is not None and self.backbone.base_width % self.temporal.heads:
            raise ValueError("base width must be divisible by the head count")


def check_records(cfg: ModelConfig, values: dict) -> None:
    """Refuse records too few or too small for cfg's model, before it is built.

    The entry conv, each deeper scale's last conv and each refiner layer's
    first feed-forward weight must be stored with the shape cfg implies,
    walked until the first miss; load_param_values checks every record.
    """
    bb, tc, w = cfg.backbone, cfg.temporal, cfg.backbone.width_at
    widest = itertools.chain(
        [("encoder.entry.conv1.weight", (w(0), bb.in_channels, 3, 3))],
        ((f"encoder.down{s}.conv2.weight", (w(s), w(s), 3, 3)) for s in range(1, bb.scales)),
        ((f"temporal.scale{s}.layer{i}.ff1.weight", (w(s), FF_MULT * w(s)))
         for s in range(bb.scales) for i in range(tc.layers if tc else 0)),
    )
    for name, shape in widest:
        if name not in values or values[name].shape != shape:
            raise ValueError(f"the model config needs a record {name!r} of shape {shape}")


class ChangeModel(Layer):
    """The network as one Layer tree: params() names every checkpoint record.

    Refiner s is also the attribute temporal.scale{s}.  Without a refiner
    each scale passes through an Identity, which owns no parameters.
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        rng = SeededRng(cfg.seed).derive(_STREAM_INIT)
        ## construction order fixes the initialization draw order
        self.encoder = Encoder(cfg.backbone, rng)
        self.temporal = Layer()
        self.refiners = [
            Identity()
            if cfg.temporal is None
            else TemporalRefiner(cfg.backbone.width_at(s), cfg.temporal, rng)
            for s in range(cfg.backbone.scales)
        ]
        for s, refiner in enumerate(self.refiners):
            setattr(self.temporal, f"scale{s}", refiner)
        self.seg_decoder = Decoder(cfg.backbone, rng)
        self.change_decoder = Decoder(cfg.backbone, rng)
        self._edges = None

    def named_params(self) -> dict:
        return dict(self.params())

    def param_values(self) -> dict:
        return {name: p.value.copy() for name, p in self.named_params().items()}

    def load_param_values(self, values: dict) -> None:
        params = self.named_params()
        missing = set(params) - set(values)
        extra = set(values) - set(params)
        if missing or extra:
            raise ValueError(f"parameter name mismatch: missing {missing}, extra {extra}")
        for name, p in params.items():
            arr = np.asarray(values[name], dtype=np.float64)
            if arr.shape != p.value.shape:
                raise ValueError(f"shape mismatch for {name}")
            p.value = arr.copy()

    def zero_grads(self) -> None:
        for p in self.named_params().values():
            p.grad = np.zeros_like(p.value)

    def forward(
        self, images: np.ndarray, edges: EdgeSet, *, keep: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        if images.ndim != 4:
            raise ValueError("expected an image series of shape (T, C, H, W)")
        if images.shape[1] != self.cfg.backbone.in_channels:
            raise ValueError(
                f"images have {images.shape[1]} channels, "
                f"the model takes {self.cfg.backbone.in_channels}"
            )
        if images.shape[0] != edges.t_len:
            raise ValueError(
                f"series length {images.shape[0]} does not match edge set over {edges.t_len}"
            )
        ## the edge set doubles as the mark that the layer caches are live
        self._edges = edges if keep else None
        ## inference splits its large layers between the cores; training
        ## leaves its whole-batch GEMMs to BLAS's own threads
        with contextlib.nullcontext() if keep else cores.threaded():
            pyramid = self.encoder.forward(images, keep=keep)
            refined = [r.forward(level, keep=keep) for r, level in zip(self.refiners, pyramid)]
            seg = self.seg_decoder.forward(refined, keep=keep)
            diff = change_pyramid(refined, edges)
            ch = self.change_decoder.forward(diff, keep=keep)
        return seg, ch

    def backward(self, d_seg: np.ndarray, d_ch: np.ndarray) -> None:
        ## taken, since every layer drops its cache during backward
        edges, self._edges = self._edges, None
        if edges is None:
            raise RuntimeError("backward needs a preceding forward with keep=True")
        d_diff = self.change_decoder.backward(d_ch)
        d_refined = change_pyramid_backward(d_diff, edges)
        d_from_seg = self.seg_decoder.backward(d_seg)
        merged = [a + b for a, b in zip(d_refined, d_from_seg)]
        self.encoder.backward([r.backward(g) for r, g in zip(self.refiners, merged)])
