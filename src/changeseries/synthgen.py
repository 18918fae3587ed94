"""Synthetic scene generator for building-construction time series.

A scene is a T-step image series over a fixed extent: a smooth background
texture, axis-aligned rectangular "buildings" that appear at a drawn
construction timestamp (and optionally disappear at a later demolition
timestamp), per-timestamp global illumination offsets, and per-pixel
Gaussian noise.  Labels are exact: segmentation masks per timestamp are
stored, and the change mask of every ordered timestamp pair is derived
from them by XOR on lookup.

Corrupted change probabilities are likewise drawn on lookup: pair (t, k)
draws its normals from the change-corruption stream starting at the
counter its position in dense lexicographic order gives, so each row is
the same bytes whichever pairs are read, and in whichever order.  Nothing
is cached; reading a pair again draws it again.

Everything is a pure function of the SceneSpec seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .changefeat import EdgeSet, PairMaps, XorChanges
from .jsonconfig import JsonConfig
from .markov import PROB_EPS
from .rng import SeededRng

## derive() tags for the generator's independent streams
_STREAM_GEOMETRY = 1
_STREAM_NOISE = 2
_STREAM_ILLUMINATION = 3
_STREAM_TEXTURE = 4
_STREAM_SEG_CORRUPT = 10
_STREAM_CH_CORRUPT = 11


@dataclass(frozen=True)
class SceneSpec(JsonConfig):
    seed: int = 0
    t_len: int = field(default=4, metadata={"key": "t"})
    height: int = 64
    width: int = 64
    channels: int = 3
    n_buildings: int = field(default=12, metadata={"flag": "--buildings"})
    min_extent: int = 6
    max_extent: int = 14
    noise_sigma: float = 0.03
    illumination_jitter: float = 0.06
    demolition_rate: float = 0.0

    def __post_init__(self):
        if self.t_len < 2:
            raise ValueError("a scene needs at least 2 timestamps")
        if self.height < 1 or self.width < 1 or self.channels < 1:
            raise ValueError("scene extents must be positive")
        ## more buildings than pixels only repaint pixels, at O(n_buildings * T)
        if not 0 <= self.n_buildings <= self.height * self.width:
            raise ValueError("n_buildings must lie in [0, height * width]")
        if self.min_extent < 2:
            raise ValueError("building extents must be at least 2 pixels")
        if self.max_extent < self.min_extent:
            raise ValueError("max_extent must be >= min_extent")
        if self.max_extent > self.height or self.max_extent > self.width:
            raise ValueError("buildings may not exceed the scene extent")
        ## written so that NaN fails; an infinite sigma clips to the bounds
        for name in ("noise_sigma", "illumination_jitter"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.demolition_rate <= 1.0:
            raise ValueError("demolition_rate must lie in [0, 1]")


@dataclass
class Scene:
    spec: SceneSpec
    images: np.ndarray  # (T, C, H, W) float64 in [0, 1]
    seg_labels: np.ndarray  # (T, H, W) uint8 in {0, 1}

    @property
    def t_len(self) -> int:
        return int(self.images.shape[0])

    @property
    def change_labels(self) -> PairMaps:
        """(t, k) 1-based -> (H, W) uint8 change label, the XOR of seg_labels."""
        return XorChanges(self.seg_labels)

    def change_stack(self, edges: EdgeSet) -> np.ndarray:
        """(N, H, W) change labels following the edge set's order."""
        return self.change_labels.stack(edges)


def _smooth_texture(rng: SeededRng, height: int, width: int) -> np.ndarray:
    """Low-frequency cosine mixture in roughly [0.15, 0.55]."""
    yy, xx = np.meshgrid(
        np.arange(height, dtype=np.float64) / height,
        np.arange(width, dtype=np.float64) / width,
        indexing="ij",
    )
    tex = np.full((height, width), 0.35)
    for _ in range(4):
        fy = 0.5 + 2.5 * rng.uniform()
        fx = 0.5 + 2.5 * rng.uniform()
        phase = 2.0 * np.pi * rng.uniform()
        tex += 0.05 * np.cos(2.0 * np.pi * (fy * yy + fx * xx) + phase)
    return tex


def generate(spec: SceneSpec) -> Scene:
    """Render a scene deterministically from its spec."""
    root = SeededRng(spec.seed)
    geo = root.derive(_STREAM_GEOMETRY)
    noise = root.derive(_STREAM_NOISE)
    illum = root.derive(_STREAM_ILLUMINATION)
    texture = _smooth_texture(root.derive(_STREAM_TEXTURE), spec.height, spec.width)

    span = spec.max_extent - spec.min_extent + 1
    buildings = []
    for _ in range(spec.n_buildings):
        bh = spec.min_extent + geo.randint(span)
        bw = spec.min_extent + geo.randint(span)
        y0 = geo.randint(spec.height - bh + 1)
        x0 = geo.randint(spec.width - bw + 1)
        built = 1 + geo.randint(spec.t_len)  # 1-based construction timestamp
        razed = None
        demolish = geo.uniform() < spec.demolition_rate
        if demolish and built < spec.t_len:
            razed = built + 1 + geo.randint(spec.t_len - built)
        intensity = 0.70 + 0.25 * geo.uniform()
        buildings.append((y0, x0, bh, bw, built, razed, intensity))

    seg = np.zeros((spec.t_len, spec.height, spec.width), dtype=np.uint8)
    images = np.empty((spec.t_len, spec.channels, spec.height, spec.width))
    offsets = illum.uniform(spec.t_len) * 2.0 * spec.illumination_jitter - spec.illumination_jitter
    for step in range(1, spec.t_len + 1):
        canvas = texture.copy()
        for y0, x0, bh, bw, built, razed, intensity in buildings:
            present = built <= step and (razed is None or step < razed)
            if present:
                canvas[y0 : y0 + bh, x0 : x0 + bw] = intensity
                seg[step - 1, y0 : y0 + bh, x0 : x0 + bw] = 1
        frame = canvas[None, :, :] + offsets[step - 1]
        frame = frame + noise.normal((spec.channels, spec.height, spec.width)) * spec.noise_sigma
        images[step - 1] = np.clip(frame, 0.0, 1.0)
    return Scene(spec=spec, images=images, seg_labels=seg)


def corrupt_to_probabilities(
    scene: Scene, seg_sigma: float, ch_sigma: float, seed: int
) -> tuple[np.ndarray, PairMaps]:
    """Noisy probabilistic observations of a scene's labels.

    Each probability is clamp(label + gaussian(sigma), PROB_EPS, 1 - PROB_EPS).
    Segmentation probabilities are drawn here.  Change probabilities cover
    every dense pair, keyed like Scene.change_labels, and each pair's row is
    drawn when it is looked up: its normals start at counter n * 2 * H * W of
    the change stream, n being the pair's dense index (Box-Muller takes two
    uniforms per normal), so it equals the row a lexicographic loop over all
    pairs would have drawn.
    """
    for name, sigma in (("seg_sigma", seg_sigma), ("ch_sigma", ch_sigma)):
        if not sigma >= 0:
            raise ValueError(f"corruption sigmas must be >= 0, got {name} {sigma}")
    root = SeededRng(seed)
    s_rng = root.derive(_STREAM_SEG_CORRUPT)
    c_seed = root.derive(_STREAM_CH_CORRUPT).seed
    lo, hi = PROB_EPS, 1.0 - PROB_EPS

    seg = scene.seg_labels.astype(np.float64)
    ## a huge sigma overflows the noise to +-inf, which the clip maps to the bounds
    with np.errstate(over="ignore"):
        seg_probs = np.clip(seg + s_rng.normal(seg.shape) * seg_sigma, lo, hi)
    labels = scene.change_labels

    def corrupted(n: int, t: int, k: int) -> np.ndarray:
        label = labels.row(n, t, k).astype(np.float64)
        rng = SeededRng(c_seed).skip(n * 2 * label.size)
        with np.errstate(over="ignore"):
            return np.clip(label + rng.normal(label.shape) * ch_sigma, lo, hi)

    return seg_probs, PairMaps(labels.edges, corrupted)


def stack_probs(ch_probs: PairMaps, edges: EdgeSet) -> np.ndarray:
    """(N, H, W) probability stack following the edge set's order."""
    return ch_probs.stack(edges)
