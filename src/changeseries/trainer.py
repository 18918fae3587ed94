"""Patch-sampled training loop: change-weighted crops, geometric
augmentation, decoupled-weight-decay Adam with a linearly decaying rate,
early stopping on validation loss.

One epoch is cfg.steps_per_epoch optimizer steps; each step averages
gradients over cfg.batch_size independently sampled patches.  Every random
decision flows from cfg.seed, so equal configurations reproduce identical
runs bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .changefeat import EDGE_KINDS, EdgeSet, XorChanges, build_edge_set
from .jsonconfig import JsonConfig
from .model import ChangeModel, ModelConfig
from .objective import multitask_loss
from .rng import SeededRng
from .synthgen import Scene

_STREAM_SAMPLING = 101


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    lr: float = 1e-4
    weight_decay: float = 0.01
    batch_size: int = 4
    max_epochs: int = 100
    steps_per_epoch: int = 10
    patience: int = 10
    patch_size: int = 64
    candidate_crops: int = 20
    base_prob: float = 0.05
    t_train: int = 4
    edge_kind: str = field(default="dense", metadata={"choices": EDGE_KINDS})
    seed: int = 0

    def __post_init__(self):
        ## each range check is written so that NaN fails it
        for name in ("lr", "weight_decay"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("batch_size", "max_epochs", "steps_per_epoch", "patience", "patch_size",
                     "candidate_crops"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.base_prob > 0:
            raise ValueError("base_prob must be > 0")
        if self.t_train < 2:
            raise ValueError("t_train must be >= 2")
        if self.edge_kind not in EDGE_KINDS:
            raise ValueError(f"unknown edge kind {self.edge_kind!r}, expected one of {EDGE_KINDS}")


@dataclass
class Sample:
    """A training patch; its change labels derive from seg, each time they are read."""

    images: np.ndarray  # (T', C, P, P)
    seg: np.ndarray  # (T', P, P)
    edges: EdgeSet  # over the T'-length sub-series
    timestamps: tuple  # original 1-based timestamps selected

    @property
    def changes(self) -> np.ndarray:
        """(N, P, P) XOR of seg over each edge; it commutes with rotations and flips."""
        return XorChanges(self.seg).stack(self.edges)


def series_change_fraction(seg_labels: np.ndarray) -> np.ndarray:
    """(H, W) binary map marking pixels whose label ever changes."""
    return (seg_labels.max(axis=0) != seg_labels.min(axis=0)).astype(np.float64)


def window_weights(change_any: np.ndarray, windows: list, patch: int, base_prob: float):
    """Per-window sampling weights: change fraction inside + base probability."""
    raw = []
    for y0, x0 in windows:
        frac = float(change_any[y0 : y0 + patch, x0 : x0 + patch].mean())
        raw.append(frac + base_prob)
    total = sum(raw)
    return [wgt / total for wgt in raw]


def _pick_weighted(weights, rng: SeededRng) -> int:
    r = rng.uniform() * sum(weights)
    acc = 0.0
    for i, wgt in enumerate(weights):
        acc += wgt
        if r < acc:
            return i
    return len(weights) - 1


def _select_timestamps(t_total: int, t_train: int, rng: SeededRng) -> tuple:
    if t_train > t_total:
        raise ValueError(f"cannot draw {t_train} timestamps from a series of {t_total}")
    if t_train == t_total:
        return tuple(range(1, t_total + 1))
    chosen = sorted(int(i) + 1 for i in rng.sample(t_total, t_train))
    return tuple(chosen)


def sample_patch(scene: Scene, cfg: TrainConfig, rng: SeededRng) -> Sample:
    """Draw one training patch: change-weighted window, then timestamps.

    Draw order is fixed: candidate window corners (two uniforms each), one
    uniform for the weighted pick, then the timestamp subset.
    """
    t_total, _, height, width = scene.images.shape
    patch = cfg.patch_size
    if patch > height or patch > width:
        raise ValueError(f"patch {patch} exceeds scene extent {height}x{width}")
    windows = []
    for _ in range(cfg.candidate_crops):
        y0 = rng.randint(height - patch + 1)
        x0 = rng.randint(width - patch + 1)
        windows.append((y0, x0))
    weights = window_weights(
        series_change_fraction(scene.seg_labels), windows, patch, cfg.base_prob
    )
    y0, x0 = windows[_pick_weighted(weights, rng)]
    stamps = _select_timestamps(t_total, cfg.t_train, rng)

    rows = [t - 1 for t in stamps]
    edges = build_edge_set(cfg.edge_kind, len(stamps))
    sl_y, sl_x = slice(y0, y0 + patch), slice(x0, x0 + patch)
    return Sample(
        images=scene.images[rows][:, :, sl_y, sl_x].copy(),
        seg=scene.seg_labels[rows][:, sl_y, sl_x].copy(),
        edges=edges,
        timestamps=stamps,
    )


def apply_geometric(arrays, quarter_turns: int, flip_h: bool, flip_v: bool):
    """Rotate by k*90 degrees then optionally flip, over the last two axes."""
    out = []
    for arr in arrays:
        a = np.rot90(arr, k=quarter_turns % 4, axes=(-2, -1))
        if flip_h:
            a = a[..., ::-1]
        if flip_v:
            a = a[..., ::-1, :]
        out.append(np.ascontiguousarray(a))
    return out


def augment(sample: Sample, rng: SeededRng) -> Sample:
    """One shared geometric transform for images and segmentation labels."""
    k = rng.randint(4)
    flip_h = rng.uniform() < 0.5
    flip_v = rng.uniform() < 0.5
    images, seg = apply_geometric([sample.images, sample.seg], k, flip_h, flip_v)
    return Sample(images=images, seg=seg, edges=sample.edges, timestamps=sample.timestamps)


class AdamW:
    """Adam with decoupled weight decay; the rate is passed per step."""

    def __init__(self, params: dict, weight_decay: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {name: np.zeros_like(p.value) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.value) for name, p in params.items()}
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = p.grad
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            mhat = self.m[name] / (1 - b1 ** self.t)
            vhat = self.v[name] / (1 - b2 ** self.t)
            p.value -= lr * (mhat / (np.sqrt(vhat) + self.eps) + self.weight_decay * p.value)


@dataclass
class TrainResult:
    """The trained model, holding the parameters of its best validation epoch."""

    model: ChangeModel
    best_val_loss: float
    best_epoch: int
    history: list = field(default_factory=list)


def validation_timestamps(t_total: int, t_train: int) -> tuple:
    """Deterministic evenly spaced subset, endpoints always included."""
    idx = np.round(np.linspace(0, t_total - 1, t_train)).astype(int)
    if len(set(idx.tolist())) != t_train:
        raise ValueError(f"cannot spread {t_train} distinct timestamps over {t_total}")
    return tuple(int(i) + 1 for i in idx)


def _scene_loss(model: ChangeModel, scene: Scene, cfg: TrainConfig) -> float:
    stamps = validation_timestamps(scene.t_len, min(cfg.t_train, scene.t_len))
    rows = [t - 1 for t in stamps]
    edges = build_edge_set(cfg.edge_kind, len(stamps))
    seg_y = scene.seg_labels[rows]
    ch_y = XorChanges(seg_y).stack(edges)
    seg_o, ch_o = model.forward(scene.images[rows], edges, keep=False)
    total, _, _, _ = multitask_loss(seg_o, seg_y, ch_o, ch_y)
    return total


def train(
    train_scenes: list,
    val_scenes: list,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
) -> TrainResult:
    if not train_scenes or not val_scenes:
        raise ValueError("need at least one training scene and one validation scene")
    divisor = 2 ** (model_cfg.backbone.scales - 1)
    if cfg.patch_size % divisor:
        raise ValueError(f"patch size {cfg.patch_size} not divisible by {divisor}")
    ## every scene is checked before the first forward, not when it is first drawn
    channels = model_cfg.backbone.in_channels
    for split, scenes in (("training", train_scenes), ("validation", val_scenes)):
        for i, scene in enumerate(scenes, 1):
            t_len, c, h, w = scene.images.shape
            where = f"{split} scene {i} of shape {scene.images.shape}"
            if c != channels:
                raise ValueError(f"{where} has {c} channels, the model takes {channels}")
            if split == "validation" and (h % divisor or w % divisor):
                raise ValueError(f"{where} is not divisible by {divisor}")
            if split == "validation" and t_len < 2:
                raise ValueError(f"{where} has fewer than 2 timestamps")
            if split == "training" and t_len < cfg.t_train:
                raise ValueError(f"{where} has fewer than t_train = {cfg.t_train} timestamps")
            if split == "training" and min(h, w) < cfg.patch_size:
                raise ValueError(f"{where} is smaller than a {cfg.patch_size}-pixel patch")

    model = ChangeModel(model_cfg)
    opt = AdamW(model.named_params(), cfg.weight_decay)
    rng = SeededRng(cfg.seed).derive(_STREAM_SAMPLING)

    history = []
    best_val = np.inf
    best_epoch = -1
    since_best = 0

    for epoch in range(cfg.max_epochs):
        lr = cfg.lr * (1.0 - epoch / cfg.max_epochs)
        for step in range(cfg.steps_per_epoch):
            model.zero_grads()
            losses = []
            for _ in range(cfg.batch_size):
                scene = train_scenes[rng.randint(len(train_scenes))]
                sample = augment(sample_patch(scene, cfg, rng), rng)
                seg_o, ch_o = model.forward(sample.images, sample.edges)
                loss, d_seg, d_ch, _ = multitask_loss(
                    seg_o, sample.seg, ch_o, sample.changes
                )
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss {loss} at epoch {epoch} step {step}"
                    )
                model.backward(d_seg / cfg.batch_size, d_ch / cfg.batch_size)
                losses.append(loss)
            opt.step(lr)
            history.append(
                {
                    "kind": "step",
                    "epoch": epoch,
                    "step": step,
                    "lr": lr,
                    "loss": float(np.mean(losses)),
                }
            )
        val = float(np.mean([_scene_loss(model, s, cfg) for s in val_scenes]))
        if not np.isfinite(val):
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
        history.append({"kind": "epoch", "epoch": epoch, "lr": lr, "val_loss": val})
        ## epoch 0 always sets best_params: a finite val is below inf
        if val < best_val:
            best_val = val
            best_epoch = epoch
            best_params = model.param_values()
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break

    model.load_param_values(best_params)
    return TrainResult(
        model=model,
        best_val_loss=float(best_val),
        best_epoch=best_epoch,
        history=history,
    )
