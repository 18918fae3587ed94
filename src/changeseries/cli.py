"""Single executable covering the whole pipeline.

Subcommands: synth-gen, train, infer, integrate, eval, ablate.  Every run
writes its outputs under one directory with a JSON manifest at the root;
the manifest echoes the tool version, the subcommand, and the complete
effective configuration, so any run can be replayed from the manifest
alone.  Commands exit nonzero on validation failures and remove whatever
partial outputs they created first.

If --out is omitted, the CHANGESERIES_OUT environment variable provides
the parent directory and the subcommand names the run folder.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .backbone import BackboneConfig, load_checkpoint, save_checkpoint
from .changefeat import EDGE_KINDS, EdgeSet, PairMaps, XorChanges, build_edge_set
from .jsonconfig import JsonConfig
from .markov import MODES, T_MAX, integrate
from .model import ChangeModel, ModelConfig, check_records
from .objective import TASKS, check_binary, evaluate, threshold_probs
from .synthgen import Scene, SceneSpec, corrupt_to_probabilities, generate, stack_probs
from .temporal import TemporalConfig
from .tensor import export_pgm, read_raster, write_raster
from .trainer import TrainConfig, TrainingDiverged, train

ENV_OUT = "CHANGESERIES_OUT"


class CliError(ValueError):
    pass


class RunDir:
    """Tracks output files so a failed command leaves nothing behind."""

    def __init__(self, out: str | None, command: str):
        if out is None:
            base = os.environ.get(ENV_OUT)
            if not base:
                raise CliError(f"--out not given and {ENV_OUT} is not set")
            out = os.path.join(base, command)
        self.root = os.path.abspath(out)
        self.command = command
        self._created = not os.path.isdir(self.root)
        self._written: list[str] = []

    def __enter__(self) -> "RunDir":
        os.makedirs(self.root, exist_ok=True)
        return self

    def path(self, name: str) -> str:
        p = os.path.join(self.root, name)
        self._written.append(p)
        return p

    def write_json(self, name: str, obj) -> None:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_manifest(self, payload: dict) -> None:
        self.write_json("manifest.json", {**payload, "tool": "changeseries",
                                          "version": __version__, "command": self.command})

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            if self._created:
                shutil.rmtree(self.root, ignore_errors=True)
            else:
                for p in self._written:
                    if os.path.exists(p):
                        os.unlink(p)
        return False


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _load_edges(path: str, seg_path: str, seg_probs: np.ndarray) -> EdgeSet:
    """The edge set over seg_probs' timestamps in an edge set file, or in a
    run manifest whose outputs hold one.

    The file's t is compared with seg_probs' T before its edge list is
    built, so a file naming a far longer series cannot fill memory.
    """
    if seg_probs.ndim != 3:
        raise CliError(f"{seg_path}: shape {seg_probs.shape} is not (T, H, W)")
    obj = _load_json(path)
    if "kind" not in obj and isinstance(obj.get("outputs"), dict):
        obj = obj["outputs"].get("edges")
    if isinstance(obj, dict) and type(obj.get("t")) is int and obj["t"] != len(seg_probs):
        raise CliError(f"{path} describes an edge set over T = {obj['t']}, "
                       f"but {seg_path} has T = {len(seg_probs)}")
    try:
        return EdgeSet.from_jsonable(obj)
    except ValueError as exc:
        raise CliError(f"{path} does not describe an edge set: {exc}") from exc


def _read_states(path: str) -> np.ndarray:
    """A raster of binary states or labels as uint8; any value but 0 or 1 is refused."""
    values = read_raster(path)
    try:
        check_binary(values, "a state raster")
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    return values.astype(np.uint8)


def _read_probs(path: str) -> np.ndarray:
    """A raster of probabilities; any value outside [0, 1] is refused."""
    values = read_raster(path)
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise CliError(f"{path}: probabilities must lie in [0, 1], found values in "
                       f"[{values.min():g}, {values.max():g}]")
    return values


def load_scene_dir(path: str) -> Scene:
    """Rebuild a Scene from a synth-gen run directory.

    Only the images and seg_labels rasters are read: change labels are
    derived from seg_labels.  Images must be (T, C, H, W) over binary
    labels of (T, H, W).
    """
    manifest = _load_json(os.path.join(path, "manifest.json"))
    try:
        spec = SceneSpec.from_jsonable(manifest["config"]["spec"])
        images_path = os.path.join(path, manifest["outputs"]["images"])
        seg_path = os.path.join(path, manifest["outputs"]["seg_labels"])
    except KeyError as exc:
        raise CliError(f"{path}: manifest is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: malformed manifest: {exc}") from exc
    images, seg = read_raster(images_path), _read_states(seg_path)
    if images.ndim != 4 or seg.shape != images.shape[:1] + images.shape[2:]:
        raise CliError(
            f"{images_path}: images of shape {images.shape} do not fit labels of shape "
            f"{seg.shape} in {seg_path}; expected (T, C, H, W) over (T, H, W)"
        )
    return Scene(spec=spec, images=images, seg_labels=seg)


def _load_model(path: str) -> tuple[ChangeModel, TrainConfig]:
    """The checkpointed model and the config it was trained with.

    A checkpoint without a "train" section gets the default TrainConfig,
    whose edge kind and series length are the fallbacks for it.  The model
    section is held against the records before the model is built.
    """
    meta, values = load_checkpoint(path)
    if not isinstance(meta, dict):
        raise CliError(f"{path}: checkpoint meta is {type(meta).__name__}, not an object")
    try:
        model_cfg = ModelConfig.from_jsonable(meta.get("model"))
        train_cfg = TrainConfig.from_jsonable(meta["train"]) if "train" in meta else TrainConfig()
        check_records(model_cfg, values)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    model = ChangeModel(model_cfg)
    model.load_param_values(values)
    return model, train_cfg


## ---------------------------------------------------------------- synth-gen


def _cmd_synth_gen(args) -> int:
    run = RunDir(args.out, "synth-gen")
    spec = SceneSpec.from_args(args)
    corrupt_seed = spec.seed + 1 if args.corrupt_seed is None else args.corrupt_seed
    scene = generate(spec)
    seg_probs, ch_probs = corrupt_to_probabilities(
        scene, args.seg_noise, args.ch_noise, seed=corrupt_seed
    )
    dense = build_edge_set("dense", spec.t_len)
    with run:
        write_raster(run.path("images.rts"), scene.images)
        write_raster(run.path("seg_labels.rts"), scene.seg_labels.astype(np.float64))
        write_raster(run.path("seg_probs.rts"), seg_probs)
        write_raster(run.path("ch_probs.rts"), stack_probs(ch_probs, dense))
        run.write_manifest(
            {
                "config": {
                    "spec": spec.to_jsonable(),
                    "seg_noise": args.seg_noise,
                    "ch_noise": args.ch_noise,
                    "corrupt_seed": corrupt_seed,
                },
                "outputs": {
                    "images": "images.rts",
                    "seg_labels": "seg_labels.rts",
                    "seg_probs": "seg_probs.rts",
                    "ch_probs": "ch_probs.rts",
                    "edges": dense.to_jsonable(),
                },
            }
        )
    return 0


## --------------------------------------------------------------------- train


def _model_config_from_args(args, in_channels: int) -> ModelConfig:
    backbone = replace(BackboneConfig.from_args(args), in_channels=in_channels,
                       use_batchnorm=not args.no_batchnorm)
    temporal = TemporalConfig.from_args(args)  # checks the refiner flags with --no-tfr too
    return ModelConfig(backbone, temporal if args.tfr else None, args.seed)


def _cmd_train(args) -> int:
    run = RunDir(args.out, "train")
    train_scenes = [load_scene_dir(p) for p in args.scenes]
    val_scenes = [load_scene_dir(p) for p in args.val_scenes]
    channels = train_scenes[0].images.shape[1]
    model_cfg = _model_config_from_args(args, channels)
    cfg = TrainConfig.from_args(args)
    result = train(train_scenes, val_scenes, model_cfg, cfg)
    with run:
        meta = {
            "model": model_cfg.to_jsonable(),
            "train": cfg.to_jsonable(),
            "best_val_loss": result.best_val_loss,
            "best_epoch": result.best_epoch,
        }
        save_checkpoint(run.path("checkpoint.ckpt"), result.model.param_values(), meta)
        with open(run.path("train_log.jsonl"), "w", encoding="utf-8") as fh:
            for record in result.history:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        run.write_manifest(
            {
                "config": {
                    "model": model_cfg.to_jsonable(),
                    "train": cfg.to_jsonable(),
                    "scenes": [os.path.abspath(p) for p in args.scenes],
                    "val_scenes": [os.path.abspath(p) for p in args.val_scenes],
                },
                "outputs": {
                    "checkpoint": "checkpoint.ckpt",
                    "train_log": "train_log.jsonl",
                    "best_val_loss": result.best_val_loss,
                    "best_epoch": result.best_epoch,
                },
            }
        )
    return 0


## --------------------------------------------------------------------- infer


def _cmd_infer(args) -> int:
    run = RunDir(args.out, "infer")
    model, train_cfg = _load_model(args.checkpoint)
    images = read_raster(args.images)
    if images.ndim != 4:
        raise CliError(f"{args.images}: expected (T, C, H, W), got rank {images.ndim}")
    kind = args.edge_kind or train_cfg.edge_kind
    edges = build_edge_set(kind, images.shape[0])
    seg_probs, ch_probs = model.forward(images, edges, keep=False)
    with run:
        write_raster(run.path("seg_probs.rts"), seg_probs)
        write_raster(run.path("ch_probs.rts"), ch_probs)
        run.write_manifest(
            {
                "config": {
                    "checkpoint": os.path.abspath(args.checkpoint),
                    "images": os.path.abspath(args.images),
                    "edge_kind": kind,
                },
                "outputs": {
                    "seg_probs": "seg_probs.rts",
                    "ch_probs": "ch_probs.rts",
                    "edges": edges.to_jsonable(),
                },
            }
        )
    return 0


## ----------------------------------------------------------------- integrate


def _cmd_integrate(args) -> int:
    run = RunDir(args.out, "integrate")
    seg_probs = _read_probs(args.seg_probs)
    ch_probs = None
    available = None
    if args.mode != "degenerate":
        if not args.ch_probs or not args.edges:
            raise CliError(f"mode {args.mode!r} needs --ch-probs and --edges")
        ch_probs = _read_probs(args.ch_probs)
        available = _load_edges(args.edges, args.seg_probs, seg_probs)
    series = integrate(seg_probs, ch_probs, available, args.mode)
    with run:
        write_raster(run.path("states.rts"), series.states.astype(np.float64))
        for t in range(series.t_len):
            export_pgm(run.path(f"states_t{t + 1}.pgm"), series.states[t].astype(np.float64))
        change_files = {}
        for t, k in series.edges.edges if series.edges is not None else ():
            name = f"change_{t}_{k}.pgm"
            export_pgm(run.path(name), series[(t, k)].astype(np.float64))
            change_files[f"{t},{k}"] = name
        summary = {
            "mode": series.mode,
            "mean_log_score": float(series.map_score.mean()),
            "min_log_score": float(series.map_score.min()),
            "max_log_score": float(series.map_score.max()),
        }
        run.write_json("score_summary.json", summary)
        run.write_manifest(
            {
                "config": {
                    "seg_probs": os.path.abspath(args.seg_probs),
                    "ch_probs": os.path.abspath(args.ch_probs) if args.ch_probs else None,
                    "edges": os.path.abspath(args.edges) if args.edges else None,
                    "mode": args.mode,
                },
                "outputs": {
                    "states": "states.rts",
                    "score_summary": "score_summary.json",
                    "change_maps": change_files,
                    "edges": series.edges.to_jsonable() if series.edges else None,
                },
            }
        )
    return 0


## ---------------------------------------------------------------------- eval


def _load_truth(path: str) -> np.ndarray:
    if os.path.isdir(path):
        scene = load_scene_dir(path)
        return scene.seg_labels
    return _read_states(path)


def _format_table(reports: list) -> str:
    lines = [f"{'task':<14} {'f1':>9} {'iou':>9} {'micro_f1':>9} {'micro_iou':>9}"]
    for r in reports:
        lines.append(
            f"{r.task:<14} {r.f1:>9.6f} {r.iou:>9.6f} {r.micro_f1:>9.6f} {r.micro_iou:>9.6f}"
        )
    return "\n".join(lines)


def _cmd_eval(args) -> int:
    run = RunDir(args.out, "eval")
    probs = (args.seg_probs, args.ch_probs, args.edges)
    if (any(probs) if args.pred_states else not all(probs)):
        raise CliError("eval needs --pred-states or else --seg-probs, --ch-probs and --edges")
    true_seg = _load_truth(args.labels)
    if args.pred_states:
        pred_path = args.pred_states
        states = _read_states(pred_path)
        if states.ndim != 3:
            raise CliError(f"{pred_path}: expected (T, H, W), got rank {states.ndim}")
        if len(states) < 2:
            raise CliError(f"{pred_path}: {len(states)} timestamp, eval needs at least 2")
        pred_seg, pred_change = states, XorChanges(states)
        source = {"pred_states": os.path.abspath(args.pred_states)}
    else:
        seg_probs = _read_probs(args.seg_probs)
        ch_probs = _read_probs(args.ch_probs)
        edges = _load_edges(args.edges, args.seg_probs, seg_probs)
        rows = (len(edges), *seg_probs.shape[1:])
        if ch_probs.shape != rows:
            raise CliError(f"{args.ch_probs}: shape {ch_probs.shape}, expected {rows}, "
                           f"one row per edge of {args.edges}")
        pred_path, pred_seg = args.seg_probs, threshold_probs(seg_probs)
        pred_change = PairMaps(edges, lambda n, t, k: threshold_probs(ch_probs[n]))
        source = {
            "seg_probs": os.path.abspath(args.seg_probs),
            "ch_probs": os.path.abspath(args.ch_probs),
            "edges": os.path.abspath(args.edges),
        }
    if pred_seg.shape != true_seg.shape:
        raise CliError(f"{pred_path}: shape {pred_seg.shape} does not match the labels' "
                       f"{true_seg.shape} in {args.labels}")
    tasks = list(TASKS) if args.task == "all" else [args.task]
    reports = [evaluate(task, pred_seg, pred_change, true_seg) for task in tasks]
    print(_format_table(reports))
    with run:
        run.write_json("report.json", [r.to_jsonable() for r in reports])
        run.write_manifest(
            {
                "config": {
                    "labels": os.path.abspath(args.labels),
                    "task": args.task,
                    **source,
                },
                "outputs": {"report": "report.json"},
            }
        )
    return 0


## -------------------------------------------------------------------- ablate


@dataclass(frozen=True)
class GridConfig(JsonConfig):
    mti_modes: tuple[str, ...] = ("degenerate", "dense")
    t: tuple[int, ...] = (4,)
    loss_edges: tuple[str, ...] = ("dense",)
    tfr: tuple[bool, ...] = (True,)

    def __post_init__(self):
        for name in ("mti_modes", "t", "loss_edges", "tfr"):
            if not getattr(self, name):
                raise ValueError(f"grid {name} lists nothing")
        for mode in self.mti_modes:
            if mode not in MODES:
                raise ValueError(f"unknown fusion mode {mode!r}")
        ## dense fusion enumerates 2^t assignments and refuses t > T_MAX
        if "dense" in self.mti_modes and max(self.t) > T_MAX:
            raise ValueError(f"grid mti_modes dense caps t at {T_MAX}, got t {max(self.t)}")


@dataclass(frozen=True)
class ScenesConfig(JsonConfig):
    """Scene directories if any are named, else scenes generated from spec per seed."""

    spec: SceneSpec = field(default_factory=SceneSpec)
    train_seeds: tuple[int, ...] = ()
    val_seeds: tuple[int, ...] = ()
    train_dirs: tuple[str, ...] = ()
    val_dirs: tuple[str, ...] = ()

    @property
    def from_dirs(self) -> bool:
        return bool(self.train_dirs or self.val_dirs)

    def names(self, split: str) -> tuple:
        """The directories or else the seeds of the "train" or "val" split."""
        return getattr(self, f"{split}_{'dirs' if self.from_dirs else 'seeds'}")

    def load(self, split: str, t_len: int | None = None) -> list[Scene]:
        """The split's scene directories as stored, or its seeds generated at t_len."""
        if self.from_dirs:
            return [load_scene_dir(n) for n in self.names(split)]
        spec = replace(self.spec, t_len=t_len)
        return [generate(replace(spec, seed=n)) for n in self.names(split)]


@dataclass(frozen=True)
class CorruptConfig(JsonConfig):
    """Corrupted truth in place of a model: one grid cell per seg_sigma."""

    seg_sigma: tuple[float, ...]
    ch_sigma: float

    def __post_init__(self):
        if not self.seg_sigma:
            raise ValueError("corrupt seg_sigma lists nothing")
        for name, sigmas in (("seg_sigma", self.seg_sigma), ("ch_sigma", (self.ch_sigma,))):
            if not all(sigma >= 0 for sigma in sigmas):
                raise ValueError(f"corruption sigmas must be >= 0, got {name} {list(sigmas)}")


@dataclass(frozen=True)
class AblateConfig(JsonConfig):
    grid: GridConfig = field(default_factory=GridConfig)
    model: BackboneConfig = field(default_factory=BackboneConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    scenes: ScenesConfig = field(default_factory=ScenesConfig)
    checkpoint: str | None = None
    corrupt: CorruptConfig | None = None
    seed: int = 0

    def cells(self, in_channels: int) -> dict:
        """t -> [(loss edge kind, refiner on, ModelConfig, TrainConfig)], one per grid cell."""
        backbone = replace(self.model, in_channels=in_channels)
        return {
            t: [
                (kind, tfr, ModelConfig(backbone, TemporalConfig() if tfr else None, self.seed),
                 replace(self.train, t_train=t, edge_kind=kind, seed=self.seed))
                for kind in self.grid.loss_edges
                for tfr in self.grid.tfr
            ]
            for t in self.grid.t
        }


def load_ablate_config(path: str) -> tuple[AblateConfig, dict]:
    """The grid file, checked whole before any scene or model exists, and its raw JSON."""
    raw = _load_json(path)
    try:
        cfg = AblateConfig.from_partial(raw)
        if not cfg.scenes.names("val"):
            raise ValueError("scenes name no validation scene")
        if cfg.corrupt is not None and cfg.checkpoint is not None:
            raise ValueError("checkpoint and corrupt exclude each other")
        if cfg.corrupt is None and cfg.checkpoint is None:
            if not cfg.scenes.names("train"):
                raise ValueError("scenes name no training scene")
            cfg.cells(cfg.model.in_channels)  # every cell's configs check themselves
        else:
            for t in cfg.grid.t:
                replace(cfg.scenes.spec, t_len=t)  # every series length checks itself
        _refuse_unread(cfg)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    return cfg, raw


def _refuse_unread(cfg: AblateConfig) -> None:
    """Refuse settings the grid never reads, each named by its key.

    A corrupt or checkpoint grid trains nothing, and scene directories take
    the place of seeds and spec.  Parsed values are held against the
    defaults, so a key that restates its default passes.
    """
    default, scenes = AblateConfig(), cfg.scenes
    reasons, named = [], set()
    if cfg.corrupt is not None or cfg.checkpoint is not None:
        keys = [k for k in ("model", "train", "seed") if getattr(cfg, k) != getattr(default, k)]
        keys += [f"grid.{k}" for k in ("loss_edges", "tfr")
                 if getattr(cfg.grid, k) != getattr(default.grid, k)]
        keys += [f"scenes.{k}" for k in ("train_seeds", "train_dirs") if getattr(scenes, k)]
        if keys:
            mode = "corrupt" if cfg.corrupt is not None else "checkpoint"
            reasons.append(f"a {mode} grid trains no model and reads no {', '.join(keys)}")
            named.update(keys)
    if scenes.from_dirs:
        keys = [f"scenes.{k}" for k in ("train_seeds", "val_seeds") if getattr(scenes, k)]
        keys += ["scenes.spec"] if scenes.spec != default.scenes.spec else []
        keys = [k for k in keys if k not in named]
        if keys:
            reasons.append(f"scene directories replace {', '.join(keys)}")
    if reasons:
        raise ValueError("; ".join(reasons))


def _mode_feasible(mode: str, kind: str, t_len: int) -> bool:
    have = set(build_edge_set(kind, t_len).edges)
    return mode == "degenerate" or have.issuperset(build_edge_set(mode, t_len).edges)


def _ablate_eval_rows(probs, kind, modes, val_scenes) -> list:
    """One row per mode, averaged over the scenes; probs(scene, edges) gives each
    scene's segmentation and change probabilities once.  A mode runs only if
    kind holds its edges at every scene's length."""
    metrics = {mode: {} for mode in modes
               if all(_mode_feasible(mode, kind, scene.t_len) for scene in val_scenes)}
    for scene in val_scenes if metrics else ():
        edges = build_edge_set(kind, scene.t_len)
        seg_probs, ch_probs = probs(scene, edges)
        for mode, values in metrics.items():
            series = integrate(seg_probs, ch_probs, edges, mode)
            for task in TASKS:
                report = evaluate(task, series.states, series, scene.seg_labels)
                values.setdefault(f"{task}_f1", []).append(report.f1)
                values.setdefault(f"{task}_iou", []).append(report.iou)
    return [
        {"mode": mode, **{k: float(np.mean(v)) for k, v in metrics[mode].items()}}
        if mode in metrics
        else {"mode": mode, "skipped": f"{mode} edges exceed trained kind {kind}"}
        for mode in modes
    ]


def _forward(model):
    return lambda scene, edges: model.forward(scene.images, edges, keep=False)


def _cmd_ablate(args) -> int:
    run = RunDir(args.out, "ablate")
    cfg, raw = load_ablate_config(args.config)
    training = cfg.corrupt is None and cfg.checkpoint is None
    stored_train = stored_val = None
    ## stored series are used as stored: a training grid draws each grid t's
    ## timestamps from them, the other modes evaluate the validation series whole
    if cfg.scenes.from_dirs:
        stored_train = cfg.scenes.load("train") if training else None
        stored_val = cfg.scenes.load("val")
        if training:
            shortest = min(scene.t_len for scene in stored_train)
            bad = [t for t in cfg.grid.t if t > shortest]
            rule = f"exceeds the shortest training series, {shortest}"
        else:
            lengths = sorted({scene.t_len for scene in stored_val})
            bad = [t for t in cfg.grid.t if lengths != [t]]
            rule = f"differs from the stored validation series, {', '.join(map(str, lengths))}"
        if bad:
            raise CliError(f"grid t {bad} {rule} timestamps")

    if cfg.corrupt is not None:
        ch_sigma = cfg.corrupt.ch_sigma

        def cells(t_len, val_scenes):
            for sigma in cfg.corrupt.seg_sigma:
                def probs(scene, edges):
                    seg, ch = corrupt_to_probabilities(scene, sigma, ch_sigma, scene.spec.seed + 1)
                    return seg, stack_probs(ch, edges)
                yield {"seg_sigma": sigma, "ch_sigma": ch_sigma}, "dense", probs
    elif cfg.checkpoint is not None:
        model, train_cfg = _load_model(cfg.checkpoint)
        kind = train_cfg.edge_kind

        def cells(t_len, val_scenes):
            yield {"checkpoint": cfg.checkpoint, "edge_kind": kind}, kind, _forward(model)
    else:
        def cells(t_len, val_scenes):
            train_scenes = stored_train or cfg.scenes.load("train", t_len)
            channels = train_scenes[0].images.shape[1]
            for kind, use_tfr, model_cfg, train_cfg in cfg.cells(channels)[t_len]:
                result = train(train_scenes, val_scenes, model_cfg, train_cfg)
                params = result.model.named_params()
                yield ({"loss_edges": kind, "tfr": use_tfr, "n_params": len(params),
                        "attention_params": sum(n.startswith("temporal.") for n in params),
                        "best_val_loss": result.best_val_loss},
                       kind, _forward(result.model))

    rows = []
    for t_len in cfg.grid.t:
        val_scenes = stored_val or cfg.scenes.load("val", t_len)
        for cell, kind, probs in cells(t_len, val_scenes):
            for row in _ablate_eval_rows(probs, kind, cfg.grid.mti_modes, val_scenes):
                rows.append({"t": t_len, **cell, **row})

    columns = list(dict.fromkeys(key for row in rows for key in row))
    with run:
        run.write_json("table.json", rows)
        with open(run.path("table.csv"), "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)
        run.write_manifest(
            {
                "config": {"ablate": raw, "config_path": os.path.abspath(args.config)},
                "outputs": {"table_json": "table.json", "table_csv": "table.csv"},
            }
        )
    print(json.dumps(rows, indent=2, sort_keys=True))
    return 0


## -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="changeseries",
        description="Continuous building-change detection over image time series.",
    )
    parser.add_argument("--version", action="version", version=f"changeseries {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth-gen", help="render a synthetic labeled scene")
    SceneSpec.add_flags(p)
    p.add_argument("--seg-noise", type=float, default=0.0, help="label corruption sigma")
    p.add_argument("--ch-noise", type=float, default=0.0)
    p.add_argument("--corrupt-seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_synth_gen)

    p = sub.add_parser("train", help="train a model on scene directories")
    p.add_argument("--scenes", nargs="+", required=True)
    p.add_argument("--val-scenes", nargs="+", required=True)
    TrainConfig.add_flags(p)
    BackboneConfig.add_flags(p)
    TemporalConfig.add_flags(p)
    p.add_argument("--no-batchnorm", action="store_true")
    tfr = p.add_mutually_exclusive_group()
    tfr.add_argument("--tfr", dest="tfr", action="store_true", default=True)
    tfr.add_argument("--no-tfr", dest="tfr", action="store_false")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", help="run a checkpoint over an image series")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--edge-kind", choices=EDGE_KINDS, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("integrate", help="fuse probabilistic outputs into binary maps")
    p.add_argument("--seg-probs", required=True)
    p.add_argument("--ch-probs", default=None)
    p.add_argument("--edges", default=None, help="JSON file describing ch-probs rows")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred-states", default=None)
    p.add_argument("--seg-probs", default=None)
    p.add_argument("--ch-probs", default=None)
    p.add_argument("--edges", default=None)
    p.add_argument("--labels", required=True, help="scene directory or seg_labels raster")
    p.add_argument("--task", choices=TASKS + ("all",), default="all")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run a small configuration grid")
    p.add_argument("--config", required=True, help="JSON grid description")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ## overflow to inf or NaN is not a warning here: each command refuses
        ## a non-finite result itself with one error line, or clips it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    ## numpy raises a MemoryError subclass for an allocation that cannot be met
    except (CliError, ValueError, KeyError, OSError, MemoryError, TrainingDiverged) as exc:
        ## a MemoryError from Python's own allocator has no text: name its type
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
