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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .backbone import BackboneConfig, load_checkpoint, save_checkpoint
from .changefeat import EdgeSet, XorChanges, build_edge_set
from .jsonconfig import JsonConfig
from .markov import MODES, integrate
from .model import ChangeModel, ModelConfig
from .objective import TASKS, ThresholdedChanges, evaluate, threshold_probs
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

    def write_manifest(self, payload: dict) -> None:
        payload = dict(payload)
        payload["tool"] = "changeseries"
        payload["version"] = __version__
        payload["command"] = self.command
        with open(self.path("manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

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
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _load_edges(path: str) -> EdgeSet:
    """An edge set file, or a run manifest whose outputs hold one."""
    obj = _load_json(path)
    if "kind" not in obj and isinstance(obj.get("outputs"), dict):
        obj = obj["outputs"].get("edges")
    try:
        return EdgeSet.from_jsonable(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path} does not describe an edge set: {exc}") from exc


def load_scene_dir(path: str) -> Scene:
    """Rebuild a Scene from a synth-gen run directory.

    Only the images and seg_labels rasters are read: change labels are
    derived from seg_labels.
    """
    manifest = _load_json(os.path.join(path, "manifest.json"))
    try:
        spec = SceneSpec.from_jsonable(manifest["config"]["spec"])
        images = os.path.join(path, manifest["outputs"]["images"])
        seg = os.path.join(path, manifest["outputs"]["seg_labels"])
    except KeyError as exc:
        raise CliError(f"{path}: manifest is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: malformed manifest: {exc}") from exc
    return Scene(
        spec=spec, images=read_raster(images), seg_labels=read_raster(seg).astype(np.uint8)
    )


def _load_model(path: str) -> tuple[ChangeModel, TrainConfig]:
    """The checkpointed model and the config it was trained with.

    A checkpoint without a "train" section gets the default TrainConfig,
    whose edge kind and series length are the fallbacks for it.
    """
    meta, values = load_checkpoint(path)
    if not isinstance(meta, dict):
        raise CliError(f"{path}: checkpoint meta is {type(meta).__name__}, not an object")
    try:
        model_cfg = ModelConfig.from_jsonable(meta.get("model"))
        train_cfg = TrainConfig.from_jsonable(meta["train"]) if "train" in meta else TrainConfig()
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    model = ChangeModel(model_cfg)
    model.load_param_values(values)
    return model, train_cfg


## ---------------------------------------------------------------- synth-gen


def _cmd_synth_gen(args) -> int:
    run = RunDir(args.out, "synth-gen")
    spec = SceneSpec(
        seed=args.seed,
        t_len=args.t,
        height=args.height,
        width=args.width,
        channels=args.channels,
        n_buildings=args.buildings,
        min_extent=args.min_extent,
        max_extent=args.max_extent,
        noise_sigma=args.noise_sigma,
        illumination_jitter=args.illumination_jitter,
        demolition_rate=args.demolition_rate,
    )
    scene = generate(spec)
    seg_probs, ch_probs = corrupt_to_probabilities(
        scene, args.seg_noise, args.ch_noise, seed=args.corrupt_seed
    )
    dense = build_edge_set("dense", spec.t_len)
    with run:
        write_raster(run.path("images.rts"), scene.images)
        write_raster(run.path("seg_labels.rts"), scene.seg_labels.astype(np.float64))
        write_raster(run.path("change_labels.rts"), scene.change_stack(dense).astype(np.float64))
        write_raster(run.path("seg_probs.rts"), seg_probs)
        write_raster(run.path("ch_probs.rts"), stack_probs(ch_probs, dense))
        run.write_manifest(
            {
                "config": {
                    "spec": spec.to_jsonable(),
                    "seg_noise": args.seg_noise,
                    "ch_noise": args.ch_noise,
                    "corrupt_seed": args.corrupt_seed,
                },
                "outputs": {
                    "images": "images.rts",
                    "seg_labels": "seg_labels.rts",
                    "change_labels": "change_labels.rts",
                    "seg_probs": "seg_probs.rts",
                    "ch_probs": "ch_probs.rts",
                    "edges": dense.to_jsonable(),
                },
            }
        )
    return 0


## --------------------------------------------------------------------- train


def _model_config_from_args(args, in_channels: int) -> ModelConfig:
    temporal = None
    if args.tfr:
        temporal = TemporalConfig(heads=args.heads, layers=args.attn_layers)
    return ModelConfig(
        backbone=BackboneConfig(
            scales=args.scales,
            base_width=args.base_width,
            in_channels=in_channels,
            use_batchnorm=not args.no_batchnorm,
        ),
        temporal=temporal,
        seed=args.seed,
    )


def _cmd_train(args) -> int:
    run = RunDir(args.out, "train")
    train_scenes = [load_scene_dir(p) for p in args.scenes]
    val_scenes = [load_scene_dir(p) for p in args.val_scenes]
    channels = train_scenes[0].images.shape[1]
    model_cfg = _model_config_from_args(args, channels)
    ## every TrainConfig field is a train flag of the same name
    cfg = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    result = train(train_scenes, val_scenes, model_cfg, cfg)
    with run:
        meta = {
            "model": model_cfg.to_jsonable(),
            "train": cfg.to_jsonable(),
            "best_val_loss": result.best_val_loss,
            "best_epoch": result.best_epoch,
        }
        save_checkpoint(run.path("checkpoint.ckpt"), result.best_params, meta)
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
    seg_probs = read_raster(args.seg_probs)
    ch_probs = None
    available = None
    if args.mode != "degenerate":
        if not args.ch_probs or not args.edges:
            raise CliError(f"mode {args.mode!r} needs --ch-probs and --edges")
        ch_probs = read_raster(args.ch_probs)
        available = _load_edges(args.edges)
    series = integrate(
        seg_probs, ch_probs, available, args.mode, workers=args.workers
    )
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
        with open(run.path("score_summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        run.write_manifest(
            {
                "config": {
                    "seg_probs": os.path.abspath(args.seg_probs),
                    "ch_probs": os.path.abspath(args.ch_probs) if args.ch_probs else None,
                    "edges": os.path.abspath(args.edges) if args.edges else None,
                    "mode": args.mode,
                    "workers": args.workers,
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
    return read_raster(path).astype(np.uint8)


def _format_table(reports: list) -> str:
    lines = [f"{'task':<14} {'f1':>9} {'iou':>9} {'micro_f1':>9} {'micro_iou':>9}"]
    for r in reports:
        lines.append(
            f"{r.task:<14} {r.f1:>9.6f} {r.iou:>9.6f} {r.micro_f1:>9.6f} {r.micro_iou:>9.6f}"
        )
    return "\n".join(lines)


def _cmd_eval(args) -> int:
    run = RunDir(args.out, "eval")
    true_seg = _load_truth(args.labels)
    if args.pred_states:
        states = read_raster(args.pred_states).astype(np.uint8)
        pred_seg, pred_change = states, XorChanges(states)
        source = {"pred_states": os.path.abspath(args.pred_states)}
    else:
        if not (args.seg_probs and args.ch_probs and args.edges):
            raise CliError("eval needs --pred-states or (--seg-probs, --ch-probs, --edges)")
        seg_probs = read_raster(args.seg_probs)
        ch_probs = read_raster(args.ch_probs)
        edges = _load_edges(args.edges)
        pred_seg = threshold_probs(seg_probs)
        pred_change = ThresholdedChanges(ch_probs, edges)
        source = {
            "seg_probs": os.path.abspath(args.seg_probs),
            "ch_probs": os.path.abspath(args.ch_probs),
            "edges": os.path.abspath(args.edges),
        }
    tasks = list(TASKS) if args.task == "all" else [args.task]
    reports = [evaluate(task, pred_seg, pred_change, true_seg) for task in tasks]
    print(_format_table(reports))
    with run:
        with open(run.path("report.json"), "w", encoding="utf-8") as fh:
            json.dump([r.to_jsonable() for r in reports], fh, indent=2, sort_keys=True)
            fh.write("\n")
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
        for mode in self.mti_modes:
            if mode not in MODES:
                raise ValueError(f"unknown fusion mode {mode!r}")


@dataclass(frozen=True)
class ScenesConfig(JsonConfig):
    """Scene directories if any are named, else scenes generated from spec per seed."""

    spec: SceneSpec = field(default_factory=SceneSpec)
    t: int | None = None
    train_seeds: tuple[int, ...] = ()
    val_seeds: tuple[int, ...] = ()
    train_dirs: tuple[str, ...] = ()
    val_dirs: tuple[str, ...] = ()

    def names(self, split: str) -> tuple:
        """The directories or else the seeds of the "train" or "val" split."""
        kind = "dirs" if self.train_dirs or self.val_dirs else "seeds"
        return getattr(self, f"{split}_{kind}")

    def load(self, split: str, t_len: int) -> list[Scene]:
        spec = replace(self.spec, t_len=t_len)
        return [
            load_scene_dir(n) if isinstance(n, str) else generate(replace(spec, seed=n))
            for n in self.names(split)
        ]


@dataclass(frozen=True)
class AblateConfig(JsonConfig):
    grid: GridConfig = field(default_factory=GridConfig)
    model: BackboneConfig = field(default_factory=BackboneConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    scenes: ScenesConfig = field(default_factory=ScenesConfig)
    checkpoint: str | None = None
    workers: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

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
        if cfg.checkpoint is None:
            if not cfg.scenes.names("train"):
                raise ValueError("scenes name no training scene")
            cfg.cells(cfg.model.in_channels)  # every cell's configs check themselves
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    return cfg, raw


def _mode_feasible(mode: str, kind: str, t_len: int) -> bool:
    have = set(build_edge_set(kind, t_len).edges)
    return mode == "degenerate" or have.issuperset(build_edge_set(mode, t_len).edges)


def _ablate_eval_rows(model, kind, modes, val_scenes, workers) -> list:
    """One row per mode, averaged over the scenes; each scene is forwarded once."""
    t_len = val_scenes[0].t_len
    metrics = {mode: {} for mode in modes if _mode_feasible(mode, kind, t_len)}
    for scene in val_scenes if metrics else ():
        edges = build_edge_set(kind, scene.t_len)
        seg_probs, ch_probs = model.forward(scene.images, edges, keep=False)
        for mode, values in metrics.items():
            series = integrate(seg_probs, ch_probs, edges, mode, workers=workers)
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


def _cmd_ablate(args) -> int:
    run = RunDir(args.out, "ablate")
    cfg, raw = load_ablate_config(args.config)
    modes, workers = cfg.grid.mti_modes, cfg.workers
    rows = []

    if cfg.checkpoint is not None:
        model, train_cfg = _load_model(cfg.checkpoint)
        kind = train_cfg.edge_kind
        t_len = train_cfg.t_train if cfg.scenes.t is None else cfg.scenes.t
        cell = {"checkpoint": cfg.checkpoint, "edge_kind": kind}
        for row in _ablate_eval_rows(model, kind, modes, cfg.scenes.load("val", t_len), workers):
            rows.append({**cell, **row})
    else:
        for t_len in cfg.grid.t:
            train_scenes = cfg.scenes.load("train", t_len)
            val_scenes = cfg.scenes.load("val", t_len)
            channels = train_scenes[0].images.shape[1]
            for kind, use_tfr, model_cfg, train_cfg in cfg.cells(channels)[t_len]:
                result = train(train_scenes, val_scenes, model_cfg, train_cfg)
                names = sorted(result.best_params)
                cell = {"t": t_len, "loss_edges": kind, "tfr": use_tfr, "n_params": len(names),
                        "attention_params": sum(n.startswith("temporal.") for n in names),
                        "best_val_loss": result.best_val_loss}
                for row in _ablate_eval_rows(result.model, kind, modes, val_scenes, workers):
                    rows.append({**cell, **row})

    columns = list(dict.fromkeys(key for row in rows for key in row))
    with run:
        with open(run.path("table.json"), "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=int, default=4)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--buildings", type=int, default=12)
    p.add_argument("--min-extent", type=int, default=6)
    p.add_argument("--max-extent", type=int, default=14)
    p.add_argument("--noise-sigma", type=float, default=0.03)
    p.add_argument("--illumination-jitter", type=float, default=0.06)
    p.add_argument("--demolition-rate", type=float, default=0.0)
    p.add_argument("--seg-noise", type=float, default=0.0, help="label corruption sigma")
    p.add_argument("--ch-noise", type=float, default=0.0)
    p.add_argument("--corrupt-seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_synth_gen)

    p = sub.add_parser("train", help="train a model on scene directories")
    p.add_argument("--scenes", nargs="+", required=True)
    p.add_argument("--val-scenes", nargs="+", required=True)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--weight-decay", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--max-epochs", type=int, default=100)
    p.add_argument("--steps-per-epoch", type=int, default=10)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--patch-size", type=int, default=64)
    p.add_argument("--candidate-crops", type=int, default=20)
    p.add_argument("--base-prob", type=float, default=0.05)
    p.add_argument("--t-train", type=int, default=4)
    p.add_argument("--edge-kind", choices=("adjacent", "cyclic", "dense"), default="dense")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scales", type=int, default=3)
    p.add_argument("--base-width", type=int, default=8)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--attn-layers", type=int, default=2)
    p.add_argument("--no-batchnorm", action="store_true")
    tfr = p.add_mutually_exclusive_group()
    tfr.add_argument("--tfr", dest="tfr", action="store_true", default=True)
    tfr.add_argument("--no-tfr", dest="tfr", action="store_false")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", help="run a checkpoint over an image series")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--edge-kind", choices=("adjacent", "cyclic", "dense"), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("integrate", help="fuse probabilistic outputs into binary maps")
    p.add_argument("--seg-probs", required=True)
    p.add_argument("--ch-probs", default=None)
    p.add_argument("--edges", default=None, help="JSON file describing ch-probs rows")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--workers", type=int, default=1)
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
    if getattr(args, "corrupt_seed", "absent") is None:
        args.corrupt_seed = args.seed + 1
    try:
        return args.func(args)
    except (CliError, ValueError, KeyError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
