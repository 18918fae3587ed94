"""Train a desk-scale model end to end on synthetic scenes and score it.

Generates a handful of labeled scenes, trains the full network (optionally
without the temporal refiner), fuses its probabilistic outputs with the
dense Markov mode, and prints change-detection metrics on held-out scenes.
Finishes in a few minutes on a laptop CPU with the defaults.

    python3 scripts/train_desk_demo.py --epochs 30 --no-tfr
"""

import argparse
import sys
import time

import numpy as np

from changeseries import (
    BackboneConfig,
    ModelConfig,
    SceneSpec,
    TemporalConfig,
    TrainConfig,
    build_edge_set,
    evaluate,
    generate,
    integrate,
    save_checkpoint,
    train,
)


def make_scenes(seeds, t_len, size):
    return [
        generate(SceneSpec(seed=s, t_len=t_len, height=size, width=size))
        for s in seeds
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train-seeds", type=int, nargs="+", default=list(range(8)))
    parser.add_argument("--val-seeds", type=int, nargs="+", default=[100, 101])
    parser.add_argument("--t", type=int, default=4)
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--scales", type=int, default=3)
    parser.add_argument("--base-width", type=int, default=8)
    parser.add_argument("--no-tfr", action="store_true", help="drop the temporal refiner")
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--batch-size", type=int, default=2)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--steps-per-epoch", type=int, default=10)
    parser.add_argument("--edge-kind", choices=("adjacent", "cyclic", "dense"), default="dense")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--checkpoint", default=None, help="optional .ckpt output path")
    args = parser.parse_args(argv)

    train_scenes = make_scenes(args.train_seeds, args.t, args.size)
    val_scenes = make_scenes(args.val_seeds, args.t, args.size)

    model_cfg = ModelConfig(
        backbone=BackboneConfig(scales=args.scales, base_width=args.base_width),
        temporal=None if args.no_tfr else TemporalConfig(),
        seed=args.seed,
    )
    cfg = TrainConfig(
        lr=args.lr,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        steps_per_epoch=args.steps_per_epoch,
        patience=args.epochs,
        patch_size=args.size,
        t_train=args.t,
        edge_kind=args.edge_kind,
        seed=args.seed,
    )

    ## stage 1: optimize both heads on change-weighted patches
    start = time.time()
    result = train(train_scenes, val_scenes, model_cfg, cfg)
    print(
        f"trained {len(result.best_params)} tensors in {time.time() - start:.0f}s, "
        f"best val loss {result.best_val_loss:.4f} at epoch {result.best_epoch}"
    )

    ## stage 2: fuse probabilities per held-out scene and score every task
    for i, scene in enumerate(val_scenes):
        edges = build_edge_set("dense", scene.t_len)
        seg_probs, ch_probs = result.model.forward(scene.images, edges, keep=False)
        series = integrate(seg_probs, ch_probs, edges, "dense")
        line = [f"scene {args.val_seeds[i]}:"]
        for task in ("bitemporal", "continuous", "segmentation"):
            report = evaluate(task, series.states, series, scene.seg_labels)
            line.append(f"{task} F1 {report.f1:.4f}")
        print("  ".join(line))

    if args.checkpoint:
        meta = {"model": model_cfg.to_jsonable(), "train": cfg.to_jsonable()}
        save_checkpoint(args.checkpoint, result.best_params, meta)
        print(f"wrote {args.checkpoint}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
