"""The three workloads: set-up, one pass, and the checks on its outputs.

A workload object is built from the run's seed.  setup(work_dir) makes the
inputs and returns them; run_pass(inputs, pass_dir, tally, tracer) performs
one pass, timing each operation into a dict, and checks every output.
Checks run outside the timed regions and, in a traced run, outside tracing.
rates(medians) turns median operation times into the per-operation rates.
Workloads that run the network also give probe_input(inputs): the images
and edges of one forward pass of the workload's size.

Operations are training steps, subcommand calls and integrate calls.  One
fails when it raises, exits nonzero or fails its check; a failed check also
makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

import reference as ref

import changeseries as cs
from changeseries import cli
from changeseries.synthgen import stack_probs


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def fail(self, ops: int, what: str) -> None:
        """Record operations that raised, exited nonzero or could not run."""
        self.failed += ops
        self.problems.append(what)

    def check(self, ok, ops: int, what: str) -> bool:
        """Record a check on the outputs of `ops` operations."""
        if not ok:
            self.failed += ops
            self.correct = False
            self.problems.append(what)
        return bool(ok)

    def timed(self, timings: dict, key: str, ops: int, fn, *args, **kwargs):
        """Attempt `ops` operations through fn; returns fn's result or None."""
        self.attempted += ops
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises counts as failed
            self.fail(ops, f"{key}: {type(exc).__name__}: {exc}")
            return None
        finally:
            timings[key] = time.perf_counter() - start
        return out


def run_cli(argv: list[str]) -> int:
    """changeseries.cli.main in process, its stdout kept off ours; raises on a nonzero exit."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"{argv[0]} exited {rc}")
    return rc


def pixel_sample(seed: int, n_pix: int, count: int) -> np.ndarray:
    return np.sort(np.random.default_rng(seed).choice(n_pix, size=min(count, n_pix), replace=False))


def threshold(seg_probs: np.ndarray) -> np.ndarray:
    return (seg_probs > 0.5).astype(np.uint8)


## ---------------------------------------------------------------- train-desk


class TrainDesk:
    """train() at the criterion-8 desk configuration for a fixed step count."""

    name = "train-desk"
    EPOCHS, STEPS_PER_EPOCH, BATCH, T, SIZE = 2, 4, 2, 4, 64
    STEPS = EPOCHS * STEPS_PER_EPOCH

    def __init__(self, seed: int):
        self.seed = seed
        self.model_cfg = cs.ModelConfig(
            backbone=cs.BackboneConfig(), temporal=cs.TemporalConfig(), seed=seed
        )
        self.train_cfg = cs.TrainConfig(
            lr=1e-3,
            batch_size=self.BATCH,
            max_epochs=self.EPOCHS,
            steps_per_epoch=self.STEPS_PER_EPOCH,
            patience=30,
            patch_size=self.SIZE,
            t_train=self.T,
            edge_kind="dense",
            seed=seed,
        )
        self.edges = cs.build_edge_set("dense", self.T)
        self.initial_loss = None
        self.first_history = None

    def _scene(self, seed: int):
        return cs.generate(cs.SceneSpec(seed=seed, t_len=self.T, height=self.SIZE, width=self.SIZE))

    def setup(self, work_dir: str) -> dict:
        base = 1000 * self.seed
        return {
            "train": [self._scene(base + s) for s in range(8)],
            "val": [self._scene(base + s) for s in (100, 101)],
        }

    def heldout_loss(self, model, val_scenes) -> float:
        """Summed soft-Jaccard over every held-out map, by the benchmark's formula."""
        total = 0.0
        for scene in val_scenes:
            seg_o, ch_o = model.forward(scene.images, self.edges)
            seg = scene.seg_labels
            total += sum(ref.soft_jaccard(seg_o[t], seg[t]) for t in range(self.T))
            for row, (t, k) in enumerate(self.edges.edges):
                total += ref.soft_jaccard(ch_o[row], seg[t - 1] ^ seg[k - 1])
        return total

    def probe_input(self, inputs):
        return inputs["val"][0].images, self.edges

    def run_pass(self, inputs: dict, pass_dir: str, tally: Tally, tracer) -> dict:
        timings: dict = {}
        result = tally.timed(
            timings, "train", self.STEPS, cs.train, inputs["train"], inputs["val"],
            self.model_cfg, self.train_cfg,
        )
        if result is None:
            return timings
        with tracer.paused():
            if self.initial_loss is None:
                self.initial_loss = self.heldout_loss(cs.ChangeModel(self.model_cfg), inputs["val"])
            steps = [h["loss"] for h in result.history if h["kind"] == "step"]
            tally.check(len(steps) == self.STEPS, self.STEPS, "train: wrong step count")
            for loss in steps:
                tally.check(math.isfinite(loss), 1, f"train: non-finite step loss {loss}")
            if self.first_history is None:
                trained = self.heldout_loss(result.model, inputs["val"])
                tally.check(
                    trained < self.initial_loss,
                    self.STEPS,
                    f"train: held-out loss {trained} not below initial {self.initial_loss}",
                )
                self.first_history = result.history
            else:
                tally.check(
                    result.history == self.first_history, self.STEPS, "train: rerun differs"
                )
        return timings

    def rates(self, medians: dict) -> dict:
        return {"train_samples_per_s": self.STEPS * self.BATCH / medians["train"]}


## -------------------------------------------------------------- infer-series


class InferSeries:
    """infer, integrate x3 and eval through the command line on a new series."""

    name = "infer-series"
    T, SIZE, BUILDINGS = 6, 128, 48
    MODES = ("adjacent", "cyclic", "dense")
    SAMPLE = 512

    def __init__(self, seed: int):
        self.seed = seed
        self.model_cfg = cs.ModelConfig(seed=seed)
        self.dense = ref.edge_list("dense", self.T)
        self.sample = pixel_sample(seed, self.SIZE * self.SIZE, self.SAMPLE)

    def setup(self, work_dir: str) -> dict:
        ckpt = os.path.join(work_dir, "model.ckpt")
        scene_dir = os.path.join(work_dir, "scene")
        model = cs.ChangeModel(self.model_cfg)
        cs.save_checkpoint(ckpt, model.param_values(), {"model": self.model_cfg.to_jsonable()})
        run_cli([
            "synth-gen", "--seed", str(self.seed), "--t", str(self.T),
            "--height", str(self.SIZE), "--width", str(self.SIZE),
            "--buildings", str(self.BUILDINGS), "--out", scene_dir,
        ])
        return {"ckpt": ckpt, "scene": scene_dir}

    def probe_input(self, inputs):
        images = cs.read_raster(os.path.join(inputs["scene"], "images.rts"))
        return images, cs.build_edge_set("dense", self.T)

    def run_pass(self, inputs: dict, pass_dir: str, tally: Tally, tracer) -> dict:
        timings: dict = {}
        pred = os.path.join(pass_dir, "pred")
        if tally.timed(timings, "infer", 1, run_cli, [
            "infer", "--checkpoint", inputs["ckpt"],
            "--images", os.path.join(inputs["scene"], "images.rts"),
            "--edge-kind", "dense", "--out", pred,
        ]) is None:
            ## the rest of the pass needs infer's rasters and fails with it
            tally.attempted += len(self.MODES) + 1
            tally.fail(len(self.MODES) + 1, "pass abandoned after infer failed")
            return timings
        with tracer.paused():
            seg = cs.read_raster(os.path.join(pred, "seg_probs.rts"))
            ch = cs.read_raster(os.path.join(pred, "ch_probs.rts"))
            n_dense = len(self.dense)
            tally.check(
                seg.shape == (self.T, self.SIZE, self.SIZE)
                and ch.shape == (n_dense, self.SIZE, self.SIZE)
                and min(seg.min(), ch.min()) > 0.0
                and max(seg.max(), ch.max()) < 1.0,
                1,
                "infer: probability rasters of wrong shape or outside (0, 1)",
            )
            seg_s = seg.reshape(self.T, -1)[:, self.sample]
            ch_s = ch.reshape(n_dense, -1)[:, self.sample]

        for mode in self.MODES:
            fused = os.path.join(pass_dir, f"fused-{mode}")
            if tally.timed(timings, f"integrate-{mode}", 1, run_cli, [
                "integrate", "--seg-probs", os.path.join(pred, "seg_probs.rts"),
                "--ch-probs", os.path.join(pred, "ch_probs.rts"),
                "--edges", os.path.join(pred, "manifest.json"),
                "--mode", mode, "--out", fused,
            ]) is None:
                continue
            with tracer.paused():
                edges = ref.edge_list(mode, self.T)
                rows = [self.dense.index(pair) for pair in edges]
                states = cs.read_raster(os.path.join(fused, "states.rts")).astype(np.uint8)
                sampled = states.reshape(self.T, -1)[:, self.sample]
                best, best_score = ref.enumerate_map(seg_s, ch_s[rows], edges)
                pgms = [n for n in os.listdir(fused) if n.endswith(".pgm")]
                tally.check(
                    states.shape == seg.shape
                    and ref.map_agrees(sampled, best, best_score, seg_s, ch_s[rows], edges).all()
                    and len(pgms) == self.T + len(edges),
                    1,
                    f"integrate {mode}: states differ from the enumerator",
                )

        report_dir = os.path.join(pass_dir, "report")
        states_path = os.path.join(pass_dir, "fused-dense", "states.rts")
        if tally.timed(timings, "eval", 1, run_cli, [
            "eval", "--pred-states", states_path, "--labels", inputs["scene"], "--out", report_dir,
        ]) is None:
            return timings
        with tracer.paused():
            with open(os.path.join(report_dir, "report.json"), encoding="utf-8") as fh:
                report = {r["task"]: r for r in json.load(fh)}
            states = cs.read_raster(states_path).astype(np.uint8)
            truth = cs.read_raster(os.path.join(inputs["scene"], "seg_labels.rts")).astype(np.uint8)
            tally.check(
                self.f1_matches(report, states, truth), 1, "eval: F1 differs from recount"
            )
        return timings

    def f1_matches(self, report: dict, states, truth) -> bool:
        last = self.T - 1
        maps = {
            "bitemporal": [(states[0] ^ states[last], truth[0] ^ truth[last])],
            "continuous": [(states[t] ^ states[t + 1], truth[t] ^ truth[t + 1]) for t in range(last)],
            "segmentation": [(states[0], truth[0]), (states[last], truth[last])],
        }
        for task, pairs in maps.items():
            counts = [ref.confusion(p, t) for p, t in pairs]
            macro = float(np.mean([ref.f1_from_counts(*c) for c in counts]))
            micro = ref.f1_from_counts(*(sum(c[i] for c in counts) for i in range(3)))
            got = report.get(task)
            if got is None or abs(got["f1"] - macro) > 1e-12 or abs(got["micro_f1"] - micro) > 1e-12:
                return False
        return True

    def rates(self, medians: dict) -> dict:
        pixels = self.SIZE * self.SIZE
        out = {
            "infer_pixels_per_s": self.T * pixels / medians["infer"],
            "pipeline_scenes_per_s": 1.0 / medians["pass"],
        }
        for mode in self.MODES:
            out[f"fuse_{mode}_pixels_per_s"] = pixels / medians[f"integrate-{mode}"]
        return out


## ------------------------------------------------------------------ fuse-long


class FuseLong:
    """integrate(workers=2) on corrupted ground truth of long series."""

    name = "fuse-long"
    SEG_SIGMA, CH_SIGMA, WORKERS = 0.45, 0.25, 2
    ## mode -> (T, raster side, buildings); dense and cyclic share one scene
    SHAPES = {"dense": (12, 64, 12), "cyclic": (12, 64, 12), "adjacent": (20, 256, 192)}
    SAMPLE = 128
    WINDOW = 16

    def __init__(self, seed: int):
        self.seed = seed
        self.first_states = None

    def setup(self, work_dir: str) -> dict:
        scenes = {}
        inputs = {}
        for mode, (t_len, side, buildings) in self.SHAPES.items():
            if (t_len, side) not in scenes:
                spec = cs.SceneSpec(
                    seed=1000 * self.seed + t_len, t_len=t_len, height=side, width=side,
                    n_buildings=buildings,
                )
                scene = cs.generate(spec)
                seg, ch = cs.corrupt_to_probabilities(
                    scene, self.SEG_SIGMA, self.CH_SIGMA, seed=spec.seed + 1
                )
                scenes[(t_len, side)] = (scene, seg, ch)
            scene, seg, ch = scenes[(t_len, side)]
            edges = cs.build_edge_set(mode, t_len)
            inputs[mode] = {
                "truth": scene.seg_labels,
                "seg": seg,
                "ch": stack_probs(ch, edges),
                "edges": edges,
            }
        return inputs

    def run_pass(self, inputs: dict, pass_dir: str, tally: Tally, tracer) -> dict:
        timings: dict = {}
        states = {}
        for mode, item in inputs.items():
            series = tally.timed(
                timings, f"integrate-{mode}", 1, cs.integrate, item["seg"], item["ch"],
                item["edges"], mode, workers=self.WORKERS,
            )
            if series is not None:
                states[mode] = series.states
        with tracer.paused():
            if self.first_states is None:
                self.first_states = states
                for mode, st in states.items():
                    self.check_fusion(mode, inputs[mode], st, tally)
            else:
                for mode, st in states.items():
                    tally.check(
                        np.array_equal(st, self.first_states.get(mode)), 1,
                        f"integrate {mode}: rerun differs",
                    )
        return timings

    def check_fusion(self, mode: str, item: dict, states, tally: Tally) -> None:
        seg, ch, truth = item["seg"], item["ch"], item["truth"]
        t_len = seg.shape[0]
        edges = ref.edge_list(mode, t_len)
        def flat(a):
            return a.reshape(a.shape[0], -1)

        seg_f, ch_f, st_f = flat(seg), flat(ch), flat(states)
        if mode == "adjacent":
            best, best_score = ref.chain_map(seg_f, ch_f)
            ok = ref.map_agrees(st_f, best, best_score, seg_f, ch_f, edges).all()
        else:
            idx = pixel_sample(self.seed, seg_f.shape[1], self.SAMPLE)
            best, best_score = ref.enumerate_map(seg_f[:, idx], ch_f[:, idx], edges)
            ok = ref.map_agrees(st_f[:, idx], best, best_score, seg_f[:, idx], ch_f[:, idx], edges).all()
        tally.check(ok, 1, f"integrate {mode}: states differ from the reference MAP")

        chosen = ref.series_log_score(st_f, seg_f, ch_f, edges)
        slack = 1e-9 * np.maximum(1.0, np.abs(chosen))
        rivals = (ref.series_log_score(flat(threshold(seg)), seg_f, ch_f, edges),
                  ref.series_log_score(flat(truth), seg_f, ch_f, edges))
        tally.check(
            all(np.all(chosen >= r - slack) for r in rivals), 1,
            f"integrate {mode}: a thresholded or true series outscores the fused one",
        )
        if mode == "dense":
            truth_change = truth[0] ^ truth[-1]
            fused = ref.f1_from_counts(*ref.confusion(states[0] ^ states[-1], truth_change))
            thr = threshold(seg)
            raw = ref.f1_from_counts(*ref.confusion(thr[0] ^ thr[-1], truth_change))
            tally.check(fused > raw, 1, f"dense first-vs-last F1 {fused} not above thresholding {raw}")

        win = (slice(None), slice(0, self.WINDOW), slice(0, self.WINDOW))
        single, double = (
            cs.integrate(seg[win], ch[win], item["edges"], mode, workers=w).states for w in (1, 2)
        )
        tally.check(
            np.array_equal(single, double) and np.array_equal(single, states[win]), 1,
            f"integrate {mode}: states depend on the worker count",
        )

    def rates(self, medians: dict) -> dict:
        return {
            f"fuse_{mode}_pixels_per_s": side * side / medians[f"integrate-{mode}"]
            for mode, (_, side, _) in self.SHAPES.items()
        }


WORKLOADS = {w.name: w for w in (TrainDesk, InferSeries, FuseLong)}
