"""End-to-end command line checks, run in process through cli.main."""

import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from malformed import CHECKPOINTS, META, MODEL_CONFIGS, SNAN, pack, rts1

from changeseries import cli, cores
from changeseries.backbone import load_checkpoint, save_checkpoint
from changeseries.changefeat import build_edge_set
from changeseries.model import ChangeModel, ModelConfig
from changeseries.synthgen import SceneSpec, generate
from changeseries.tensor import read_raster, write_raster

SCENE_FLAGS = [
    "--t", "3", "--height", "16", "--width", "16", "--buildings", "4",
    "--min-extent", "3", "--max-extent", "6",
]


def run_cli(argv):
    return cli.main([str(a) for a in argv])


def make_scene_dir(out, seed, seg_noise=0.0, ch_noise=0.0, extra=()):
    argv = ["synth-gen", "--seed", seed, *SCENE_FLAGS,
            "--seg-noise", seg_noise, "--ch-noise", ch_noise,
            *extra, "--out", out]
    assert run_cli(argv) == 0
    return str(out)


@pytest.fixture(scope="module")
def clean_scene_dir(tmp_path_factory):
    return make_scene_dir(tmp_path_factory.mktemp("scene_clean"), seed=0)


@pytest.fixture(scope="module")
def noisy_scene_dir(tmp_path_factory):
    return make_scene_dir(
        tmp_path_factory.mktemp("scene_noisy"), seed=1, seg_noise=0.3, ch_noise=0.3
    )


@pytest.fixture(scope="module")
def train_run_dir(tmp_path_factory, clean_scene_dir, noisy_scene_dir):
    out = tmp_path_factory.mktemp("train_run")
    argv = [
        "train", "--scenes", clean_scene_dir, "--val-scenes", noisy_scene_dir,
        "--scales", "2", "--base-width", "4", "--heads", "2", "--attn-layers", "1",
        "--t-train", "2", "--edge-kind", "adjacent", "--patch-size", "8",
        "--batch-size", "1", "--max-epochs", "2", "--steps-per-epoch", "2",
        "--patience", "5", "--lr", "1e-3", "--out", out,
    ]
    assert run_cli(argv) == 0
    return str(out)


def read_manifest(run_dir):
    with open(os.path.join(run_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


def run_under_1gib(argv):
    """cli.main(argv) in a subprocess capped at 1 GiB of address space; its
    stdout is the exit code and the seconds main took."""
    probe = (
        "import resource, sys, time\n"
        "cap = (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1])\n"
        "resource.setrlimit(resource.RLIMIT_AS, cap)\n"
        "from changeseries import cli\n"
        "started = time.perf_counter()\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, time.perf_counter() - started)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return subprocess.run(
        [sys.executable, "-c", probe, *map(str, argv)], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )


## ---------------------------------------------------------------- synth-gen


SCENE_FILES = ("images.rts", "seg_labels.rts", "seg_probs.rts", "ch_probs.rts", "manifest.json")


def test_synth_gen_outputs_and_round_trip(clean_scene_dir):
    ## change labels derive from seg_labels, so no file holds them
    assert sorted(os.listdir(clean_scene_dir)) == sorted(SCENE_FILES)
    manifest = read_manifest(clean_scene_dir)
    assert set(manifest["outputs"]) == {"images", "seg_labels", "seg_probs", "ch_probs", "edges"}
    assert manifest["outputs"]["edges"] == {"kind": "dense", "t": 3}
    assert manifest["tool"] == "changeseries"
    assert manifest["command"] == "synth-gen"
    scene = cli.load_scene_dir(clean_scene_dir)
    reference = generate(SceneSpec.from_jsonable(manifest["config"]["spec"]))
    ## rasters hold float32, so compare against the cast reference
    assert np.array_equal(
        scene.images, reference.images.astype("<f4").astype(np.float64)
    )
    assert np.array_equal(scene.seg_labels, reference.seg_labels)
    assert set(scene.change_labels) == set(reference.change_labels)
    for pair, ref_map in reference.change_labels.items():
        assert np.array_equal(scene.change_labels[pair], ref_map)


def test_synth_gen_byte_deterministic(tmp_path):
    a = make_scene_dir(tmp_path / "a", seed=3, seg_noise=0.2, ch_noise=0.2)
    b = make_scene_dir(tmp_path / "b", seed=3, seg_noise=0.2, ch_noise=0.2)
    for name in SCENE_FILES:
        assert file_bytes(os.path.join(a, name)) == file_bytes(os.path.join(b, name))


## sha256 of synth-gen's rasters for GOLDEN_ARGV; any change to the
## generator, the corruption draws or the RNG that moves a byte fails here
GOLDEN_ARGV = [
    "synth-gen", "--seed", "3", "--t", "4", "--height", "24", "--width", "20",
    "--buildings", "4", "--max-extent", "8", "--seg-noise", "0.3", "--ch-noise", "0.2",
    "--corrupt-seed", "9",
]
GOLDEN_SHA256 = {
    "images.rts": "f6cb534c8d0a33e3783e3c45b71f2874288482770de0d9847d14924ec2e32f4b",
    "seg_probs.rts": "530ba36c71191172ca11440020408c55944caf3a549435553eeec524ce7529bb",
    "ch_probs.rts": "0f176ca08e1b856727ab79227ec7ed5ee883d9afe478657e2b1d00494eed9fac",
}


def test_synth_gen_golden_bytes(tmp_path):
    assert run_cli([*GOLDEN_ARGV, "--out", tmp_path / "scene"]) == 0
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256(file_bytes(tmp_path / "scene" / name)).hexdigest() == digest, name


def test_synth_gen_corrupt_seed_defaults_to_seed_plus_one(clean_scene_dir, tmp_path):
    assert read_manifest(clean_scene_dir)["config"]["corrupt_seed"] == 1
    explicit = make_scene_dir(tmp_path / "c", seed=0, extra=["--corrupt-seed", "7"])
    assert read_manifest(explicit)["config"]["corrupt_seed"] == 7


## a billion buildings used to hang in the building loop before any check
@pytest.mark.parametrize(
    "flags", [["--min-extent", "9", "--max-extent", "6"], ["--buildings", "1000000000"],
              ["--noise-sigma", "nan"], ["--illumination-jitter", "nan"], ["--seg-noise", "nan"]],
    ids=["extents", "buildings", "noise_nan", "jitter_nan", "seg_noise_nan"],
)
def test_synth_gen_invalid_spec_fails_cleanly(tmp_path, capsys, flags):
    out = tmp_path / "bad"
    assert run_cli(["synth-gen", *flags, "--out", out]) == 1
    assert_one_error_line(capsys)
    assert not out.exists()


## label + noise * 1e308 overflows to inf, which the clip maps into [0, 1]
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag", ["--noise-sigma", "--illumination-jitter"])
def test_synth_gen_overflowing_noise_runs_without_a_warning(tmp_path, capsys, flag):
    argv = ["synth-gen", "--t", "2", "--height", "16", "--width", "16", "--buildings", "2",
            "--min-extent", "3", "--max-extent", "6", flag, "1e308", "--out", tmp_path / "s"]
    assert run_cli(argv) == 0
    assert capsys.readouterr().err == ""


## an allocation the address space cannot hold: each ended in a MemoryError traceback
UNALLOCATABLE = {
    "synth_gen_long_series": ["synth-gen", "--t", "1000000000"],
    "synth_gen_huge_raster": ["synth-gen", "--height", "100000", "--width", "100000"],
    "ablate_long_corrupt_grid": ["ablate", "--config", "GRID"],
}


@pytest.mark.parametrize("case", sorted(UNALLOCATABLE))
def test_unallocatable_request_fails_with_one_error_line(tmp_path, case):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "scenes": {"spec": {"height": 16, "width": 16}, "val_seeds": [0]},
        "grid": {"t": [1000000000]},
        "corrupt": {"seg_sigma": [0.3], "ch_sigma": 0.25},
    }), encoding="utf-8")
    out = tmp_path / "out"
    argv = [grid if arg == "GRID" else arg for arg in UNALLOCATABLE[case]]
    done = run_under_1gib([*argv, "--out", out])
    assert done.stdout.split()[:1] == ["1"], done.stderr
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error:"), done.stderr
    assert not out.exists()


## --------------------------------------------------------------------- train


def test_train_outputs(train_run_dir):
    assert os.path.exists(os.path.join(train_run_dir, "checkpoint.ckpt"))
    with open(os.path.join(train_run_dir, "train_log.jsonl"), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    kinds = {r["kind"] for r in records}
    assert kinds == {"step", "epoch"}
    assert sum(r["kind"] == "epoch" for r in records) == 2
    manifest = read_manifest(train_run_dir)
    assert manifest["config"]["train"]["edge_kind"] == "adjacent"
    assert isinstance(manifest["outputs"]["best_val_loss"], float)


## --------------------------------------------------------------------- infer


def infer_into(tmp, ckpt, images, extra=()):
    out = tmp
    argv = ["infer", "--checkpoint", ckpt, "--images", images, *extra, "--out", out]
    assert run_cli(argv) == 0
    return str(out)


def test_infer_defaults_to_trained_edge_kind(tmp_path, train_run_dir, clean_scene_dir):
    out = infer_into(
        tmp_path / "inf",
        os.path.join(train_run_dir, "checkpoint.ckpt"),
        os.path.join(clean_scene_dir, "images.rts"),
    )
    manifest = read_manifest(out)
    assert manifest["config"]["edge_kind"] == "adjacent"
    assert manifest["outputs"]["edges"]["kind"] == "adjacent"
    seg = read_raster(os.path.join(out, "seg_probs.rts"))
    ch = read_raster(os.path.join(out, "ch_probs.rts"))
    assert seg.shape == (3, 16, 16)
    assert ch.shape == (2, 16, 16)  # adjacent pairs of a 3-long series
    assert seg.min() > 0 and seg.max() < 1


def test_infer_edge_kind_flag_overrides(tmp_path, train_run_dir, clean_scene_dir):
    out = infer_into(
        tmp_path / "inf",
        os.path.join(train_run_dir, "checkpoint.ckpt"),
        os.path.join(clean_scene_dir, "images.rts"),
        extra=["--edge-kind", "dense"],
    )
    manifest = read_manifest(out)
    assert manifest["config"]["edge_kind"] == "dense"
    ch = read_raster(os.path.join(out, "ch_probs.rts"))
    assert ch.shape == (3, 16, 16)  # all pairs of a 3-long series


def test_infer_byte_deterministic(tmp_path, train_run_dir, clean_scene_dir):
    ckpt = os.path.join(train_run_dir, "checkpoint.ckpt")
    images = os.path.join(clean_scene_dir, "images.rts")
    a = infer_into(tmp_path / "a", ckpt, images)
    b = infer_into(tmp_path / "b", ckpt, images)
    for name in ("seg_probs.rts", "ch_probs.rts"):
        assert file_bytes(os.path.join(a, name)) == file_bytes(os.path.join(b, name))


def test_checkpoint_with_the_old_ff_mult_key_infers_unchanged(tmp_path, train_run_dir,
                                                              clean_scene_dir):
    ## checkpoints written while the FFN width was a setting carry "ff_mult": 4
    ckpt = os.path.join(train_run_dir, "checkpoint.ckpt")
    meta, values = load_checkpoint(ckpt)
    assert "ff_mult" not in meta["model"]["temporal"]
    meta["model"]["temporal"]["ff_mult"] = 4
    old = str(tmp_path / "old.ckpt")
    save_checkpoint(old, values, meta)
    assert cli._load_model(old)[0].cfg == cli._load_model(ckpt)[0].cfg
    images = os.path.join(clean_scene_dir, "images.rts")
    a = infer_into(tmp_path / "a", ckpt, images)
    b = infer_into(tmp_path / "b", old, images)
    for name in ("seg_probs.rts", "ch_probs.rts"):
        assert file_bytes(os.path.join(a, name)) == file_bytes(os.path.join(b, name))


def test_infer_missing_checkpoint_fails(tmp_path, clean_scene_dir, capsys):
    argv = ["infer", "--checkpoint", tmp_path / "nope.ckpt",
            "--images", os.path.join(clean_scene_dir, "images.rts"),
            "--out", tmp_path / "out"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


## checkpoints whose records load but whose meta cannot rebuild a model
BAD_META = {
    **{f"model_{name}": {"model": obj} for name, obj in MODEL_CONFIGS.items()},
    "meta_not_object": 5,
    "no_model": {},
    "train_missing_key": dict(META, train={}),
}
INFER_CASES = {
    **CHECKPOINTS,
    **{name: pack({"meta": meta, "index": []}, b"") for name, meta in BAD_META.items()},
}


## a warning, such as numpy's on casting a signalling NaN, would print a line before error:
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(INFER_CASES))
def test_infer_malformed_checkpoint_fails_cleanly(tmp_path, clean_scene_dir, capsys, case):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(INFER_CASES[case])
    out = tmp_path / "out"
    argv = ["infer", "--checkpoint", ckpt,
            "--images", os.path.join(clean_scene_dir, "images.rts"), "--out", out]
    assert run_cli(argv) == 1
    assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("channels", [1, 4])
def test_infer_rejects_wrong_channel_count(tmp_path, train_run_dir, clean_scene_dir, capsys,
                                           channels):
    ## the checkpoint takes 3 channels: 1 must not broadcast, 4 must not crash
    rgb = read_raster(os.path.join(clean_scene_dir, "images.rts"))
    images = str(tmp_path / "images.rts")
    write_raster(images, np.concatenate([rgb, rgb], axis=1)[:, :channels])
    out = tmp_path / "out"
    argv = ["infer", "--checkpoint", os.path.join(train_run_dir, "checkpoint.ckpt"),
            "--images", images, "--out", out]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert f"{channels} channels" in err and "takes 3" in err
    assert not out.exists()


def test_infer_rejects_checkpoint_with_unknown_edge_kind(tmp_path, train_run_dir,
                                                        clean_scene_dir, capsys):
    meta, values = load_checkpoint(os.path.join(train_run_dir, "checkpoint.ckpt"))
    meta["train"]["edge_kind"] = "sideways"
    ckpt = str(tmp_path / "sideways.ckpt")
    save_checkpoint(ckpt, values, meta)
    out = tmp_path / "out"
    argv = ["infer", "--checkpoint", ckpt, "--edge-kind", "dense",
            "--images", os.path.join(clean_scene_dir, "images.rts"), "--out", out]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "'sideways'" in err
    assert not out.exists()


## ----------------------------------------------------------------- integrate


def test_integrate_degenerate_matches_threshold(tmp_path, noisy_scene_dir):
    out = tmp_path / "deg"
    argv = ["integrate", "--seg-probs", os.path.join(noisy_scene_dir, "seg_probs.rts"),
            "--mode", "degenerate", "--out", out]
    assert run_cli(argv) == 0
    states = read_raster(out / "states.rts")
    seg_probs = read_raster(os.path.join(noisy_scene_dir, "seg_probs.rts"))
    assert np.array_equal(states, (seg_probs > 0.5).astype(np.float64))
    for t in (1, 2, 3):
        assert (out / f"states_t{t}.pgm").exists()
    assert not list(out.glob("change_*.pgm"))
    with open(out / "score_summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["mode"] == "degenerate"
    assert set(summary) == {"mode", "mean_log_score", "min_log_score", "max_log_score"}
    assert read_manifest(str(out))["outputs"]["edges"] is None


def test_integrate_dense_outputs_and_worker_invariance(tmp_path, noisy_scene_dir,
                                                       monkeypatch):
    ## integrate runs on the cores the process may use, like infer
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(cores, "WORKERS", workers)
        out = tmp_path / f"w{workers}"
        argv = ["integrate",
                "--seg-probs", os.path.join(noisy_scene_dir, "seg_probs.rts"),
                "--ch-probs", os.path.join(noisy_scene_dir, "ch_probs.rts"),
                "--edges", os.path.join(noisy_scene_dir, "manifest.json"),
                "--mode", "dense", "--out", out]
        assert run_cli(argv) == 0
        runs.append(out)
    a = runs[0]
    outputs = ["states.rts", "score_summary.json",
               *(f"states_t{t}.pgm" for t in (1, 2, 3)),
               *(f"change_{t}_{k}.pgm" for t, k in ((1, 2), (1, 3), (2, 3)))]
    for b in runs:
        assert sorted(os.listdir(b)) == sorted([*outputs, "manifest.json"])
        for name in outputs:
            assert file_bytes(a / name) == file_bytes(b / name), name
    manifest = read_manifest(str(a))
    assert manifest["outputs"]["edges"]["kind"] == "dense"
    assert set(manifest["config"]) == {"seg_probs", "ch_probs", "edges", "mode"}


def test_manifest_with_stored_pair_list_feeds_integrate_and_eval(tmp_path, train_run_dir,
                                                                 clean_scene_dir):
    ## infer manifests used to store the edge set's pair list beside kind and t
    inferred = infer_into(tmp_path / "inf", os.path.join(train_run_dir, "checkpoint.ckpt"),
                          os.path.join(clean_scene_dir, "images.rts"),
                          extra=["--edge-kind", "dense"])
    manifest = read_manifest(inferred)
    assert manifest["outputs"]["edges"] == {"kind": "dense", "t": 3}
    older = tmp_path / "older.json"
    manifest["outputs"]["edges"]["edges"] = [[1, 2], [1, 3], [2, 3]]
    older.write_text(json.dumps(manifest), encoding="utf-8")
    runs = {}
    for name, edges in (("now", os.path.join(inferred, "manifest.json")), ("older", older)):
        probs = ["--seg-probs", os.path.join(inferred, "seg_probs.rts"),
                 "--ch-probs", os.path.join(inferred, "ch_probs.rts"), "--edges", edges]
        fused, scored = tmp_path / f"fused_{name}", tmp_path / f"scored_{name}"
        assert run_cli(["integrate", *probs, "--mode", "dense", "--out", fused]) == 0
        assert run_cli(["eval", *probs, "--labels", clean_scene_dir, "--out", scored]) == 0
        runs[name] = (fused, scored)
        assert read_manifest(str(fused))["outputs"]["edges"] == {"kind": "dense", "t": 3}
    (fused, scored), (older_fused, older_scored) = runs["now"], runs["older"]
    assert file_bytes(fused / "states.rts") == file_bytes(older_fused / "states.rts")
    assert file_bytes(scored / "report.json") == file_bytes(older_scored / "report.json")


def test_integrate_dense_requires_change_inputs(tmp_path, noisy_scene_dir, capsys):
    out = tmp_path / "missing"
    argv = ["integrate", "--seg-probs", os.path.join(noisy_scene_dir, "seg_probs.rts"),
            "--mode", "dense", "--out", out]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_integrate_rejects_change_rows_of_another_extent(tmp_path, capsys):
    ## (3, 4, 6) segmentation against (2, 6, 4) change rows: the pixel
    ## counts match, the rasters do not
    write_raster(tmp_path / "seg.rts", np.full((3, 4, 6), 0.25))
    write_raster(tmp_path / "ch.rts", np.full((2, 6, 4), 0.75))
    (tmp_path / "edges.json").write_text(
        json.dumps(build_edge_set("adjacent", 3).to_jsonable()), encoding="utf-8"
    )
    out = tmp_path / "fused"
    argv = ["integrate", "--seg-probs", tmp_path / "seg.rts", "--ch-probs", tmp_path / "ch.rts",
            "--edges", tmp_path / "edges.json", "--mode", "adjacent", "--out", out]
    assert run_cli(argv) == 1
    assert_one_error_line(capsys)
    assert not out.exists()


def test_integrate_missing_input_leaves_no_outputs(tmp_path, capsys):
    out = tmp_path / "never"
    argv = ["integrate", "--seg-probs", tmp_path / "absent.rts",
            "--mode", "degenerate", "--out", out]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


## a default model's records under a model section that claims far more: under a
## 1 GiB address-space cap, building that model ends in a MemoryError traceback
OVERSIZED_MODELS = {
    "scales_60": lambda m: m["backbone"].update(scales=60),
    "base_width_2_20": lambda m: m["backbone"].update(base_width=2**20),
    "refiner_layers_1e9": lambda m: m["temporal"].update(layers=10**9),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED_MODELS))
@pytest.mark.parametrize("command", ["infer", "ablate"])
def test_model_larger_than_its_records_is_refused_before_it_is_built(
    tmp_path, clean_scene_dir, command, case
):
    model_json = ModelConfig().to_jsonable()
    OVERSIZED_MODELS[case](model_json)
    ckpt = tmp_path / "oversized.ckpt"
    save_checkpoint(str(ckpt), ChangeModel(ModelConfig()).param_values(), {"model": model_json})
    out = tmp_path / "out"
    if command == "infer":
        argv = ["infer", "--checkpoint", ckpt,
                "--images", os.path.join(clean_scene_dir, "images.rts"), "--out", out]
    else:
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"scenes": {"val_dirs": [clean_scene_dir]},
                                    "checkpoint": str(ckpt), "grid": {"t": [3]}}),
                        encoding="utf-8")
        argv = ["ablate", "--config", grid, "--out", out]
    done = run_under_1gib(argv)
    assert done.stdout.split()[:1] == ["1"], done.stderr
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error:"), done.stderr
    assert "needs a record" in done.stderr
    assert not out.exists()


## ---------------------------------------------------------------------- eval


def test_eval_pred_states_perfect_on_clean_scene(tmp_path, clean_scene_dir, capsys):
    ## noise-free probabilities threshold back to the exact labels, so the
    ## degenerate fusion must score 1.0 everywhere
    fused = tmp_path / "fused"
    assert run_cli(["integrate", "--seg-probs",
                    os.path.join(clean_scene_dir, "seg_probs.rts"),
                    "--mode", "degenerate", "--out", fused]) == 0
    capsys.readouterr()
    out = tmp_path / "report"
    argv = ["eval", "--pred-states", fused / "states.rts",
            "--labels", clean_scene_dir, "--out", out]
    assert run_cli(argv) == 0
    table = capsys.readouterr().out.strip().splitlines()
    assert table[0].split() == ["task", "f1", "iou", "micro_f1", "micro_iou"]
    assert [row.split()[0] for row in table[1:]] == [
        "bitemporal", "continuous", "segmentation"
    ]
    for row in table[1:]:
        assert row.split()[1] == "1.000000"
    with open(out / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert [r["task"] for r in report] == ["bitemporal", "continuous", "segmentation"]
    assert all(r["f1"] == 1.0 and r["micro_iou"] == 1.0 for r in report)


def test_eval_probability_inputs_single_task(tmp_path, clean_scene_dir, capsys):
    out = tmp_path / "rep"
    argv = ["eval",
            "--seg-probs", os.path.join(clean_scene_dir, "seg_probs.rts"),
            "--ch-probs", os.path.join(clean_scene_dir, "ch_probs.rts"),
            "--edges", os.path.join(clean_scene_dir, "manifest.json"),
            "--labels", clean_scene_dir, "--task", "bitemporal", "--out", out]
    assert run_cli(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("bitemporal")
    with open(out / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert len(report) == 1
    assert report[0]["task"] == "bitemporal"
    assert report[0]["f1"] == 1.0


def test_eval_requires_a_prediction_source(tmp_path, clean_scene_dir, capsys):
    out = tmp_path / "rep"
    assert run_cli(["eval", "--labels", clean_scene_dir, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--seg-probs"], ["--seg-probs", "--ch-probs", "--edges"]])
def test_eval_refuses_states_with_probability_inputs(tmp_path, monkeypatch, capsys, flags):
    ## the probabilities used to be dropped without a word; nothing is read
    monkeypatch.setattr(cli, "read_raster", _no_work)
    monkeypatch.setattr(cli, "_load_json", _no_work)
    out = tmp_path / "rep"
    argv = ["eval", "--pred-states", "states.rts", "--labels", "scene", "--out", out]
    assert run_cli(argv + [arg for flag in flags for arg in (flag, "x")]) == 1
    assert_one_error_line(capsys)
    assert not out.exists()


DENSE3 = {"kind": "dense", "t": 3}

## name -> an --edges file that integrate and eval must refuse
BAD_EDGE_FILES = {
    "no_edge_keys": {"foo": 1},
    "outputs_not_object": {"outputs": 5},
    "outputs_without_edges": {"outputs": {"states": "states.rts"}},
    "t_float": dict(DENSE3, t=3.7),
    "t_string": dict(DENSE3, t="3"),
    "t_bool": dict(DENSE3, t=True),
    "edges_wrapper": {"edges": DENSE3},
}


@pytest.mark.parametrize("case", sorted(BAD_EDGE_FILES))
@pytest.mark.parametrize("command", ["integrate", "eval"])
def test_eval_rejects_malformed_edge_file(tmp_path, clean_scene_dir, capsys, command, case):
    bad = tmp_path / "edges.json"
    bad.write_text(json.dumps(BAD_EDGE_FILES[case]), encoding="utf-8")
    out = tmp_path / "rep"
    argv = [command,
            "--seg-probs", os.path.join(clean_scene_dir, "seg_probs.rts"),
            "--ch-probs", os.path.join(clean_scene_dir, "ch_probs.rts"),
            "--edges", bad, "--out", out]
    argv += ["--mode", "dense"] if command == "integrate" else ["--labels", clean_scene_dir]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "edge set" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["integrate", "eval"])
def test_edge_file_over_another_series_is_refused_before_its_pairs_exist(
    tmp_path, clean_scene_dir, command
):
    ## a dense set over 10**6 timestamps has 5 * 10**11 pairs: under a 1 GiB
    ## address-space cap, building them ends in a MemoryError traceback
    bad = tmp_path / "edges.json"
    bad.write_text(json.dumps(dict(DENSE3, t=10**6, edges=[])), encoding="utf-8")
    out = tmp_path / "rep"
    argv = [command,
            "--seg-probs", os.path.join(clean_scene_dir, "seg_probs.rts"),
            "--ch-probs", os.path.join(clean_scene_dir, "ch_probs.rts"),
            "--edges", str(bad), "--out", str(out)]
    argv += ["--mode", "dense"] if command == "integrate" else ["--labels", clean_scene_dir]
    done = run_under_1gib(argv)
    assert done.stdout.split()[:1] == ["1"], done.stderr
    assert float(done.stdout.split()[1]) < 2.0
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error:"), done.stderr
    assert "edge set over T = 1000000" in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["integrate", "eval", "ablate"])
def test_json_file_not_utf8_names_its_path(tmp_path, clean_scene_dir, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "out"
    argv = {
        "integrate": ["integrate", "--seg-probs", os.path.join(clean_scene_dir, "seg_probs.rts"),
                      "--ch-probs", os.path.join(clean_scene_dir, "ch_probs.rts"),
                      "--edges", bad, "--mode", "dense"],
        "eval": ["eval", "--seg-probs", os.path.join(clean_scene_dir, "seg_probs.rts"),
                 "--ch-probs", os.path.join(clean_scene_dir, "ch_probs.rts"),
                 "--edges", bad, "--labels", clean_scene_dir],
        "ablate": ["ablate", "--config", bad],
    }[command]
    assert run_cli([*argv, "--out", out]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"error: cannot read JSON from {bad}: ")
    assert not out.exists()


def _drop(obj, key):
    del obj[key]


## name -> edit of a copied scene manifest that load_scene_dir must refuse
BAD_MANIFESTS = {
    "spec_list": lambda m: m["config"].update(spec=[m["config"]["spec"]]),
    "spec_missing_key": lambda m: _drop(m["config"]["spec"], "t"),
    "spec_wrong_type": lambda m: m["config"]["spec"].update(height="16"),
    "spec_bad_value": lambda m: m["config"]["spec"].update(t=1),
    "config_not_object": lambda m: m.update(config=5),
    "outputs_missing": lambda m: _drop(m, "outputs"),
    "output_name_not_string": lambda m: m["outputs"].update(images=3),
    "manifest_array": None,
}


@pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
def test_eval_malformed_scene_manifest_fails_cleanly(tmp_path, clean_scene_dir, capsys, case):
    scene = tmp_path / "scene"
    shutil.copytree(clean_scene_dir, scene)
    manifest = read_manifest(scene)
    edit = BAD_MANIFESTS[case]
    if edit is None:
        manifest = [manifest]
    else:
        edit(manifest)
    (scene / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    out = tmp_path / "rep"
    argv = ["eval", "--pred-states", scene / "seg_labels.rts", "--labels", scene, "--out", out]
    assert run_cli(argv) == 1
    assert_one_error_line(capsys)
    assert not out.exists()


def _write_labels_of_shape(scene):
    write_raster(scene / "seg_labels.rts", np.zeros((4, 20, 20)))


def _write_flat_images(scene):
    write_raster(scene / "images.rts", read_raster(scene / "images.rts")[:, 0])


## name -> (edit of a copied scene directory that load_scene_dir must refuse,
##          the file the error must name)
BAD_SCENE_RASTERS = {
    "labels_not_binary": (
        lambda scene: shutil.copy(scene / "seg_probs.rts", scene / "seg_labels.rts"),
        "seg_labels.rts",
    ),
    "labels_other_extent": (_write_labels_of_shape, "images.rts"),
    "images_rank_3": (_write_flat_images, "images.rts"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCENE_RASTERS))
@pytest.mark.parametrize("command", ["eval", "train"])
def test_scene_dir_with_bad_rasters_fails_cleanly(tmp_path, clean_scene_dir, capsys,
                                                 command, case):
    edit, named = BAD_SCENE_RASTERS[case]
    scene = tmp_path / "scene"
    shutil.copytree(clean_scene_dir, scene)
    edit(scene)
    out = tmp_path / "run"
    if command == "eval":
        argv = ["eval", "--pred-states", os.path.join(clean_scene_dir, "seg_labels.rts"),
                "--labels", scene, "--out", out]
    else:
        argv = ["train", "--scenes", scene, "--val-scenes", clean_scene_dir,
                "--t-train", "2", "--patch-size", "8", "--max-epochs", "1", "--out", out]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert named in err
    assert not out.exists()


def _refuse_forward(*args, **kwargs):
    raise AssertionError("an unfit scene must be refused before any forward")


## an overflowing step used to print numpy's warnings before the error line
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [["--lr", "1e30"], ["--lr", "1e308"],
                                   ["--weight-decay", "1e308"]], ids=" ".join)
def test_train_overflow_fails_on_one_line(tmp_path, clean_scene_dir, capsys, flags):
    out = tmp_path / "run"
    argv = ["train", "--scenes", clean_scene_dir, "--val-scenes", clean_scene_dir,
            "--scales", "2", "--base-width", "4", "--heads", "2", "--attn-layers", "1",
            "--t-train", "2", "--patch-size", "8", "--batch-size", "1", "--max-epochs", "2",
            "--steps-per-epoch", "2", *flags, "--out", out]
    assert run_cli(argv) == 1
    assert_one_error_line(capsys)
    assert not out.exists()


## a patch below one pixel printed numpy's empty-slice warnings before its
## error, a NaN lr took a training step, and --no-tfr trained past refiner
## flags that are refused without it
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [["--patch-size", "0"], ["--patch-size", "-8"],
                                   ["--lr", "nan"], ["--weight-decay", "nan"],
                                   ["--no-tfr", "--attn-layers", "-5", "--heads", "0"]],
                         ids=" ".join)
def test_train_refuses_malformed_flag_before_any_step(tmp_path, clean_scene_dir, capsys,
                                                      monkeypatch, flags):
    monkeypatch.setattr(cli, "train", _no_work)
    out = tmp_path / "run"
    argv = ["train", "--scenes", clean_scene_dir, "--val-scenes", clean_scene_dir, *flags,
            "--out", out]
    assert run_cli(argv) == 1
    assert_one_error_line(capsys)
    assert not out.exists()


def test_bare_memory_error_names_itself(tmp_path, capsys, monkeypatch):
    ## a MemoryError from Python's own allocator carries no text
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "_cmd_synth_gen", out_of_memory)
    out = tmp_path / "scene"
    assert run_cli(["synth-gen", "--out", out]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and err[7:].strip(), err
    assert not out.exists()


## name -> (synth-gen flags of the unfit scene, whether it trains or validates, the error)
UNFIT_SCENE_DIRS = {
    "val_one_channel": (["--channels", "1"], "--val-scenes", "has 1 channels"),
    "train_too_short": (["--t", "2"], "--scenes", "fewer than t_train = 3 timestamps"),
}


@pytest.mark.parametrize("case", sorted(UNFIT_SCENE_DIRS))
def test_train_refuses_unfit_scene_dir_before_any_forward(tmp_path, clean_scene_dir, capsys,
                                                          monkeypatch, case):
    extra, role, message = UNFIT_SCENE_DIRS[case]
    unfit = make_scene_dir(tmp_path / "unfit", seed=2, extra=extra)
    scenes = {"--scenes": clean_scene_dir, "--val-scenes": clean_scene_dir, role: unfit}
    monkeypatch.setattr(cli.ChangeModel, "forward", _refuse_forward)
    out = tmp_path / "run"
    argv = ["train", "--scenes", scenes["--scenes"],
            "--val-scenes", scenes["--val-scenes"], "--t-train", "3", "--patch-size", "8",
            "--max-epochs", "1", "--out", out]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--pred-states", "--labels"])
def test_eval_refuses_non_binary_state_raster(tmp_path, clean_scene_dir, capsys, flag):
    ## probabilities used to truncate to all-zero states and score F1 0
    probs = os.path.join(clean_scene_dir, "seg_probs.rts")
    labels = os.path.join(clean_scene_dir, "seg_labels.rts")
    out = tmp_path / "rep"
    argv = ["eval", "--pred-states", probs if flag == "--pred-states" else labels,
            "--labels", probs if flag == "--labels" else labels, "--out", out]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "seg_probs.rts" in err and "binary" in err
    assert not out.exists()


def test_eval_refuses_state_rasters_that_are_not_a_series(tmp_path, clean_scene_dir, capsys):
    ## a flattened series would be read as one timestamp per pixel
    flat = tmp_path / "flat.rts"
    write_raster(flat, read_raster(os.path.join(clean_scene_dir, "seg_labels.rts")).reshape(-1))
    out = tmp_path / "rep"
    assert run_cli(["eval", "--pred-states", flat, "--labels", flat, "--out", out]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "flat.rts" in err and "(T, H, W)" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--seg-probs", "--ch-probs"])
@pytest.mark.parametrize("command", ["integrate", "eval"])
def test_probability_rasters_outside_unit_interval_are_refused(tmp_path, noisy_scene_dir,
                                                                capsys, command, flag):
    ## a raster of 0..255 values used to fuse as clamped probabilities
    probs = {"--seg-probs": os.path.join(noisy_scene_dir, "seg_probs.rts"),
             "--ch-probs": os.path.join(noisy_scene_dir, "ch_probs.rts")}
    scaled = tmp_path / "scaled.rts"
    write_raster(scaled, read_raster(probs[flag]) * 255.0)
    probs[flag] = scaled
    out = tmp_path / "run"
    argv = [command, "--seg-probs", probs["--seg-probs"], "--ch-probs", probs["--ch-probs"],
            "--edges", os.path.join(noisy_scene_dir, "manifest.json"), "--out", out]
    argv += ["--mode", "dense"] if command == "integrate" else ["--labels", noisy_scene_dir]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "scaled.rts" in err and "[0, 1]" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_raster_with_a_signalling_nan_fails_on_one_line(tmp_path, capsys):
    ## casting the payload to float64 used to warn before the error line
    bad = tmp_path / "snan.rts"
    bad.write_bytes(rts1(SNAN.reshape(1, 2, 2)))
    out = tmp_path / "run"
    assert run_cli(["integrate", "--seg-probs", bad, "--mode", "degenerate", "--out", out]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "snan.rts" in err and "non-finite" in err
    assert not out.exists()


def test_non_binary_values_fail_on_one_line(tmp_path, clean_scene_dir, capsys):
    ## numpy's repr of eight such values used to wrap onto a second line
    labels = tmp_path / "labels.rts"
    write_raster(labels, np.array([0.12345679, 0.2222222, 0.3333333, 0.4444444,
                                   0.5555555, 0.6666666, 0.7777777, 0.88888888]).reshape(2, 2, 2))
    out = tmp_path / "rep"
    argv = ["eval", "--pred-states", os.path.join(clean_scene_dir, "seg_labels.rts"),
            "--labels", labels, "--out", out]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "labels.rts" in err and "found values [0.123457 0.222222" in err
    assert not out.exists()


def _short_change_rows(tmp, scene):
    write_raster(tmp / "ch.rts", read_raster(os.path.join(scene, "ch_probs.rts"))[:2])
    return tmp / "ch.rts", os.path.join(scene, "manifest.json")


def _edges_of_a_longer_series(tmp, scene):
    ## six dense T=4 rows at the scene's extent, against its T=3 segmentation
    write_raster(tmp / "ch.rts", np.full((6, 16, 16), 0.25))
    (tmp / "edges.json").write_text(
        json.dumps(build_edge_set("dense", 4).to_jsonable()), encoding="utf-8"
    )
    return tmp / "ch.rts", tmp / "edges.json"


## name -> (writer of change rows and an edge file that do not fit the T=3
##          scene's seg_probs, the input the error must name)
UNFIT_CHANGE_INPUTS = {
    "change_rows_short": (_short_change_rows, "ch.rts"),
    "edges_of_a_longer_series": (_edges_of_a_longer_series, "seg_probs.rts"),
}


@pytest.mark.parametrize("case", sorted(UNFIT_CHANGE_INPUTS))
def test_eval_refuses_change_inputs_that_do_not_fit(tmp_path, clean_scene_dir, capsys, case):
    ## short rows used to end in an IndexError traceback; a longer series'
    ## edges used to score pairs of the wrong timestamps and exit 0
    write, named = UNFIT_CHANGE_INPUTS[case]
    ch, edges = write(tmp_path, clean_scene_dir)
    out = tmp_path / "rep"
    argv = ["eval", "--seg-probs", os.path.join(clean_scene_dir, "seg_probs.rts"),
            "--ch-probs", ch, "--edges", edges, "--labels", clean_scene_dir, "--out", out]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert named in err
    assert not out.exists()


def _one_timestamp(tmp, scene):
    labels = read_raster(os.path.join(scene, "seg_labels.rts"))
    write_raster(tmp / "states.rts", labels[:1])
    return ["--pred-states", tmp / "states.rts"], "states.rts"


def _states_of_another_length(tmp, scene):
    labels = read_raster(os.path.join(scene, "seg_labels.rts"))
    write_raster(tmp / "states.rts", np.concatenate([labels, labels[:1]]))
    return ["--pred-states", tmp / "states.rts"], "states.rts"


def _states_of_another_extent(tmp, scene):
    labels = read_raster(os.path.join(scene, "seg_labels.rts"))
    write_raster(tmp / "states.rts", labels[:, :8, :])
    return ["--pred-states", tmp / "states.rts"], "states.rts"


def _probs_of_another_extent(tmp, scene):
    ## rows that fit each other and the edge file, at an extent the labels do not have
    for name in ("seg_probs", "ch_probs"):
        write_raster(tmp / f"{name}.rts", read_raster(os.path.join(scene, f"{name}.rts"))[:, :, :8])
    return ["--seg-probs", tmp / "seg_probs.rts", "--ch-probs", tmp / "ch_probs.rts",
            "--edges", os.path.join(scene, "manifest.json")], "seg_probs.rts"


## name -> writer of prediction flags that do not fit the T=3 16x16 labels;
##         it returns them and the input the error must name
UNFIT_PREDICTIONS = {
    "one_timestamp": _one_timestamp,
    "states_of_another_length": _states_of_another_length,
    "states_of_another_extent": _states_of_another_extent,
    "probs_of_another_extent": _probs_of_another_extent,
}


@pytest.mark.parametrize("case", sorted(UNFIT_PREDICTIONS))
def test_eval_names_the_prediction_that_does_not_fit_the_labels(tmp_path, clean_scene_dir,
                                                                 capsys, case):
    ## these used to end in an unnamed "shape mismatch" or edge-set error
    flags, named = UNFIT_PREDICTIONS[case](tmp_path, clean_scene_dir)
    out = tmp_path / "rep"
    assert run_cli(["eval", *flags, "--labels", clean_scene_dir, "--out", out]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert named in err
    assert not out.exists()


def test_scene_dir_ignores_stored_change_labels(tmp_path, clean_scene_dir):
    ## older synth-gen directories also stored the dense change labels; a
    ## stored copy, right or wrong, never replaces those derived from seg_labels
    scene = tmp_path / "scene"
    shutil.copytree(clean_scene_dir, scene)
    write_raster(scene / "change_labels.rts", np.ones((3, 16, 16)))
    manifest = read_manifest(str(scene))
    manifest["outputs"]["change_labels"] = "change_labels.rts"
    (scene / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    dense = build_edge_set("dense", 3)
    loaded = cli.load_scene_dir(str(scene))
    derived = cli.load_scene_dir(clean_scene_dir).change_stack(dense)
    assert np.array_equal(loaded.change_stack(dense), derived)
    assert not derived.all()


## ------------------------------------------------------------------- run dir


def test_env_var_names_default_output_parent(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUT, str(tmp_path))
    argv = ["synth-gen", "--seed", "5", *SCENE_FLAGS]
    assert run_cli(argv) == 0
    assert (tmp_path / "synth-gen" / "manifest.json").exists()


def test_missing_out_and_env_var_fails(monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    argv = ["synth-gen", "--seed", "5", *SCENE_FLAGS]
    assert run_cli(argv) == 1
    assert cli.ENV_OUT in capsys.readouterr().err


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the output directory was resolved")


@pytest.mark.parametrize("command", ["synth-gen", "train", "infer", "integrate", "eval", "ablate"])
def test_missing_out_fails_before_any_work(monkeypatch, capsys, clean_scene_dir, command):
    scene = clean_scene_dir
    argv, first_work = {
        "synth-gen": (["synth-gen", *SCENE_FLAGS], "generate"),
        "train": (["train", "--scenes", scene, "--val-scenes", scene], "train"),
        "infer": (["infer", "--checkpoint", "m.ckpt", "--images", "i.rts"], "load_checkpoint"),
        "integrate": (["integrate", "--seg-probs", "s.rts", "--mode", "degenerate"],
                      "read_raster"),
        "eval": (["eval", "--pred-states", "s.rts", "--labels", "l.rts"], "read_raster"),
        "ablate": (["ablate", "--config", "grid.json"], "_load_json"),
    }[command]
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    monkeypatch.setattr(cli, first_work, _refuse)
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and cli.ENV_OUT in err


def test_run_dir_removes_partial_outputs_on_failure(tmp_path):
    fresh = tmp_path / "fresh"
    with pytest.raises(RuntimeError):
        with cli.RunDir(str(fresh), "test") as run:
            with open(run.path("half.txt"), "w", encoding="utf-8") as fh:
                fh.write("partial")
            raise RuntimeError("boom")
    assert not fresh.exists()
    ## a pre-existing directory survives, only tracked files are removed
    existing = tmp_path / "existing"
    existing.mkdir()
    (existing / "keep.txt").write_text("keep", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with cli.RunDir(str(existing), "test") as run:
            with open(run.path("half.txt"), "w", encoding="utf-8") as fh:
                fh.write("partial")
            raise RuntimeError("boom")
    assert (existing / "keep.txt").exists()
    assert not (existing / "half.txt").exists()


def test_manifest_replay_is_byte_identical(tmp_path, clean_scene_dir):
    config = read_manifest(clean_scene_dir)["config"]
    spec = SceneSpec.from_jsonable(config["spec"])
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest: a.option_strings[0] for a in subparsers.choices["synth-gen"]._actions}
    argv = ["synth-gen"]
    for f in fields(SceneSpec):
        argv += [flags[f.name], getattr(spec, f.name)]
    argv += ["--seg-noise", config["seg_noise"], "--ch-noise", config["ch_noise"],
             "--corrupt-seed", config["corrupt_seed"], "--out", tmp_path / "replay"]
    assert run_cli(argv) == 0
    for name in SCENE_FILES:
        assert file_bytes(os.path.join(clean_scene_dir, name)) == file_bytes(
            os.path.join(tmp_path / "replay", name)
        )


## -------------------------------------------------------------------- ablate


def tiny_spec_jsonable():
    return SceneSpec(
        seed=0, t_len=3, height=16, width=16, n_buildings=4, min_extent=3, max_extent=6
    ).to_jsonable()


def test_ablate_grid(tmp_path, capsys):
    config = {
        "scenes": {"spec": tiny_spec_jsonable(), "train_seeds": [0], "val_seeds": [9]},
        "grid": {
            "t": [3],
            "loss_edges": ["adjacent"],
            "tfr": [True, False],
            "mti_modes": ["degenerate", "adjacent", "dense"],
        },
        "train": {"lr": 1e-3, "batch_size": 1, "max_epochs": 1, "steps_per_epoch": 1,
                  "patience": 1, "patch_size": 8, "candidate_crops": 4},
        "model": {"scales": 2, "base_width": 4},
        "seed": 0,
    }
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "ablate"
    assert run_cli(["ablate", "--config", cfg_path, "--out", out]) == 0
    stdout_rows = json.loads(capsys.readouterr().out)
    with open(out / "table.json", encoding="utf-8") as fh:
        rows = json.load(fh)
    assert stdout_rows == rows
    assert len(rows) == 6  # 2 tfr settings x 3 fusion modes
    for row in rows:
        if row["mode"] == "dense":
            assert "skipped" in row  # dense pairs exceed the adjacent loss edges
        else:
            assert "continuous_f1" in row and "bitemporal_f1" in row
        assert row["attention_params"] == 0 or row["tfr"]
        assert row["n_params"] > 0
    on = [r for r in rows if r["tfr"] and r["mode"] == "degenerate"][0]
    off = [r for r in rows if not r["tfr"] and r["mode"] == "degenerate"][0]
    assert on["attention_params"] > 0
    assert off["attention_params"] == 0
    assert on["n_params"] == off["n_params"] + on["attention_params"]
    with open(out / "table.csv", encoding="utf-8", newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    assert len(csv_rows) == 6


def test_ablate_checkpoint_mode(tmp_path, train_run_dir, capsys):
    ## the checkpoint was trained at t 2; its rows follow grid t
    config = {
        "checkpoint": os.path.join(train_run_dir, "checkpoint.ckpt"),
        "scenes": {"spec": tiny_spec_jsonable(), "train_seeds": [], "val_seeds": [5]},
        "grid": {"t": [3, 4], "mti_modes": ["degenerate", "adjacent"]},
    }
    cfg_path = tmp_path / "ckpt.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "ablate"
    assert run_cli(["ablate", "--config", cfg_path, "--out", out]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["t"], r["mode"]) for r in rows] == [
        (3, "degenerate"), (3, "adjacent"), (4, "degenerate"), (4, "adjacent")
    ]
    for row in rows:
        assert row["edge_kind"] == "adjacent"  # inherited from checkpoint meta
        assert row["checkpoint"] == config["checkpoint"]
        assert "segmentation_f1" in row
    assert rows[0]["segmentation_f1"] != rows[2]["segmentation_f1"]
    with open(out / "table.csv", encoding="utf-8", newline="") as fh:
        assert next(csv.reader(fh))[:4] == ["t", "checkpoint", "edge_kind", "mode"]


## (seg sigma, mode) -> mean bitemporal F1 over scenes 0 and 1 at T=3, 16x16, ch sigma 0.25:
## the figures the fusion sweep script gave before ablate took over its grid
CORRUPTED_TRUTH_F1 = {
    (0.15, "degenerate"): 1.0,
    (0.15, "adjacent"): 1.0,
    (0.15, "dense"): 1.0,
    (0.30, "degenerate"): 0.6341463414634146,
    (0.30, "adjacent"): 0.9498257839721254,
    (0.30, "dense"): 1.0,
    (0.45, "degenerate"): 0.46969328140214217,
    (0.45, "adjacent"): 0.7638917579012601,
    (0.45, "dense"): 0.934640522875817,
}


def test_ablate_corrupted_truth(tmp_path, capsys):
    config = {
        "scenes": {"spec": {"height": 16, "width": 16}, "val_seeds": [0, 1]},
        "grid": {"t": [3], "mti_modes": ["degenerate", "adjacent", "dense"]},
        "corrupt": {"seg_sigma": [0.15, 0.30, 0.45], "ch_sigma": 0.25},
    }
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "ablate"
    assert run_cli(["ablate", "--config", cfg_path, "--out", out]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {(r["seg_sigma"], r["mode"]): r["bitemporal_f1"] for r in rows} == CORRUPTED_TRUTH_F1
    assert len(rows) == 9
    for row in rows:
        assert row["t"] == 3 and row["ch_sigma"] == 0.25
        assert {f"{task}_{m}" for task in cli.TASKS for m in ("f1", "iou")} <= set(row)
    with open(out / "table.csv", encoding="utf-8", newline="") as fh:
        assert next(csv.reader(fh))[:4] == ["t", "seg_sigma", "ch_sigma", "mode"]


@pytest.mark.filterwarnings("error")
def test_ablate_huge_sigma_runs_without_a_warning(tmp_path, capsys):
    config = {
        "scenes": {"spec": {"height": 16, "width": 16}, "val_seeds": [0]},
        "grid": {"t": [3], "mti_modes": ["dense"]},
        "corrupt": {"seg_sigma": [1e308], "ch_sigma": 1e308},
    }
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli(["ablate", "--config", cfg_path, "--out", tmp_path / "ablate"]) == 0
    assert capsys.readouterr().err == ""


SCENE_DIRS = {"train_dirs": ["SCENE"], "val_dirs": ["SCENE"]}
CORRUPT = {"seg_sigma": [0.3], "ch_sigma": 0.25}
## the scenes of a grid that trains nothing: validation scenes alone
VAL_SEEDS = {"spec": tiny_spec_jsonable(), "val_seeds": [1]}

## name -> (sections replacing the valid config's, text the error must name)
ABLATE_CONFIGS = {
    "unknown_mode": ({"grid": {"mti_modes": ["sideways"]}}, "sideways"),
    "grid_not_object": ({"grid": 5}, "'grid'"),
    "modes_not_list": ({"grid": {"mti_modes": 5}}, "'mti_modes'"),
    "t_not_list": ({"grid": {"t": 5}}, "'t'"),
    "model_not_object": ({"model": 5}, "'model'"),
    "train_not_object": ({"train": [1e-3]}, "'train'"),
    "scenes_not_object": ({"scenes": "scene0"}, "'scenes'"),
    "tfr_not_bool": ({"grid": {"tfr": [True, 3]}}, "'tfr'"),
    "spec_not_object": (
        {"scenes": {"spec": 5, "train_seeds": [0], "val_seeds": [1]}}, "'spec'"
    ),
    "train_seeds_not_list": (
        {"scenes": {"spec": tiny_spec_jsonable(), "train_seeds": 5, "val_seeds": [1]}},
        "'train_seeds'",
    ),
    "val_seeds_not_ints": (
        {"scenes": {"spec": tiny_spec_jsonable(), "train_seeds": [0], "val_seeds": ["1"]}},
        "'val_seeds'",
    ),
    "train_dirs_not_strings": ({"scenes": {"train_dirs": [5], "val_dirs": []}}, "'train_dirs'"),
    "val_dirs_not_list": ({"scenes": {"train_dirs": [], "val_dirs": "v"}}, "'val_dirs'"),
    ## fusion threads come from the cores the process may use, as for infer
    "workers_removed": ({"workers": 2}, "AblateConfig.workers: unknown key"),
    ## each case below used to train or generate before failing, or to run on a cast value
    "loss_edges_unknown": ({"grid": {"loss_edges": ["adjacent", "sideways"]}}, "'sideways'"),
    "t_float": ({"grid": {"t": [3.9]}}, "AblateConfig.grid.t[0]: expected int"),
    "t_too_short": ({"grid": {"t": [3, 1]}}, "t_train must be >= 2"),
    ## more buildings than pixels used to hang in the building loop
    "buildings_exceed_pixels": (
        {"scenes": {"spec": {**tiny_spec_jsonable(), "n_buildings": 2**40},
                    "train_seeds": [0], "val_seeds": [1]}},
        "n_buildings",
    ),
    ## grid t is the one series length; scenes.t was ignored outside checkpoint mode
    "scenes_t_removed": (
        {"scenes": {"spec": tiny_spec_jsonable(), "t": 3, "train_seeds": [0],
                    "val_seeds": [1]}},
        "AblateConfig.scenes.t: unknown key",
    ),
    "no_train_scenes": (
        {"scenes": {"spec": tiny_spec_jsonable(), "train_seeds": [], "val_seeds": [1]}},
        "no training scene",
    ),
    ## "SCENE" stands for the T=3 directory that the clean_scene_dir fixture writes
    "t_exceeds_scene_dirs": (
        {"grid": {"t": [3, 5]}, "scenes": SCENE_DIRS},
        "grid t [5] exceeds the shortest training series, 3 timestamps",
    ),
    ## "TRAINED" stands for the checkpoint that the train_run_dir fixture writes
    "checkpoint_no_val_scenes": (
        {"checkpoint": "TRAINED", "scenes": {"spec": tiny_spec_jsonable(), "train_seeds": [0],
                                             "val_seeds": []}},
        "no validation scene",
    ),
    "checkpoint_t_too_short": (
        {"checkpoint": "TRAINED", "grid": {"t": [3, 1]}, "scenes": VAL_SEEDS},
        "a scene needs at least 2 timestamps",
    ),
    ## a checkpoint evaluates stored scenes whole, as corrupted truth does
    "checkpoint_t_differs_from_scene_dirs": (
        {"checkpoint": "TRAINED", "grid": {"t": [2, 3]}, "scenes": {"val_dirs": ["SCENE"]}},
        "grid t [2] differs from the stored validation series, 3 timestamps",
    ),
    ## a misspelt key used to be ignored, so "corupt" ran a full training grid
    "unknown_key": ({"corupt": CORRUPT}, "AblateConfig.corupt: unknown key"),
    "unknown_nested_key": (
        {"grid": {"mti_mode": ["dense"]}}, "AblateConfig.grid.mti_mode: unknown key"
    ),
    "unknown_corrupt_key": (
        {"corrupt": dict(CORRUPT, ch_sigmas=0.25)}, "AblateConfig.corrupt.ch_sigmas: unknown key"
    ),
    "corrupt_and_checkpoint": (
        {"checkpoint": "TRAINED", "corrupt": CORRUPT}, "checkpoint and corrupt exclude each other"
    ),
    "corrupt_and_missing_checkpoint": (
        {"checkpoint": "missing.ckpt", "corrupt": CORRUPT},
        "checkpoint and corrupt exclude each other",
    ),
    "corrupt_no_ch_sigma": ({"corrupt": {"seg_sigma": [0.3]}}, "missing key 'ch_sigma'"),
    "corrupt_negative_sigma": (
        {"corrupt": dict(CORRUPT, seg_sigma=[0.3, -0.1])}, "corruption sigmas must be >= 0"
    ),
    "corrupt_t_too_short": (
        {"grid": {"t": [3, 1]}, "scenes": VAL_SEEDS, "corrupt": CORRUPT},
        "a scene needs at least 2 timestamps",
    ),
    ## stored scenes are evaluated as stored: a row of another t would repeat them
    "corrupt_t_differs_from_scene_dirs": (
        {"grid": {"t": [3, 4]}, "scenes": {"val_dirs": ["SCENE"]}, "corrupt": CORRUPT},
        "grid t [4] differs from the stored validation series, 3 timestamps",
    ),
    ## an empty list used to exit 0 with an empty table
    "t_empty": ({"grid": {"t": []}}, "grid t lists nothing"),
    "modes_empty": ({"grid": {"mti_modes": []}}, "grid mti_modes lists nothing"),
    "loss_edges_empty": ({"grid": {"loss_edges": []}}, "grid loss_edges lists nothing"),
    "tfr_empty": ({"grid": {"tfr": []}}, "grid tfr lists nothing"),
    "corrupt_seg_sigma_empty": (
        {"corrupt": dict(CORRUPT, seg_sigma=[])}, "corrupt seg_sigma lists nothing"
    ),
    ## each case below generated its scenes or trained before failing
    "patch_size_zero": ({"train": {"patch_size": 0}}, "patch_size must be >= 1"),
    "corrupt_nan_sigma": ({"corrupt": dict(CORRUPT, seg_sigma=[0.3, float("nan")])},
                          "seg_sigma"),
    "dense_beyond_t_max": ({"grid": {"t": [4, 21]}}, "dense caps t at 20, got t 21"),
    "corrupt_dense_beyond_t_max": (
        {"grid": {"t": [21]}, "corrupt": CORRUPT}, "dense caps t at 20, got t 21"
    ),
    ## each case below exited 0 with the table it gives without the unread settings
    "corrupt_unread_settings": (
        {"corrupt": CORRUPT, "scenes": VAL_SEEDS, "train": {"lr": 5.0},
         "model": {"scales": 5}, "grid": {"loss_edges": ["adjacent"], "tfr": [False]}},
        "a corrupt grid trains no model and reads no model, train, grid.loss_edges, grid.tfr",
    ),
    "checkpoint_train_seeds": (
        {"checkpoint": "TRAINED"}, "a checkpoint grid trains no model and reads no "
        "scenes.train_seeds",
    ),
    "corrupt_train_dirs": (
        {"corrupt": CORRUPT, "scenes": SCENE_DIRS},
        "a corrupt grid trains no model and reads no scenes.train_dirs",
    ),
    ## the one row averaged the directory, and the seeds were never generated
    "scene_dirs_beside_seeds": (
        {"corrupt": CORRUPT, "scenes": {"val_dirs": ["SCENE"], "val_seeds": [7, 8, 9]}},
        "scene directories replace scenes.val_seeds",
    ),
    "scene_dirs_beside_spec": (
        {"scenes": {**SCENE_DIRS, "spec": {"height": 32}}},
        "scene directories replace scenes.spec",
    ),
}


def _no_work(*args, **kwargs):
    raise AssertionError("ablate generated a scene or trained before checking its config")


@pytest.mark.parametrize("case", sorted(ABLATE_CONFIGS))
def test_ablate_rejects_malformed_config(tmp_path, capsys, monkeypatch, train_run_dir,
                                        clean_scene_dir, case):
    sections, text = ABLATE_CONFIGS[case]
    if sections.get("checkpoint") == "TRAINED":
        sections = dict(sections, checkpoint=os.path.join(train_run_dir, "checkpoint.ckpt"))
    if isinstance(sections.get("scenes"), dict):
        sections = dict(sections, scenes={k: [clean_scene_dir] if v == ["SCENE"] else v
                                          for k, v in sections["scenes"].items()})
    monkeypatch.setattr(cli, "generate", _no_work)
    monkeypatch.setattr(cli, "train", _no_work)
    monkeypatch.setattr(cli, "load_checkpoint", _no_work)
    config = {"scenes": {"spec": tiny_spec_jsonable(), "train_seeds": [0],
                         "val_seeds": [1]},
              **sections}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["ablate", "--config", cfg_path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert text in err
    assert not out.exists()


def test_ablate_corrupted_scene_dirs_report_their_length(tmp_path, capsys, clean_scene_dir):
    config = {"scenes": {"val_dirs": [clean_scene_dir]}, "grid": {"t": [3]}, "corrupt": CORRUPT}
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli(["ablate", "--config", cfg_path, "--out", tmp_path / "ablate"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["mode"] for r in rows] == ["degenerate", "dense"]
    assert all(r["t"] == 3 for r in rows)


def test_ablate_skips_a_mode_infeasible_at_any_validation_length(tmp_path, capsys,
                                                                 clean_scene_dir):
    ## cyclic edges hold every dense pair at T=3 but not at T=4, and the
    ## T=4 scene comes second, so the first scene alone would allow dense
    long_dir = make_scene_dir(tmp_path / "scene_t4", seed=2, extra=["--t", "4"])
    config = {
        "scenes": {"train_dirs": [clean_scene_dir], "val_dirs": [clean_scene_dir, long_dir]},
        "grid": {"t": [3], "loss_edges": ["cyclic"], "tfr": [False],
                 "mti_modes": ["degenerate", "dense"]},
        "train": {"lr": 1e-3, "batch_size": 1, "max_epochs": 1, "steps_per_epoch": 1,
                  "patience": 1, "patch_size": 8, "candidate_crops": 4},
        "model": {"scales": 2, "base_width": 4},
    }
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli(["ablate", "--config", cfg_path, "--out", tmp_path / "ablate"]) == 0
    degenerate, dense = json.loads(capsys.readouterr().out)
    assert degenerate["mode"] == "degenerate" and "continuous_f1" in degenerate
    assert dense["mode"] == "dense"
    assert dense["skipped"] == "dense edges exceed trained kind cyclic"


TRAIN_HELP = """\
usage: changeseries train [-h] --scenes SCENES [SCENES ...] --val-scenes
                          VAL_SCENES [VAL_SCENES ...] [--lr LR]
                          [--weight-decay WEIGHT_DECAY]
                          [--batch-size BATCH_SIZE] [--max-epochs MAX_EPOCHS]
                          [--steps-per-epoch STEPS_PER_EPOCH]
                          [--patience PATIENCE] [--patch-size PATCH_SIZE]
                          [--candidate-crops CANDIDATE_CROPS]
                          [--base-prob BASE_PROB] [--t-train T_TRAIN]
                          [--edge-kind {adjacent,cyclic,dense}] [--seed SEED]
                          [--scales SCALES] [--base-width BASE_WIDTH]
                          [--heads HEADS] [--attn-layers ATTN_LAYERS]
                          [--no-batchnorm] [--tfr | --no-tfr] [--out OUT]

options:
  -h, --help            show this help message and exit
  --scenes SCENES [SCENES ...]
  --val-scenes VAL_SCENES [VAL_SCENES ...]
  --lr LR
  --weight-decay WEIGHT_DECAY
  --batch-size BATCH_SIZE
  --max-epochs MAX_EPOCHS
  --steps-per-epoch STEPS_PER_EPOCH
  --patience PATIENCE
  --patch-size PATCH_SIZE
  --candidate-crops CANDIDATE_CROPS
  --base-prob BASE_PROB
  --t-train T_TRAIN
  --edge-kind {adjacent,cyclic,dense}
  --seed SEED
  --scales SCALES
  --base-width BASE_WIDTH
  --heads HEADS
  --attn-layers ATTN_LAYERS
  --no-batchnorm
  --tfr
  --no-tfr
  --out OUT
"""


def test_train_help_is_pinned(monkeypatch, capsys):
    ## the model flags come from BackboneConfig and TemporalConfig; the text must not move
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["train", "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == TRAIN_HELP


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["--version"])
    assert excinfo.value.code == 0
    assert "changeseries" in capsys.readouterr().out


## every subcommand's actions as (option strings, default, choices, required);
## a flag added, dropped, renamed or given a moved default shows here
SUBCOMMAND_FLAGS = {
    "synth-gen": [
        (["-h", "--help"], "==SUPPRESS==", None, False),
        (["--seed"], 0, None, False),
        (["--t"], 4, None, False),
        (["--height"], 64, None, False),
        (["--width"], 64, None, False),
        (["--channels"], 3, None, False),
        (["--buildings"], 12, None, False),
        (["--min-extent"], 6, None, False),
        (["--max-extent"], 14, None, False),
        (["--noise-sigma"], 0.03, None, False),
        (["--illumination-jitter"], 0.06, None, False),
        (["--demolition-rate"], 0.0, None, False),
        (["--seg-noise"], 0.0, None, False),
        (["--ch-noise"], 0.0, None, False),
        (["--corrupt-seed"], None, None, False),
        (["--out"], None, None, False),
    ],
    "train": [
        (["-h", "--help"], "==SUPPRESS==", None, False),
        (["--scenes"], None, None, True),
        (["--val-scenes"], None, None, True),
        (["--lr"], 0.0001, None, False),
        (["--weight-decay"], 0.01, None, False),
        (["--batch-size"], 4, None, False),
        (["--max-epochs"], 100, None, False),
        (["--steps-per-epoch"], 10, None, False),
        (["--patience"], 10, None, False),
        (["--patch-size"], 64, None, False),
        (["--candidate-crops"], 20, None, False),
        (["--base-prob"], 0.05, None, False),
        (["--t-train"], 4, None, False),
        (["--edge-kind"], "dense", ("adjacent", "cyclic", "dense"), False),
        (["--seed"], 0, None, False),
        (["--scales"], 3, None, False),
        (["--base-width"], 8, None, False),
        (["--heads"], 2, None, False),
        (["--attn-layers"], 2, None, False),
        (["--no-batchnorm"], False, None, False),
        (["--tfr"], True, None, False),
        (["--no-tfr"], True, None, False),
        (["--out"], None, None, False),
    ],
    "infer": [
        (["-h", "--help"], "==SUPPRESS==", None, False),
        (["--checkpoint"], None, None, True),
        (["--images"], None, None, True),
        (["--edge-kind"], None, ("adjacent", "cyclic", "dense"), False),
        (["--out"], None, None, False),
    ],
    "integrate": [
        (["-h", "--help"], "==SUPPRESS==", None, False),
        (["--seg-probs"], None, None, True),
        (["--ch-probs"], None, None, False),
        (["--edges"], None, None, False),
        (["--mode"], None, ("degenerate", "adjacent", "cyclic", "dense"), True),
        (["--out"], None, None, False),
    ],
    "eval": [
        (["-h", "--help"], "==SUPPRESS==", None, False),
        (["--pred-states"], None, None, False),
        (["--seg-probs"], None, None, False),
        (["--ch-probs"], None, None, False),
        (["--edges"], None, None, False),
        (["--labels"], None, None, True),
        (["--task"], "all", ("bitemporal", "continuous", "segmentation", "all"), False),
        (["--out"], None, None, False),
    ],
    "ablate": [
        (["-h", "--help"], "==SUPPRESS==", None, False),
        (["--config"], None, None, True),
        (["--out"], None, None, False),
    ],
}


def test_subcommand_flags_are_pinned():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: [(a.option_strings, a.default, a.choices, a.required) for a in sub._actions]
        for name, sub in subparsers.choices.items()
    }
    assert got == SUBCOMMAND_FLAGS
