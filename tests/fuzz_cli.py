"""Seeded fuzzing of the command line's failure contract.

    PYTHONPATH=src python tests/fuzz_cli.py --first 0 --count 200 --workdir DIR

The process caps its own address space at 1 GiB (RLIMIT_AS), builds a
small set of valid inputs under DIR (a T=3 16x16 scene, a one-step
checkpoint, its inference and fusion outputs, an edge set file and two
ablate grids), then calls cli.main in process, in DIR, once per run index.
Run i copies the inputs and draws from random.Random(i) one mutation of
one of them:

- bytes of a file the CLI reads (checkpoint, image, probability, state or
  label raster, scene or run manifest, edge set, grid file): bytes flipped
  or overwritten, the file cut short or extended;
- one value of a JSON file (grid, edge set or manifest) set to 0, a
  negative number, NaN, +-inf, a value of the wrong JSON type or an empty
  list;
- one numeric flag of synth-gen or train set to 0, a negative number, NaN
  or +-inf.

Valid but large values, which only grow the work, are never drawn.  Every
run must exit 0 with empty stderr, or exit 1 with exactly one non-empty
"error:" line on stderr and no run directory.  Warnings are errors, and an
alarm ends a run after --alarm seconds.  The script prints a JSON list of
the runs that broke the contract, each with its index and argv, and exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import sys
import traceback
import warnings

from changeseries import cli

SCENE_FLAGS = [
    "--t", "3", "--height", "16", "--width", "16", "--buildings", "4",
    "--min-extent", "3", "--max-extent", "6",
]
TRAIN_FLAGS = [
    "--scales", "2", "--base-width", "4", "--heads", "2", "--attn-layers", "1",
    "--t-train", "2", "--edge-kind", "adjacent", "--patch-size", "8", "--batch-size", "1",
    "--max-epochs", "1", "--steps-per-epoch", "1", "--patience", "1", "--candidate-crops", "2",
]
MODES = ("degenerate", "adjacent", "cyclic", "dense")

## input name -> its path under the base directory
INPUTS = {
    "checkpoint": "train/checkpoint.ckpt",
    "images": "scene/images.rts",
    "seg_labels": "scene/seg_labels.rts",
    "scene_manifest": "scene/manifest.json",
    "seg_probs": "infer/seg_probs.rts",
    "ch_probs": "infer/ch_probs.rts",
    "run_manifest": "infer/manifest.json",
    "states": "fused/states.rts",
    "edges": "edges.json",
    "corrupt_grid": "corrupt_grid.json",
    "train_grid": "train_grid.json",
}

SCENE = ("images", "seg_labels", "scene_manifest")
## (argv with "{input}" placeholders, "SCENE" for the scene directory and
## "MODE" for a drawn fusion mode; the inputs the command reads)
COMMANDS = [
    (["infer", "--checkpoint", "{checkpoint}", "--images", "{images}"], ("checkpoint", "images")),
    (["integrate", "--seg-probs", "{seg_probs}", "--ch-probs", "{ch_probs}",
      "--edges", "{run_manifest}", "--mode", "MODE"], ("seg_probs", "ch_probs", "run_manifest")),
    (["integrate", "--seg-probs", "{seg_probs}", "--ch-probs", "{ch_probs}",
      "--edges", "{edges}", "--mode", "MODE"], ("seg_probs", "ch_probs", "edges")),
    (["eval", "--pred-states", "{states}", "--labels", "SCENE"], ("states", *SCENE)),
    (["eval", "--seg-probs", "{seg_probs}", "--ch-probs", "{ch_probs}", "--edges", "{edges}",
      "--labels", "{seg_labels}"], ("seg_probs", "ch_probs", "edges", "seg_labels")),
    (["train", "--scenes", "SCENE", "--val-scenes", "SCENE", *TRAIN_FLAGS], SCENE),
    (["ablate", "--config", "{corrupt_grid}"], ("corrupt_grid",)),
    (["ablate", "--config", "{train_grid}"], ("train_grid",)),
]

INT_VALUES = ("0", "-1", "-9")
FLOAT_VALUES = ("0", "-1", "-0.5", "nan", "inf", "-inf")
JSON_VALUES = (0, -1, -2.5, math.nan, math.inf, -math.inf, "x", True, None, [], {})


class Alarm(BaseException):
    """Raised by the per-run alarm; no handler in the CLI catches it."""


def _on_alarm(signum, frame):
    raise Alarm()


def run_main(argv: list[str]) -> tuple[int | None, str, str | None]:
    """(exit code, stderr, escaped exception) of cli.main(argv)."""
    err = io.StringIO()
    escaped = None
    code = None
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except Alarm:
            escaped = "timed out"
        ## any exception that escapes main breaks the contract
        except BaseException as exc:
            escaped = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return code, err.getvalue(), escaped


def build_inputs(base: str) -> None:
    """The valid inputs that each run mutates one of."""
    def path(name):
        return os.path.join(base, INPUTS[name])

    scene = os.path.join(base, "scene")
    steps = [
        ["synth-gen", "--seed", "0", *SCENE_FLAGS, "--seg-noise", "0.2", "--ch-noise", "0.2",
         "--out", scene],
        ["train", "--scenes", scene, "--val-scenes", scene, *TRAIN_FLAGS,
         "--out", os.path.join(base, "train")],
        ["infer", "--checkpoint", path("checkpoint"), "--images", path("images"),
         "--out", os.path.join(base, "infer")],
        ["integrate", "--seg-probs", path("seg_probs"), "--ch-probs", path("ch_probs"),
         "--edges", path("run_manifest"), "--mode", "adjacent",
         "--out", os.path.join(base, "fused")],
    ]
    for argv in steps:
        if cli.main(argv) != 0:
            raise SystemExit(f"building the inputs failed at {argv[0]}")
    grids = {
        "edges": {"kind": "dense", "t": 3},
        "corrupt_grid": {
            "scenes": {"val_dirs": [scene]},
            "grid": {"t": [3], "mti_modes": ["degenerate", "adjacent", "dense"]},
            "corrupt": {"seg_sigma": [0.2, 0.4], "ch_sigma": 0.3},
        },
        "train_grid": {
            "scenes": {
                "spec": {"t": 3, "height": 16, "width": 16, "n_buildings": 4,
                         "min_extent": 3, "max_extent": 6},
                "train_seeds": [0],
                "val_seeds": [1],
            },
            "grid": {"t": [3], "mti_modes": ["degenerate", "dense"],
                     "loss_edges": ["adjacent"], "tfr": [False]},
            "model": {"scales": 2, "base_width": 4},
            "train": {"batch_size": 1, "max_epochs": 1, "steps_per_epoch": 1, "patience": 1,
                      "patch_size": 8, "candidate_crops": 2},
        },
    }
    for name, obj in grids.items():
        with open(path(name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


def mutate_bytes(path: str, rng: random.Random) -> str:
    """Change the file's bytes in one of five ways; returns what was done."""
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    how = rng.choice(["flip", "overwrite", "word", "truncate", "extend"])
    at = rng.randrange(len(data))
    if how == "flip":
        for _ in range(rng.randint(1, 8)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    elif how == "overwrite":
        span = rng.randint(1, 16)
        data[at : at + span] = bytes(rng.randrange(256) for _ in range(span))
    elif how == "word":
        ## a 32-bit word a header might read as a length, an extent or a float
        word = rng.choice([0, 1, 0xFFFFFFFF, 0x7FFFFFFF, 0x7FC00000, 0x7F800000, 1 << 20])
        data[at : at + 4] = word.to_bytes(4, "little")
    elif how == "truncate":
        del data[at:]
    else:
        data += bytes(rng.randrange(256) for _ in range(rng.randint(1, 64)))
    with open(path, "wb") as fh:
        fh.write(data)
    return f"{how} at {at}"


def json_slots(obj, path=()):
    """(path, value) of every value inside a JSON object, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)) and value:
            yield from json_slots(value, path + (key,))


def mutate_json_value(path: str, rng: random.Random) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    slot, _ = rng.choice(list(json_slots(obj)))
    value = rng.choice(JSON_VALUES)
    parent = obj
    for key in slot[:-1]:
        parent = parent[key]
    parent[slot[-1]] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return f"{'.'.join(map(str, slot))} = {json.dumps(value)}"


def numeric_flags(command: str) -> list[tuple[str, type]]:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(a.option_strings[0], a.type) for a in sub.choices[command]._actions
            if a.type in (int, float)]


def draw_run(i: int, run_dir: str) -> tuple[list[str], str]:
    """Run i's argv, over a copy of the inputs under run_dir with one of them mutated."""
    rng = random.Random(i)
    kind = rng.choice(["bytes", "bytes", "json_value", "flag"])
    inputs = os.path.join(run_dir, "in")
    shutil.copytree("base", inputs)
    scene = os.path.join(inputs, "scene")
    if kind == "flag":
        command = rng.choice(["synth-gen", "train"])
        flag, ftype = rng.choice(numeric_flags(command))
        value = rng.choice(INT_VALUES if ftype is int else FLOAT_VALUES)
        argv = (["synth-gen", *SCENE_FLAGS] if command == "synth-gen" else
                ["train", "--scenes", scene, "--val-scenes", scene, *TRAIN_FLAGS])
        return [*argv, f"{flag}={value}"], f"{flag}={value}"
    target = rng.choice([n for n in INPUTS if kind == "bytes" or INPUTS[n].endswith(".json")])
    template = rng.choice([argv for argv, reads in COMMANDS if target in reads])
    mutate = mutate_bytes if kind == "bytes" else mutate_json_value
    what = mutate(os.path.join(inputs, INPUTS[target]), rng)
    argv = []
    for arg in template:
        if arg == "MODE":
            arg = rng.choice(MODES)
        elif arg == "SCENE":
            arg = scene
        elif arg.startswith("{"):
            arg = os.path.join(inputs, INPUTS[arg[1:-1]])
        argv.append(arg)
    return argv, f"{target}: {what}"


def broken(code, err: str, escaped, out: str) -> str | None:
    """Why the outcome breaks the contract, or None."""
    if escaped is not None:
        return escaped
    if code == 0:
        return None if err == "" else "exit 0 with stderr"
    lines = err.splitlines()
    if code != 1 or len(lines) != 1 or not lines[0].startswith("error:"):
        return f"exit {code} with {len(lines)} stderr lines"
    if not lines[0][len("error:"):].strip():
        return "empty error line"
    if os.path.exists(out):
        return "left a run directory"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--alarm", type=int, default=20, help="seconds each run may take")
    args = parser.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
    warnings.simplefilter("error")
    signal.signal(signal.SIGALRM, _on_alarm)
    ## relative paths keep the grid files' bytes independent of the work directory
    os.chdir(args.workdir)
    build_inputs("base")
    failures = []
    for i in range(args.first, args.first + args.count):
        run_dir = f"run{i}"
        argv, what = draw_run(i, run_dir)
        out = os.path.join(run_dir, "out")
        signal.alarm(args.alarm)
        try:
            code, err, escaped = run_main([*argv, "--out", out])
        finally:
            signal.alarm(0)
        why = broken(code, err, escaped, out)
        if why is not None:
            failures.append({"run": i, "why": why, "mutation": what, "argv": argv,
                             "stderr": err[-2000:]})
        shutil.rmtree(run_dir)
    json.dump(failures, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
