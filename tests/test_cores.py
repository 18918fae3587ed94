"""Work split between the cores: bitwise equal to one core at every worker count."""

import ast
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from changeseries import cli, cores, layers, temporal
from changeseries.backbone import BackboneConfig, save_checkpoint
from changeseries.layers import BatchNorm2d, BatchNormReLU, Conv2d
from changeseries.model import ChangeModel, ModelConfig
from changeseries.rng import SeededRng
from changeseries.synthgen import SceneSpec, generate
from changeseries.temporal import TemporalConfig, TemporalRefiner
from changeseries.tensor import read_raster
from changeseries.trainer import TrainConfig, train

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
WORKER_COUNTS = (1, 2, 3)

needs_blas = pytest.mark.skipif(
    cores._blas_handle() is None, reason="OpenBLAS thread count cannot be set: nothing splits"
)


def centered(rng, shape):
    return rng.uniform(shape) * 2.0 - 1.0


def bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture
def split_everything(monkeypatch):
    """Split every layer that can split, whatever its size."""
    monkeypatch.setattr(layers, "CONV_SPLIT_COLUMNS", 0)
    monkeypatch.setattr(layers, "BAND_MACS", 0)
    monkeypatch.setattr(layers, "NORM_SPLIT_CELLS", 0)
    monkeypatch.setattr(temporal, "TILE_HIDDEN_BYTES", 0)


def at_workers(monkeypatch, n, fn):
    """fn() inside a threaded() block with n workers."""
    monkeypatch.setattr(cores, "WORKERS", n)
    with cores.threaded():
        return fn()


def test_ranges_cover_and_balance():
    for n in (0, 1, 2, 7, 64):
        for parts in (1, 2, 3, 5):
            got = cores.ranges(n, parts)
            assert len(got) == parts
            assert got[0][0] == 0 and got[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(got, got[1:]))
            sizes = [hi - lo for lo, hi in got]
            assert max(sizes) - min(sizes) <= 1


def blas_threads():
    """OpenBLAS's thread count now, read through its own getter."""
    return cores._blas_handle()[1]()


@needs_blas
def test_threaded_holds_blas_at_one_thread_and_restores_it(monkeypatch):
    monkeypatch.setattr(cores, "WORKERS", 2)
    before = blas_threads()
    seen = []
    with cores.threaded():
        seen.append(blas_threads())
        with cores.threaded():
            seen.append(blas_threads())
        seen.append(blas_threads())
        cores.run(lambda lo, hi: seen.append(blas_threads()), 2, cores.splitting())
    assert seen == [1] * 5
    assert blas_threads() == before == cores._blas_handle()[2]


def test_one_worker_leaves_blas_alone(monkeypatch):
    monkeypatch.setattr(cores, "WORKERS", 1)
    with cores.threaded():
        assert cores._pinned == 0
        assert cores.splitting() == 1


def test_nothing_splits_outside_a_threaded_block(monkeypatch):
    monkeypatch.setattr(cores, "WORKERS", 2)
    calls = []
    cores.run(lambda lo, hi: calls.append((lo, hi, threading.current_thread())), 5, 2)
    assert calls == [(0, 5, threading.current_thread())]


@needs_blas
@pytest.mark.parametrize("n", WORKER_COUNTS)
def test_run_covers_every_item_once_and_never_nests(monkeypatch, n):
    seen, nested = [], []
    lock = threading.Lock()

    def part(lo, hi):
        with lock:
            seen.extend(range(lo, hi))
        ## split work inside split work runs whole, on its own thread
        cores.run(lambda a, b: nested.append((a, b)), 4, cores.splitting())

    at_workers(monkeypatch, n, lambda: cores.run(part, 10, cores.splitting()))
    assert sorted(seen) == list(range(10))
    assert nested == [(0, 4)] * n


@needs_blas
def test_run_raises_a_part_error_after_every_part_finished(monkeypatch):
    done = []

    def part(lo, hi):
        if lo:
            raise RuntimeError("part failed")
        time.sleep(0.05)
        done.append(lo)

    with pytest.raises(RuntimeError, match="part failed"):
        at_workers(monkeypatch, 2, lambda: cores.run(part, 2, cores.splitting()))
    assert done == [0]
    assert cores._pinned == 0


## (B, C_in, C_out, H, W): odd H, H=2, H=1 (a single band), W=1, B=1
CONV_CASES = [
    (2, 3, 4, 9, 64),
    (3, 5, 7, 33, 8),
    (1, 4, 6, 2, 64),
    (2, 3, 5, 1, 64),
    (2, 3, 4, 130, 1),
    (1, 8, 8, 20, 32),
]


@pytest.mark.parametrize("case", CONV_CASES, ids=lambda c: "x".join(map(str, c)))
def test_banded_conv_equals_the_unsplit_conv(monkeypatch, split_everything, case):
    b, cin, cout, h, w = case
    rng = SeededRng(sum(case))
    x = centered(rng, (b, cin, h, w))
    dy = centered(rng, (b, cout, h, w))

    def run(n):
        conv = Conv2d(cin, cout, 3, SeededRng(7))
        return at_workers(monkeypatch, n, lambda: (conv.forward(x), conv.backward(dy)))

    ## outside a block the conv is the one-GEMM-per-image path
    monkeypatch.setattr(cores, "WORKERS", 1)
    conv = Conv2d(cin, cout, 3, SeededRng(7))
    want_y, want_dx = conv.forward(x), conv.backward(dy)
    for n in WORKER_COUNTS:
        unit, bands = layers._bands(h, w, cout * cin * 9, n)
        assert bands == min(n, -(-h // unit))
        y, dx = run(n)
        assert bits_equal(y, want_y), n
        assert bits_equal(dx, want_dx), n
        assert y.flags.c_contiguous and dx.flags.c_contiguous


def test_bands_keep_every_band_above_the_small_matrix_size():
    ## 64-wide rows, 288 multiply-adds per pixel: a band needs 57 rows
    assert layers._bands(128, 64, 288, 2) == (1, 2)
    assert layers._bands(100, 64, 288, 2) == (1, 1)
    assert layers._bands(171, 64, 288, 3) == (1, 3)
    assert layers._bands(170, 64, 288, 3) == (1, 2)
    ## 32-wide rows come in pairs, 64 pixels a unit; a band needs 2 rows,
    ## and an odd H leaves the last band a row short
    assert layers._bands(8, 32, 1 << 14, 4) == (2, 4)
    assert layers._bands(7, 32, 1 << 14, 4) == (2, 2)


def test_one_by_one_conv_never_splits(monkeypatch, split_everything):
    rng = SeededRng(31)
    x = centered(rng, (3, 5, 9, 64))
    conv = Conv2d(5, 4, 1, SeededRng(8))
    want = conv.forward(x, keep=False)
    calls = []
    monkeypatch.setattr(cores, "run", lambda *a: calls.append(a))
    for n in WORKER_COUNTS:
        assert bits_equal(at_workers(monkeypatch, n, lambda: conv.forward(x, keep=False)), want)
    assert calls == []


@pytest.mark.parametrize("channels", [1, 2, 5, 7])
@pytest.mark.parametrize("fused", [False, True])
def test_split_batchnorm_equals_the_unsplit_one(monkeypatch, split_everything, channels, fused):
    rng = SeededRng(40 + channels)
    x = centered(rng, (3, channels, 7, 9)) * 3.0 + 0.5
    dy = centered(rng, (3, channels, 7, 9))

    def run(n):
        norm = (BatchNormReLU if fused else BatchNorm2d)(channels)
        norm.gamma.value = np.linspace(0.5, 1.5, channels)
        norm.beta.value = np.linspace(-0.2, 0.3, channels)

        def step():
            y = norm.forward(x)
            return y, norm.backward(dy), norm.forward(x, keep=False)

        return at_workers(monkeypatch, n, step)

    want = run(1)
    for n in WORKER_COUNTS[1:]:
        for got, ref in zip(run(n), want):
            assert bits_equal(got, ref), n


## (T, D, H, W): P not a multiple of the tile, P under one tile, T=2
REFINER_CASES = [(3, 4, 5, 7), (4, 4, 1, 3), (2, 8, 6, 6)]


@pytest.mark.parametrize("codes", [True, False])
@pytest.mark.parametrize("case", REFINER_CASES, ids=lambda c: "x".join(map(str, c)))
@pytest.mark.parametrize("hidden_bytes", [0, 5000, 1 << 20])
def test_tiled_refiner_equals_the_kept_forward(monkeypatch, case, codes, hidden_bytes):
    t, d, h, w = case
    monkeypatch.setattr(temporal, "TILE_HIDDEN_BYTES", hidden_bytes)
    cfg = TemporalConfig(heads=2, layers=2, use_position_codes=codes)
    refiner = TemporalRefiner(d, cfg, SeededRng(50 + t))
    x = centered(SeededRng(60 + d), case)
    want = refiner.forward(x, keep=True)
    for n in WORKER_COUNTS:
        got = at_workers(monkeypatch, n, lambda: refiner.forward(x, keep=False))
        assert bits_equal(got, want), n


def test_refiner_tiles_are_at_least_two_pixels(monkeypatch):
    monkeypatch.setattr(temporal, "TILE_HIDDEN_BYTES", 0)
    sizes = []
    refiner = TemporalRefiner(4, TemporalConfig(heads=2, layers=1), SeededRng(3))
    inner = refiner.blocks[0].forward

    def spy(x, keep):
        sizes.append(x.shape[2])
        return inner(x, keep=keep)

    monkeypatch.setattr(refiner.blocks[0], "forward", spy)
    refiner.forward(centered(SeededRng(4), (2, 4, 3, 3)), keep=False)
    assert sizes == [2, 2, 2, 3]


def _tiny_training():
    spec = dict(t_len=3, height=16, width=16, n_buildings=4, min_extent=3, max_extent=6)
    scenes = [generate(SceneSpec(seed=s, **spec)) for s in (0, 1)]
    model_cfg = ModelConfig(
        backbone=BackboneConfig(scales=2, base_width=4, in_channels=3),
        temporal=TemporalConfig(heads=2, layers=1),
        seed=0,
    )
    cfg = TrainConfig(
        lr=1e-3, batch_size=1, max_epochs=2, steps_per_epoch=2, patience=5,
        patch_size=16, t_train=3, edge_kind="dense", seed=0,
    )
    return scenes, model_cfg, cfg


def test_train_is_identical_at_every_worker_count(monkeypatch, split_everything):
    scenes, model_cfg, cfg = _tiny_training()
    results = []
    for n in WORKER_COUNTS:
        monkeypatch.setattr(cores, "WORKERS", n)
        results.append(train(scenes[:1], scenes[1:], model_cfg, cfg))
    first = results[0]
    for other in results[1:]:
        assert other.history == first.history
        others = other.model.param_values()
        for name, arr in first.model.param_values().items():
            assert bits_equal(others[name], arr), name


def test_cli_train_and_infer_bytes_do_not_depend_on_workers(monkeypatch, tmp_path,
                                                          split_everything):
    scene = tmp_path / "scene"
    assert cli.main([
        "synth-gen", "--seed", "3", "--t", "3", "--height", "16", "--width", "16",
        "--buildings", "4", "--min-extent", "3", "--max-extent", "6", "--out", str(scene),
    ]) == 0
    outputs = []
    for n in WORKER_COUNTS:
        monkeypatch.setattr(cores, "WORKERS", n)
        run = tmp_path / f"train{n}"
        assert cli.main([
            "train", "--scenes", str(scene), "--val-scenes", str(scene), "--scales", "2",
            "--base-width", "4", "--heads", "2", "--attn-layers", "1", "--t-train", "3",
            "--edge-kind", "dense", "--patch-size", "16", "--batch-size", "1",
            "--max-epochs", "2", "--steps-per-epoch", "2", "--lr", "1e-3", "--out", str(run),
        ]) == 0
        inf = tmp_path / f"infer{n}"
        assert cli.main([
            "infer", "--checkpoint", str(run / "checkpoint.ckpt"),
            "--images", str(scene / "images.rts"), "--out", str(inf),
        ]) == 0
        outputs.append({
            name: (d / name).read_bytes()
            for d, names in ((run, ("checkpoint.ckpt", "train_log.jsonl")),
                             (inf, ("seg_probs.rts", "ch_probs.rts")))
            for name in names
        })
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
    assert read_raster(str(tmp_path / "infer1" / "seg_probs.rts")).shape == (3, 16, 16)


def test_only_cores_starts_threads():
    ## every thread comes from the one pool in cores.py, so run()'s caps on
    ## the parts and threaded()'s hold on BLAS bound them all
    package = os.path.join(SRC, "changeseries")
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "cores.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                used = node.name.rpartition(".")[2]
            elif isinstance(node, ast.Attribute):
                used = node.attr
            else:
                continue
            if used in ("ThreadPoolExecutor", "Thread"):
                found.append(f"{name}:{node.lineno} {used}")
    assert not found


def test_import_starts_no_thread_and_looks_nothing_up():
    probe = (
        "import threading, changeseries.cli as c\n"
        "from changeseries import cores\n"
        "print(threading.active_count(), cores._blas is False, cores._executor is None)\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    assert out.stdout.split() == ["1", "True", "True"]


@needs_blas
def test_cli_infer_exits_promptly_after_splitting(tmp_path):
    ## the pool's threads sit idle once infer returns, and exit joins them
    env = {**os.environ, "PYTHONPATH": SRC}
    scene = tmp_path / "scene"
    subprocess.run(
        [sys.executable, "-m", "changeseries.cli", "synth-gen", "--seed", "4", "--t", "3",
         "--height", "64", "--width", "64", "--out", str(scene)],
        env=env, check=True, timeout=120, capture_output=True,
    )
    ckpt = tmp_path / "model.ckpt"
    cfg = ModelConfig()
    save_checkpoint(str(ckpt), ChangeModel(cfg).param_values(), {"model": cfg.to_jsonable()})
    probe = (
        "import sys\n"
        "from changeseries import cli, cores\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, cores._executor is not None)\n"
    )
    started = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", probe, "infer", "--checkpoint", str(ckpt),
         "--images", str(scene / "images.rts"), "--out", str(tmp_path / "inf")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "True"]
    assert time.perf_counter() - started < 60
