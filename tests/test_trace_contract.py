"""The benchmark tracer (benchmark/spans.py) names program functions by module.

A rename or move in changeseries would otherwise make `--trace 1` fail or
silently lose a span, so every name it lists must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    spans = load_spans()
    for modname, fn_name in spans.FUNCTIONS:
        module = importlib.import_module(f"changeseries.{modname}")
        assert callable(getattr(module, fn_name, None)), f"changeseries.{modname}.{fn_name}"


def test_tracer_installs_and_restores():
    from changeseries import backbone, layers

    spans = load_spans()
    originals = (backbone.load_checkpoint, layers.Conv2d.forward)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert backbone.load_checkpoint is not originals[0]
    finally:
        tracer.uninstall()
    assert (backbone.load_checkpoint, layers.Conv2d.forward) == originals


def test_tracer_counts_each_fusion_tile(monkeypatch):
    ## markov.assignments_scored sums pixels x 2^T over the decoder's
    ## PixelPotentials argument, so every tile must reach it as its own call
    from changeseries import markov
    from changeseries.changefeat import build_edge_set
    from changeseries.rng import SeededRng

    spans = load_spans()
    monkeypatch.setattr(markov, "TILE_PIXELS", 40)
    t_len, h, w = 6, 7, 9  # 63 pixels: one full tile and one partial tile
    edges = build_edge_set("dense", t_len)
    rng = SeededRng(5)
    seg, ch = rng.uniform((t_len, h, w)), rng.uniform((len(edges), h, w))
    tracer = spans.Tracer()
    with tracer.tracing("pass"):
        markov.integrate(seg, ch, edges, "dense", workers=2)
    rows = spans.summarize(tracer.spans, passes=1, setups=0)
    assert rows["markov.integrate"]["calls"] == 1
    assert rows["markov.build_potentials"]["calls"] == 2
    assert rows["markov.map_decode_general"]["calls"] == 2
    assert rows["markov.map_decode_general"]["assignments"] == h * w * 2**t_len


def test_tracer_sees_infer_forward(tmp_path):
    ## infer calls forward with keep=False: the wrappers must pass the
    ## keyword through and still read a conv's input as its positional x
    from changeseries import cli
    from changeseries.backbone import save_checkpoint
    from changeseries.model import ChangeModel, ModelConfig
    from changeseries.rng import SeededRng
    from changeseries.tensor import write_raster

    spans = load_spans()
    model = ChangeModel(ModelConfig())
    ckpt, images = str(tmp_path / "model.ckpt"), str(tmp_path / "images.rts")
    save_checkpoint(ckpt, model.param_values(), {"model": model.cfg.to_jsonable()})
    write_raster(images, SeededRng(7).uniform((3, 3, 16, 16)))
    tracer = spans.Tracer()
    argv = ["infer", "--checkpoint", ckpt, "--images", images, "--out", str(tmp_path / "out")]
    with tracer.tracing("pass"):
        assert cli.main(argv) == 0
    rows = spans.summarize(tracer.spans, passes=1, setups=0)
    assert rows["cli.infer"]["calls"] == 1
    assert rows["layers.Conv2d.forward"]["calls"] == 16  # 6 encoder convs, 5 per decoder
    assert rows["layers.Conv2d.forward"]["flops"] > 0
    assert "layers.Conv2d.backward" not in rows
