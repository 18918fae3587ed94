"""Encoder/decoder structure, the full model, and checkpoints."""

import functools
import hashlib
import json
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from malformed import CHECKPOINTS, GOOD, OLDER_LAYOUT

from changeseries.backbone import (
    BackboneConfig,
    Decoder,
    Encoder,
    load_checkpoint,
    pyramid_dims,
    save_checkpoint,
)
from changeseries.changefeat import build_edge_set
from changeseries.layers import Conv2d, Param
from changeseries.model import ChangeModel, ModelConfig
from changeseries.rng import SeededRng
from changeseries.temporal import TemporalConfig
from changeseries.tensor import RasterFormatError, write_raster


def tiny_model_config(tfr=True, seed=0, scales=2, base_width=4, channels=3):
    return ModelConfig(
        backbone=BackboneConfig(scales=scales, base_width=base_width, in_channels=channels),
        temporal=TemporalConfig(heads=2, layers=1) if tfr else None,
        seed=seed,
    )


def test_pyramid_dims_desk_shape():
    cfg = BackboneConfig(scales=3, base_width=8)
    assert pyramid_dims(cfg, 64, 64) == [(8, 64, 64), (16, 32, 32), (32, 16, 16)]


def test_pyramid_dims_deep_wide():
    cfg = BackboneConfig(scales=4, base_width=64)
    dims = pyramid_dims(cfg, 64, 48)
    assert dims[3] == (512, 8, 6)


def test_pyramid_dims_rejects_indivisible():
    with pytest.raises(ValueError):
        pyramid_dims(BackboneConfig(scales=3), 62, 64)


def test_config_validation():
    with pytest.raises(ValueError):
        BackboneConfig(scales=1)
    with pytest.raises(ValueError):
        BackboneConfig(base_width=1)
    with pytest.raises(ValueError):
        ModelConfig(
            backbone=BackboneConfig(base_width=5),
            temporal=TemporalConfig(heads=2),
        )


def test_encoder_emits_expected_pyramid():
    cfg = BackboneConfig(scales=3, base_width=8, in_channels=3)
    enc = Encoder(cfg, SeededRng(1))
    x = SeededRng(2).uniform((4, 3, 32, 32))
    pyramid = enc.forward(x)
    assert [f.shape for f in pyramid] == [
        (4, 8, 32, 32),
        (4, 16, 16, 16),
        (4, 32, 8, 8),
    ]


def test_encoder_weights_shared_across_timestamps():
    ## without batch normalization each timestamp is processed independently
    ## by the same weights, so encoding frames separately matches the series
    cfg = BackboneConfig(scales=2, base_width=4, in_channels=2, use_batchnorm=False)
    enc = Encoder(cfg, SeededRng(3))
    x = SeededRng(4).uniform((3, 2, 8, 8))
    full = enc.forward(x)
    for t in range(3):
        single = enc.forward(x[t : t + 1])
        for s in range(2):
            assert np.allclose(single[s][0], full[s][t], atol=1e-12)


def test_encoder_permutation_equivariant_with_batchnorm():
    ## batch statistics are symmetric in the batch axis, so permuting
    ## timestamps permutes features
    cfg = BackboneConfig(scales=2, base_width=4, in_channels=2, use_batchnorm=True)
    enc = Encoder(cfg, SeededRng(5))
    x = SeededRng(6).uniform((4, 2, 8, 8))
    perm = np.array([3, 1, 0, 2])
    direct = enc.forward(x[perm])
    permuted = [level[perm] for level in enc.forward(x)]
    for a, b in zip(direct, permuted):
        assert np.allclose(a, b, atol=1e-10)


def test_decoder_shape_and_range():
    cfg = BackboneConfig(scales=3, base_width=4, in_channels=3)
    rng = SeededRng(7)
    dec = Decoder(cfg, rng)
    pyramid = [
        SeededRng(8).uniform((2, 4, 16, 16)),
        SeededRng(9).uniform((2, 8, 8, 8)),
        SeededRng(10).uniform((2, 16, 4, 4)),
    ]
    maps = dec.forward(pyramid)
    assert maps.shape == (2, 16, 16)
    assert maps.min() > 0.0 and maps.max() < 1.0


def test_decoder_zero_head_gives_half():
    cfg = BackboneConfig(scales=2, base_width=4, in_channels=3)
    dec = Decoder(cfg, SeededRng(11))
    dec.head.weight.value[:] = 0.0
    dec.head.bias.value[:] = 0.0
    pyramid = [SeededRng(12).uniform((2, 4, 8, 8)), SeededRng(13).uniform((2, 8, 4, 4))]
    assert np.all(dec.forward(pyramid) == 0.5)


def test_decoder_rejects_wrong_level_count():
    dec = Decoder(BackboneConfig(scales=3, base_width=4), SeededRng(0))
    with pytest.raises(ValueError):
        dec.forward([np.zeros((1, 4, 8, 8))])


@pytest.mark.parametrize("kind", ["adjacent", "cyclic", "dense"])
def test_model_output_shapes(kind):
    model = ChangeModel(tiny_model_config())
    edges = build_edge_set(kind, 4)
    x = SeededRng(20).uniform((4, 3, 8, 8))
    seg, ch = model.forward(x, edges)
    assert seg.shape == (4, 8, 8)
    assert ch.shape == (len(edges), 8, 8)
    assert seg.min() > 0.0 and seg.max() < 1.0
    assert ch.min() > 0.0 and ch.max() < 1.0


def test_model_initialization_deterministic():
    a = ChangeModel(tiny_model_config(seed=4))
    b = ChangeModel(tiny_model_config(seed=4))
    c = ChangeModel(tiny_model_config(seed=5))
    pa, pb, pc = a.param_values(), b.param_values(), c.param_values()
    assert sorted(pa) == sorted(pb) == sorted(pc)
    assert all(np.array_equal(pa[k], pb[k]) for k in pa)
    assert any(not np.array_equal(pa[k], pc[k]) for k in pa)


def test_model_param_inventory():
    with_tfr = ChangeModel(tiny_model_config(tfr=True))
    without = ChangeModel(tiny_model_config(tfr=False))
    names_on = set(with_tfr.named_params())
    names_off = set(without.named_params())
    assert any(n.startswith("temporal.scale0.") for n in names_on)
    assert any(n.startswith("temporal.scale1.") for n in names_on)
    assert not any(n.startswith("temporal.") for n in names_off)
    ## the change-feature stage is parameter-free: encoder, refiners and
    ## the two decoders account for every parameter
    allowed = ("encoder.", "temporal.", "seg_decoder.", "change_decoder.")
    assert all(n.startswith(allowed) for n in names_on)
    ## removing the refiners must not perturb the remaining parameters
    assert names_off == {n for n in names_on if not n.startswith("temporal.")}


def test_model_backward_touches_every_parameter():
    model = ChangeModel(tiny_model_config())
    edges = build_edge_set("dense", 3)
    x = SeededRng(21).uniform((3, 3, 8, 8))
    seg, ch = model.forward(x, edges)
    model.zero_grads()
    model.backward(np.ones_like(seg), np.ones_like(ch))
    for name, p in model.named_params().items():
        assert np.any(p.grad != 0.0), f"no gradient reached {name}"


def test_forward_keeps_no_column_matrix(monkeypatch):
    ## each conv may keep its input for backward, never a 9x patch copy
    inputs = {}
    forward = Conv2d.forward

    def recording_forward(conv, x, **kwargs):
        inputs[conv] = x.nbytes
        return forward(conv, x, **kwargs)

    monkeypatch.setattr(Conv2d, "forward", recording_forward)
    model = ChangeModel(ModelConfig())
    model.forward(SeededRng(22).uniform((3, 3, 32, 32)), build_edge_set("dense", 3))
    assert len(inputs) == 16  # 6 encoder convs, 5 per decoder
    for conv, nbytes in inputs.items():
        cached = [v.nbytes for v in vars(conv).values() if isinstance(v, np.ndarray)]
        assert max(cached, default=0) <= nbytes


def reachable(obj, path="model", seen=None):
    """(path, object) for each object reachable from obj, once each.

    The walk enters lists, tuples, dicts and the attributes of changeseries
    objects.  Params have slots only, so it stops at them: their arrays are
    not visited.
    """
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield path, obj
    if isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif isinstance(obj, dict):
        items = obj.items()
    elif type(obj).__module__.startswith("changeseries.") and hasattr(obj, "__dict__"):
        items = vars(obj).items()
    else:
        return
    for key, value in items:
        yield from reachable(value, f"{path}.{key}", seen)


def stray_arrays(obj):
    """Paths of the arrays reachable from obj other than Param values and grads."""
    return [path for path, value in reachable(obj) if isinstance(value, np.ndarray)]


_DEFAULT = ModelConfig()

## config -> (parameter count, sha256 of the JSON list of [name, shape] pairs
## named_params() gives, in order).  The names, order and shapes are the
## checkpoint's records, so any change to them changes the format.
PARAM_INVENTORIES = {
    "default": (
        _DEFAULT,
        140,
        "f64f8c1c6c043ab19122c5b53ca907be28f17d79e96e87fc35e03cd0990087d5",
    ),
    "no_refiner": (
        replace(_DEFAULT, temporal=None),
        68,
        "47806a77d0f3d9173c1253555eb04e70573b6006ef1915a27b85af0744b97780",
    ),
    "no_batchnorm": (
        replace(_DEFAULT, backbone=replace(_DEFAULT.backbone, use_batchnorm=False)),
        112,
        "2a19c04329f70fd37a3da3af3f0018453310c9eb07e12a2286be7b4e545bed68",
    ),
}


@pytest.mark.parametrize("case", sorted(PARAM_INVENTORIES))
def test_param_inventory_is_pinned(case):
    cfg, count, digest = PARAM_INVENTORIES[case]
    names = [[n, list(p.value.shape)] for n, p in ChangeModel(cfg).named_params().items()]
    assert len(names) == count
    assert hashlib.sha256(json.dumps(names).encode("utf-8")).hexdigest() == digest


def test_default_checkpoint_bytes_are_pinned(tmp_path):
    path = tmp_path / "default.ckpt"
    save_checkpoint(str(path), ChangeModel(_DEFAULT).param_values(), {"note": "pinned"})
    blob = path.read_bytes()
    digest = "13e3cd8e62b82a33ccfbda844b1ffb7d62bdb76639cf8271a4682e2deefc3ace"
    assert hashlib.sha256(blob).hexdigest() == digest
    ## the records alone, which a change to the header leaves as they are
    (hlen,) = struct.unpack("<I", blob[4:8])
    records = "b88714d8916433433ce452e5dab17c0950ef4bb6f56363734408c4d74b90481f"
    assert hashlib.sha256(blob[8 + hlen :]).hexdigest() == records


@pytest.mark.parametrize("case", sorted(PARAM_INVENTORIES))
def test_named_params_name_every_reachable_param_once(case):
    model = ChangeModel(PARAM_INVENTORIES[case][0])
    named = [id(p) for p in model.named_params().values()]
    assert len(set(named)) == len(named), "a Param is named twice"
    reached = {id(value) for _, value in reachable(model) if isinstance(value, Param)}
    assert set(named) == reached


@pytest.mark.parametrize("case", sorted(PARAM_INVENTORIES))
def test_record_names_are_attribute_paths(case):
    model = ChangeModel(PARAM_INVENTORIES[case][0])
    for name, p in model.named_params().items():
        assert functools.reduce(getattr, name.split("."), model) is p, name


@pytest.mark.parametrize("tfr", [True, False])
@pytest.mark.parametrize("kind", ["adjacent", "dense"])
def test_forward_without_keep_is_bitwise_equal(kind, tfr):
    model = ChangeModel(tiny_model_config(tfr=tfr, scales=3))
    edges = build_edge_set(kind, 4)
    x = SeededRng(23).uniform((4, 3, 16, 16))
    seg, ch = model.forward(x, edges)
    seg_free, ch_free = model.forward(x, edges, keep=False)
    assert np.array_equal(seg_free, seg)
    assert np.array_equal(ch_free, ch)


@pytest.mark.parametrize("tfr", [True, False])
def test_forward_without_keep_leaves_no_layer_cache(tfr):
    model = ChangeModel(tiny_model_config(tfr=tfr))
    edges = build_edge_set("dense", 3)
    x = SeededRng(24).uniform((3, 3, 8, 8))
    model.forward(x, edges)
    assert stray_arrays(model), "the walk must see the caches of a training forward"
    model.forward(x, edges, keep=False)
    assert stray_arrays(model) == []


def test_forward_without_keep_peak_memory():
    ## the T=6 128x128 infer shape peaks at 133.5 MB when each activation
    ## goes once the next layer has read it (617 MB with every cache kept)
    model = ChangeModel(ModelConfig())
    x = SeededRng(25).uniform((6, 3, 128, 128))
    edges = build_edge_set("dense", 6)
    tracemalloc.start()
    try:
        model.forward(x, edges, keep=False)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb <= 134.0, f"{peak_mb:.1f} MB"


def test_backward_after_forward_without_keep_raises():
    model = ChangeModel(tiny_model_config())
    edges = build_edge_set("dense", 3)
    x = SeededRng(26).uniform((3, 3, 8, 8))
    seg, ch = model.forward(x, edges)
    model.forward(x, edges, keep=False)
    with pytest.raises(RuntimeError, match="keep=True"):
        model.backward(np.ones_like(seg), np.ones_like(ch))


def test_backward_consumes_the_refiner_caches():
    ## a training step frees every layer's cache, the refiner's and the
    ## ConvNets', as backward reads it
    model = ChangeModel(tiny_model_config())
    edges = build_edge_set("dense", 3)
    x = SeededRng(27).uniform((3, 3, 8, 8))
    seg, ch = model.forward(x, edges)
    model.backward(np.ones_like(seg), np.ones_like(ch))
    assert stray_arrays(model) == []
    with pytest.raises(RuntimeError, match="keep=True"):
        model.backward(np.ones_like(seg), np.ones_like(ch))


def test_desk_patch_forward_memory():
    ## the bytes a training forward holds once it returns, at the desk
    ## patch (T=4, 64x64, dense edges, default model): 44.74 MB, of which
    ## the outputs are 0.33 MB.  Caching every activation held 74.75 MB
    model = ChangeModel(ModelConfig())
    x = SeededRng(28).uniform((4, 3, 64, 64))
    edges = build_edge_set("dense", 4)
    tracemalloc.start()
    try:
        seg, ch = model.forward(x, edges)
        held_mb = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    assert held_mb <= 44.75, f"{held_mb:.2f} MB"
    assert seg.shape == (4, 64, 64) and ch.shape == (6, 64, 64)


@pytest.mark.parametrize("channels", [1, 4])
def test_model_rejects_wrong_channel_count(channels):
    model = ChangeModel(tiny_model_config())
    with pytest.raises(ValueError, match=f"{channels} channels, the model takes 3"):
        model.forward(SeededRng(0).uniform((3, channels, 8, 8)), build_edge_set("dense", 3))


def test_model_series_length_mismatch():
    model = ChangeModel(tiny_model_config())
    with pytest.raises(ValueError):
        model.forward(SeededRng(0).uniform((3, 3, 8, 8)), build_edge_set("dense", 4))


def test_model_config_jsonable_round_trip():
    for tfr in (True, False):
        cfg = tiny_model_config(tfr=tfr, seed=2)
        back = ModelConfig.from_jsonable(cfg.to_jsonable())
        assert back == cfg
    assert tiny_model_config(tfr=False).to_jsonable()["temporal"] is None


def test_checkpoint_round_trip(tmp_path):
    model = ChangeModel(tiny_model_config(seed=1))
    values = model.param_values()
    meta = {"model": model.cfg.to_jsonable(), "note": "round trip"}
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, values, meta)
    meta_back, values_back = load_checkpoint(path)
    assert meta_back == meta
    assert set(values_back) == set(values)
    for name, arr in values.items():
        ## storage is float32: the reload equals the cast exactly
        assert np.array_equal(values_back[name], arr.astype(np.float32).astype(np.float64))


def test_checkpoint_reload_into_model(tmp_path):
    model = ChangeModel(tiny_model_config(seed=1))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model.param_values(), {"model": model.cfg.to_jsonable()})
    meta, values = load_checkpoint(path)
    clone = ChangeModel(ModelConfig.from_jsonable(meta["model"]))
    clone.load_param_values(values)
    x = SeededRng(22).uniform((3, 3, 8, 8))
    edges = build_edge_set("adjacent", 3)
    ## float32 storage perturbs weights, so compare against the cast clone
    ref = ChangeModel(tiny_model_config(seed=1))
    ref.load_param_values(
        {k: v.astype(np.float32).astype(np.float64) for k, v in model.param_values().items()}
    )
    seg_a, ch_a = clone.forward(x, edges)
    seg_b, ch_b = ref.forward(x, edges)
    assert np.array_equal(seg_a, seg_b)
    assert np.array_equal(ch_a, ch_b)


def test_checkpoint_rejects_junk(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 32)
    with pytest.raises(RasterFormatError):
        load_checkpoint(path)


def test_checkpoint_records_are_raster_files(tmp_path):
    model = ChangeModel(tiny_model_config(seed=3))
    values = model.param_values()
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, values, {"note": "bytes"})
    blob = open(path, "rb").read()
    (hlen,) = struct.unpack("<I", blob[4:8])
    body = blob[8 + hlen :]
    index = json.loads(blob[8 : 8 + hlen])["index"]
    ## an entry holds only its name: the records follow the index end to end
    assert index == [{"name": name} for name in values]
    offset = 0
    for entry in index:
        raster = str(tmp_path / "one.rts")
        write_raster(raster, values[entry["name"]])
        record = open(raster, "rb").read()
        assert body[offset : offset + len(record)] == record
        offset += len(record)
    assert offset == len(body)


def test_checkpoint_loads_hand_packed_file(tmp_path):
    path = tmp_path / "good.ckpt"
    path.write_bytes(GOOD)
    meta, values = load_checkpoint(str(path))
    assert set(values) == {"a", "b"}
    assert np.array_equal(values["a"], np.arange(6.0).reshape(2, 3))


@pytest.mark.parametrize("case", sorted(OLDER_LAYOUT))
def test_checkpoint_in_older_layout_loads_the_same_values(tmp_path, case):
    ## entries that also hold offsets and shapes, even stale ones, load as GOOD
    (tmp_path / "good.ckpt").write_bytes(GOOD)
    (tmp_path / "older.ckpt").write_bytes(OLDER_LAYOUT[case])
    meta, values = load_checkpoint(str(tmp_path / "good.ckpt"))
    older_meta, older_values = load_checkpoint(str(tmp_path / "older.ckpt"))
    assert older_meta == meta
    assert list(older_values) == list(values)
    for name, arr in values.items():
        assert np.array_equal(older_values[name], arr)


@pytest.mark.parametrize("case", sorted(CHECKPOINTS))
def test_checkpoint_rejects_malformed(tmp_path, case):
    path = tmp_path / f"{case}.ckpt"
    path.write_bytes(CHECKPOINTS[case])
    with pytest.raises(RasterFormatError):
        load_checkpoint(str(path))


def test_checkpoint_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        save_checkpoint(str(tmp_path / "x.ckpt"), {"w": np.array([np.nan])}, {})


def test_load_param_values_strictness():
    model = ChangeModel(tiny_model_config())
    values = model.param_values()
    values.pop(sorted(values)[0])
    with pytest.raises(ValueError):
        model.load_param_values(values)
    values = model.param_values()
    values["bogus"] = np.zeros(3)
    with pytest.raises(ValueError):
        model.load_param_values(values)
    values = model.param_values()
    name = sorted(values)[0]
    values[name] = np.zeros(values[name].shape + (2,))
    with pytest.raises(ValueError):
        model.load_param_values(values)
