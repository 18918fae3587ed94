"""Encoder/decoder structure, the full model, and checkpoints."""

import json
import struct

import numpy as np
import pytest
from malformed import CHECKPOINTS, GOOD

from changeseries.backbone import (
    BackboneConfig,
    Decoder,
    Encoder,
    load_checkpoint,
    pyramid_dims,
    save_checkpoint,
)
from changeseries.changefeat import build_edge_set
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
    assert [e["name"] for e in index] == list(values)
    offset = 0
    for entry in index:
        assert entry["offset"] == offset
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
