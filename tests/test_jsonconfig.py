"""The JSON and command-line round trip shared by the config dataclasses."""

import argparse

import pytest
from malformed import MODEL_CONFIGS

from changeseries.backbone import BackboneConfig
from changeseries.model import ModelConfig
from changeseries.synthgen import SceneSpec
from changeseries.temporal import TemporalConfig
from changeseries.trainer import TrainConfig

SPEC = SceneSpec().to_jsonable()
TRAIN = TrainConfig().to_jsonable()

## (class, object, text the error must contain)
BAD_CONFIGS = [
    pytest.param(ModelConfig, obj, None, id=f"model_{name}")
    for name, obj in MODEL_CONFIGS.items()
] + [
    pytest.param(SceneSpec, [SPEC], "expected an object", id="spec_list"),
    pytest.param(SceneSpec, {k: v for k, v in SPEC.items() if k != "t"}, "'t'", id="spec_no_t"),
    pytest.param(SceneSpec, dict(SPEC, height="64"), "SceneSpec.height", id="spec_str_int"),
    pytest.param(TrainConfig, dict(TRAIN, lr=None), "TrainConfig.lr", id="train_null"),
    pytest.param(TrainConfig, dict(TRAIN, batch_size=4.0), "batch_size", id="train_float_int"),
    pytest.param(TrainConfig, None, "expected an object", id="train_null_object"),
]


@pytest.mark.parametrize("cls, obj, text", BAD_CONFIGS)
def test_from_jsonable_rejects_malformed(cls, obj, text):
    with pytest.raises(ValueError) as excinfo:
        cls.from_jsonable(obj)
    message = str(excinfo.value)
    assert "\n" not in message
    assert text is None or text in message


def test_model_errors_name_the_key():
    with pytest.raises(ValueError, match=r"ModelConfig\.backbone: expected an object"):
        ModelConfig.from_jsonable(MODEL_CONFIGS["backbone_not_object"])
    with pytest.raises(ValueError, match=r"ModelConfig\.backbone: missing key 'scales'"):
        ModelConfig.from_jsonable(MODEL_CONFIGS["nested_missing_key"])


def test_on_disk_keys_and_values():
    assert SceneSpec(t_len=6).to_jsonable()["t"] == 6
    assert "t_len" not in SceneSpec().to_jsonable()
    obj = ModelConfig(temporal=None).to_jsonable()
    assert obj["temporal"] is None
    assert set(obj) == {"backbone", "temporal", "seed"}
    assert set(obj["backbone"]) == {"scales", "base_width", "in_channels", "use_batchnorm"}


def test_unknown_keys_ignored_and_ints_taken_as_floats():
    obj = dict(TrainConfig().to_jsonable(), lr=1, extra="ignored")
    cfg = TrainConfig.from_jsonable(obj)
    assert cfg.lr == 1.0 and type(cfg.lr) is float
    assert ModelConfig.from_jsonable(ModelConfig(temporal=None).to_jsonable()).temporal is None


def test_temporal_config_stores_no_ff_mult():
    ## the FFN width is the constant temporal.FF_MULT, not a setting
    assert "ff_mult" not in TemporalConfig().to_jsonable()


def test_partial_objects_refuse_unknown_keys():
    ## from_partial reads hand-written grid files, where a misspelt key must not pass unseen
    assert ModelConfig.from_partial({"backbone": {"scales": 4}}).backbone.scales == 4
    with pytest.raises(ValueError, match=r"^ModelConfig\.backbone\.scale: unknown key$"):
        ModelConfig.from_partial({"backbone": {"scale": 4}})
    with pytest.raises(ValueError, match=r"^ModelConfig\.temporal\.layer: unknown key$"):
        ModelConfig.from_partial({"temporal": {"heads": 2, "layers": 2, "use_position_codes": True,
                                               "layer": 3}})
    with pytest.raises(ValueError, match=r"^ModelConfig\.sed: unknown key$"):
        ModelConfig.from_partial({"sed": 1})


@pytest.mark.parametrize("cfg", [
    SceneSpec(seed=3, t_len=6, n_buildings=2, noise_sigma=0.125),
    TrainConfig(lr=0.5, batch_size=2, edge_kind="cyclic"),
    BackboneConfig(scales=4, base_width=6),
    TemporalConfig(heads=4, layers=3),
])
def test_command_line_round_trip(cfg):
    parser = argparse.ArgumentParser()
    type(cfg).add_flags(parser)
    assert type(cfg).from_args(parser.parse_args([])) == type(cfg)()
    argv = [s for a in parser._actions[1:] for s in (a.option_strings[0], str(getattr(cfg, a.dest)))]
    assert type(cfg).from_args(parser.parse_args(argv)) == cfg
