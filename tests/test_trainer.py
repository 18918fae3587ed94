"""Patch sampling, augmentation, the optimizer, and the training loop."""

from dataclasses import replace

import numpy as np
import pytest

from changeseries.backbone import BackboneConfig
from changeseries.changefeat import build_edge_set
from changeseries.layers import Param
from changeseries.model import ChangeModel, ModelConfig
from changeseries.objective import multitask_loss
from changeseries.rng import SeededRng
from changeseries.synthgen import SceneSpec, generate
from changeseries.temporal import TemporalConfig
from changeseries.trainer import (
    AdamW,
    TrainConfig,
    _scene_loss,
    apply_geometric,
    augment,
    sample_patch,
    series_change_fraction,
    train,
    validation_timestamps,
    window_weights,
)


def tiny_scene(seed=0, size=16, t_len=3):
    return generate(
        SceneSpec(
            seed=seed,
            t_len=t_len,
            height=size,
            width=size,
            n_buildings=4,
            min_extent=3,
            max_extent=6,
        )
    )


def tiny_configs(t_train=3, edge_kind="adjacent", **kw):
    model_cfg = ModelConfig(
        backbone=BackboneConfig(scales=2, base_width=4, in_channels=3),
        temporal=TemporalConfig(heads=2, layers=1),
        seed=0,
    )
    base = dict(
        lr=1e-3,
        batch_size=1,
        max_epochs=3,
        steps_per_epoch=5,
        patience=10,
        patch_size=16,
        t_train=t_train,
        edge_kind=edge_kind,
        seed=0,
    )
    base.update(kw)
    return model_cfg, TrainConfig(**base)


def test_series_change_fraction_marks_ever_changing_pixels():
    seg = np.zeros((3, 4, 4), dtype=np.uint8)
    seg[1, 1, 1] = 1
    seg[2, 3, 0] = 1
    frac = series_change_fraction(seg)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    expected[3, 0] = 1.0
    assert np.array_equal(frac, expected)


def test_window_weights_hand_case():
    ## one window fully changed, nineteen without change, base 0.05:
    ## the hot window gets 1.05 / (1.05 + 19 * 0.05) = 0.525
    change = np.zeros((8, 8))
    change[:4, :4] = 1.0
    windows = [(0, 0)] + [(4, 4)] * 19
    weights = window_weights(change, windows, patch=4, base_prob=0.05)
    assert weights[0] == pytest.approx(0.525, rel=1e-12)
    assert sum(weights) == pytest.approx(1.0, rel=1e-12)
    assert all(w == pytest.approx(weights[1], rel=1e-12) for w in weights[2:])


def test_sample_patch_deterministic():
    scene = tiny_scene()
    cfg = TrainConfig(patch_size=8, t_train=2, edge_kind="adjacent", base_prob=0.05)
    a = sample_patch(scene, cfg, SeededRng(3))
    b = sample_patch(scene, cfg, SeededRng(3))
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.seg, b.seg)
    assert np.array_equal(a.changes, b.changes)
    assert a.timestamps == b.timestamps


def test_sample_patch_contents_match_scene():
    scene = tiny_scene(seed=2)
    cfg = TrainConfig(patch_size=8, t_train=2, edge_kind="adjacent")
    sample = sample_patch(scene, cfg, SeededRng(5))
    assert sample.images.shape == (2, 3, 8, 8)
    assert sample.seg.shape == (2, 8, 8)
    assert sample.changes.shape == (1, 8, 8)
    t1, t2 = sample.timestamps
    assert 1 <= t1 < t2 <= 3
    ## locate the crop by matching the first image plane
    found = False
    for y0 in range(9):
        for x0 in range(9):
            if np.array_equal(
                scene.images[t1 - 1, :, y0 : y0 + 8, x0 : x0 + 8], sample.images[0]
            ):
                found = True
                assert np.array_equal(
                    scene.seg_labels[t2 - 1, y0 : y0 + 8, x0 : x0 + 8], sample.seg[1]
                )
                assert np.array_equal(
                    scene.change_labels[(t1, t2)][y0 : y0 + 8, x0 : x0 + 8],
                    sample.changes[0],
                )
    assert found


def test_sample_patch_change_rows_are_xor_of_selected_stamps():
    scene = tiny_scene(seed=7, t_len=4)
    cfg = TrainConfig(patch_size=8, t_train=3, edge_kind="dense")
    sample = sample_patch(scene, cfg, SeededRng(11))
    edges = build_edge_set("dense", 3)
    assert sample.edges == edges
    for n, (t, k) in enumerate(edges.edges):
        want = np.logical_xor(sample.seg[t - 1], sample.seg[k - 1]).astype(np.uint8)
        assert np.array_equal(sample.changes[n], want)


def test_sample_patch_full_series_keeps_all_stamps():
    scene = tiny_scene(seed=1, t_len=3)
    cfg = TrainConfig(patch_size=8, t_train=3, edge_kind="adjacent")
    sample = sample_patch(scene, cfg, SeededRng(2))
    assert sample.timestamps == (1, 2, 3)


def test_sample_patch_rejects_oversized_patch():
    scene = tiny_scene(size=16)
    cfg = TrainConfig(patch_size=32, t_train=2)
    with pytest.raises(ValueError):
        sample_patch(scene, cfg, SeededRng(0))


def test_apply_geometric_identity_and_involution():
    rng = SeededRng(4)
    x = rng.uniform((2, 3, 6, 6))
    (same,) = apply_geometric([x], 0, False, False)
    assert np.array_equal(same, x)
    (flipped,) = apply_geometric([x], 0, True, False)
    (back,) = apply_geometric([flipped], 0, True, False)
    assert np.array_equal(back, x)
    out = x
    for _ in range(4):
        (out,) = apply_geometric([out], 1, False, False)
    assert np.array_equal(out, x)


def test_apply_geometric_coordinate_oracle():
    x = np.arange(6.0).reshape(1, 2, 3)  # distinct values
    (rot,) = apply_geometric([x], 1, False, False)
    ## a quarter turn maps entry (i, j) to (cols - 1 - j, i)
    assert rot.shape == (1, 3, 2)
    for i in range(2):
        for j in range(3):
            assert rot[0, 3 - 1 - j, i] == x[0, i, j]
    (hflip,) = apply_geometric([x], 0, True, False)
    assert np.array_equal(hflip[0], x[0, :, ::-1])
    (vflip,) = apply_geometric([x], 0, False, True)
    assert np.array_equal(vflip[0], x[0, ::-1, :])


def test_augment_applies_one_transform_to_all_arrays():
    scene = tiny_scene(seed=3)
    cfg = TrainConfig(patch_size=8, t_train=2, edge_kind="adjacent")
    sample = sample_patch(scene, cfg, SeededRng(6))
    out = augment(sample, SeededRng(9))
    assert out.timestamps == sample.timestamps
    ## the same geometric map must take each input array to its output
    for k in range(4):
        for fh in (False, True):
            for fv in (False, True):
                imgs, seg, ch = apply_geometric(
                    [sample.images, sample.seg, sample.changes], k, fh, fv
                )
                if np.array_equal(imgs, out.images):
                    assert np.array_equal(seg, out.seg)
                    assert np.array_equal(ch, out.changes)
                    return
    raise AssertionError("augment output does not match any dihedral transform")


def test_adamw_single_step_hand_values():
    p = Param(np.array([1.0]))
    p.grad = np.array([0.5])
    opt = AdamW({"p": p}, weight_decay=0.1)
    opt.step(lr=0.1)
    ## bias-corrected moments after one step: mhat = g, vhat = g^2
    want = 1.0 - 0.1 * (0.5 / (0.5 + 1e-8) + 0.1 * 1.0)
    assert p.value[0] == pytest.approx(want, rel=1e-12)


def test_adamw_zero_lr_keeps_parameters():
    p = Param(np.array([2.0, -3.0]))
    p.grad = np.array([1.0, 1.0])
    opt = AdamW({"p": p}, weight_decay=0.5)
    opt.step(lr=0.0)
    assert np.array_equal(p.value, np.array([2.0, -3.0]))


def test_adamw_decay_is_decoupled():
    ## with zero gradient the update is pure shrinkage: p -= lr * wd * p
    p = Param(np.array([4.0]))
    p.grad = np.array([0.0])
    opt = AdamW({"p": p}, weight_decay=0.25)
    opt.step(lr=0.1)
    assert p.value[0] == pytest.approx(4.0 * (1.0 - 0.1 * 0.25), rel=1e-12)


def test_validation_timestamps_even_spread():
    assert validation_timestamps(10, 4) == (1, 4, 7, 10)
    assert validation_timestamps(5, 5) == (1, 2, 3, 4, 5)
    assert validation_timestamps(7, 2) == (1, 7)
    with pytest.raises(ValueError):
        validation_timestamps(2, 3)


def test_train_loss_decreases_and_is_deterministic():
    scene = tiny_scene(seed=0)
    val_scene = tiny_scene(seed=1)
    model_cfg, cfg = tiny_configs(max_epochs=6, steps_per_epoch=8, lr=3e-3)
    result = train([scene], [val_scene], model_cfg, cfg)
    steps = [h["loss"] for h in result.history if h["kind"] == "step"]
    assert min(steps[-8:]) < steps[0] * 0.8
    epochs = [h for h in result.history if h["kind"] == "epoch"]
    assert result.best_val_loss == pytest.approx(
        min(e["val_loss"] for e in epochs), rel=1e-12
    )
    again = train([scene], [val_scene], model_cfg, cfg)
    assert [h for h in again.history] == [h for h in result.history]
    repeated = again.model.param_values()
    for name, arr in result.model.param_values().items():
        assert np.array_equal(arr, repeated[name])


def test_train_restores_best_parameters():
    scene = tiny_scene(seed=0)
    model_cfg, cfg = tiny_configs(max_epochs=4, steps_per_epoch=4)
    val_scene = tiny_scene(seed=1)
    result = train([scene], [val_scene], model_cfg, cfg)
    ## the returned model scores the best epoch's validation loss, bit for bit
    assert _scene_loss(result.model, val_scene, cfg) == result.best_val_loss


def test_train_early_stops_with_zero_lr():
    ## lr = 0 freezes the model, so validation never improves after the
    ## first epoch and patience triggers
    scene = tiny_scene(seed=0)
    model_cfg, cfg = tiny_configs(lr=0.0, max_epochs=50, steps_per_epoch=1, patience=2)
    result = train([scene], [tiny_scene(seed=1)], model_cfg, cfg)
    epochs = [h for h in result.history if h["kind"] == "epoch"]
    assert len(epochs) == 3  # epoch 0 sets the best, two stale epochs stop it
    assert result.best_epoch == 0


def test_train_linear_lr_decay_recorded():
    scene = tiny_scene(seed=0)
    model_cfg, cfg = tiny_configs(max_epochs=4, steps_per_epoch=2, lr=1e-3, patience=10)
    result = train([scene], [tiny_scene(seed=1)], model_cfg, cfg)
    lrs = [h["lr"] for h in result.history if h["kind"] == "epoch"]
    want = [1e-3 * (1.0 - e / 4) for e in range(4)]
    assert lrs == pytest.approx(want, rel=1e-12)


def test_train_validates_patch_divisibility():
    model_cfg, _ = tiny_configs()
    cfg = TrainConfig(patch_size=9, t_train=2, edge_kind="adjacent")
    with pytest.raises(ValueError):
        train([tiny_scene()], [tiny_scene(seed=1)], model_cfg, cfg)


def test_train_requires_scenes():
    model_cfg, cfg = tiny_configs()
    with pytest.raises(ValueError):
        train([], [tiny_scene()], model_cfg, cfg)
    with pytest.raises(ValueError):
        train([tiny_scene()], [], model_cfg, cfg)


def _refuse_forward(*args, **kwargs):
    raise AssertionError("a scene train() cannot use must be refused before any forward")


def _first_timestamp(scene):
    return replace(scene, images=scene.images[:1], seg_labels=scene.seg_labels[:1])


## name -> (training scene, validation scene, backbone scales, the error)
UNFIT_SCENES = {
    "val_one_channel": (
        tiny_scene(), generate(replace(tiny_scene().spec, seed=1, channels=1)), 2,
        "validation scene 1 of shape (3, 1, 16, 16) has 1 channels, the model takes 3",
    ),
    "val_one_timestamp": (
        tiny_scene(), _first_timestamp(tiny_scene(seed=1)), 2,
        "validation scene 1 of shape (1, 3, 16, 16) has fewer than 2 timestamps",
    ),
    "val_not_divisible": (
        tiny_scene(), tiny_scene(seed=1, size=18), 3,
        "validation scene 1 of shape (3, 3, 18, 18) is not divisible by 4",
    ),
    "train_too_short": (
        tiny_scene(t_len=2), tiny_scene(seed=1), 2,
        "training scene 1 of shape (2, 3, 16, 16) has fewer than t_train = 3 timestamps",
    ),
    "train_smaller_than_patch": (
        tiny_scene(size=12), tiny_scene(seed=1), 2,
        "training scene 1 of shape (3, 3, 12, 12) is smaller than a 16-pixel patch",
    ),
}


@pytest.mark.parametrize("case", sorted(UNFIT_SCENES))
def test_train_refuses_unfit_scenes_before_any_forward(monkeypatch, case):
    train_scene, val_scene, scales, message = UNFIT_SCENES[case]
    model_cfg, cfg = tiny_configs(t_train=3)
    model_cfg = replace(model_cfg, backbone=replace(model_cfg.backbone, scales=scales))
    monkeypatch.setattr(ChangeModel, "forward", _refuse_forward)
    with pytest.raises(ValueError) as info:
        train([train_scene], [val_scene], model_cfg, cfg)
    assert str(info.value) == message


def test_train_accepts_validation_series_shorter_than_t_train():
    ## validation draws min(t_train, T) timestamps, so a short series is usable
    model_cfg, cfg = tiny_configs(t_train=3, max_epochs=1, steps_per_epoch=1)
    result = train([tiny_scene()], [tiny_scene(seed=1, t_len=2)], model_cfg, cfg)
    assert np.isfinite(result.best_val_loss)


def test_loss_term_count_matches_series_and_edges():
    model_cfg, cfg = tiny_configs(t_train=3, edge_kind="dense")
    scene = tiny_scene(seed=4)
    sample = sample_patch(scene, cfg, SeededRng(1))
    model = ChangeModel(model_cfg)
    seg_o, ch_o = model.forward(sample.images, sample.edges)
    _, _, _, terms = multitask_loss(
        seg_o, sample.seg.astype(np.float64), ch_o, sample.changes.astype(np.float64)
    )
    assert len(terms) == 3 + len(build_edge_set("dense", 3))


def test_train_config_jsonable_round_trip():
    cfg = TrainConfig(lr=0.5, t_train=5, edge_kind="cyclic", seed=9)
    assert TrainConfig.from_jsonable(cfg.to_jsonable()) == cfg


@pytest.mark.parametrize(
    "kw",
    [
        dict(lr=-1.0),
        dict(batch_size=0),
        dict(base_prob=0.0),
        dict(t_train=1),
        dict(candidate_crops=0),
        dict(edge_kind="sideways"),
    ],
)
def test_train_config_validation(kw):
    with pytest.raises(ValueError):
        TrainConfig(**kw)
