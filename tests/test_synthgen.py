"""Synthetic scene generation and label corruption."""

import random

import numpy as np
import pytest

from changeseries import synthgen
from changeseries.changefeat import build_edge_set
from changeseries.rng import SeededRng
from changeseries.synthgen import (
    PROB_EPS,
    SceneSpec,
    corrupt_to_probabilities,
    generate,
    stack_probs,
)


def small_spec(**kw):
    base = dict(seed=0, t_len=4, height=32, width=32, n_buildings=6, max_extent=10)
    base.update(kw)
    return SceneSpec(**base)


def test_generation_is_deterministic():
    a = generate(small_spec())
    b = generate(small_spec())
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.seg_labels, b.seg_labels)
    for pair, label in a.change_labels.items():
        assert np.array_equal(label, b.change_labels[pair])


def test_shapes_dtypes_ranges():
    scene = generate(small_spec())
    assert scene.images.shape == (4, 3, 32, 32)
    assert scene.seg_labels.shape == (4, 32, 32)
    assert scene.seg_labels.dtype == np.uint8
    assert scene.images.min() >= 0.0 and scene.images.max() <= 1.0
    assert set(np.unique(scene.seg_labels)).issubset({0, 1})
    assert scene.t_len == 4


def test_change_labels_are_xor_of_segmentation():
    scene = generate(small_spec(seed=3))
    dense = build_edge_set("dense", 4)
    assert set(scene.change_labels) == set(dense.edges)
    for t, k in dense.edges:
        expected = np.logical_xor(scene.seg_labels[t - 1], scene.seg_labels[k - 1])
        assert np.array_equal(scene.change_labels[(t, k)], expected.astype(np.uint8))


def test_labels_monotone_without_demolition():
    scene = generate(small_spec(seed=5))
    for t in range(1, 4):
        assert np.all(scene.seg_labels[t] >= scene.seg_labels[t - 1])


def test_demolition_can_remove_buildings():
    spec = small_spec(seed=1, demolition_rate=1.0, n_buildings=8)
    scene = generate(spec)
    shrank = any(
        np.any(scene.seg_labels[t] < scene.seg_labels[t - 1]) for t in range(1, 4)
    )
    assert shrank


def test_empty_scene_has_no_labels():
    scene = generate(small_spec(n_buildings=0))
    assert not scene.seg_labels.any()
    assert not any(v.any() for v in scene.change_labels.values())
    ## the background still renders with texture and noise
    assert scene.images.std() > 0.0


def test_scene_has_some_change():
    scene = generate(small_spec())
    assert scene.change_labels[(1, 4)].any()


def test_change_stack_follows_edge_order():
    scene = generate(small_spec(seed=2))
    edges = build_edge_set("adjacent", 4)
    stack = scene.change_stack(edges)
    assert stack.shape == (3, 32, 32)
    for n, pair in enumerate(edges.edges):
        assert np.array_equal(stack[n], scene.change_labels[pair])


def test_corrupt_zero_sigma_is_clipped_labels():
    scene = generate(small_spec(seed=4))
    seg_probs, ch_probs = corrupt_to_probabilities(scene, 0.0, 0.0, seed=11)
    expected = np.clip(scene.seg_labels.astype(np.float64), PROB_EPS, 1.0 - PROB_EPS)
    assert np.array_equal(seg_probs, expected)
    for pair, probs in ch_probs.items():
        label = scene.change_labels[pair].astype(np.float64)
        assert np.array_equal(probs, np.clip(label, PROB_EPS, 1.0 - PROB_EPS))


def test_corrupt_is_deterministic_in_seed():
    scene = generate(small_spec(seed=4))
    a, _ = corrupt_to_probabilities(scene, 0.3, 0.2, seed=5)
    b, _ = corrupt_to_probabilities(scene, 0.3, 0.2, seed=5)
    c, _ = corrupt_to_probabilities(scene, 0.3, 0.2, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_corrupt_flip_rate_matches_gaussian_tail():
    ## on empty background, P(p > 0.5) with sigma = 0.5 is the upper tail
    ## beyond one standard deviation: 0.5 * erfc(1 / sqrt(2)) = 0.158655...
    spec = SceneSpec(seed=0, t_len=2, height=256, width=256, n_buildings=0)
    scene = generate(spec)
    seg_probs, _ = corrupt_to_probabilities(scene, 0.5, 0.0, seed=3)
    rate = float((seg_probs > 0.5).mean())
    assert rate == pytest.approx(0.15865525393145707, abs=0.01)


def test_probabilities_stay_in_open_interval():
    scene = generate(small_spec(seed=7))
    seg_probs, ch_probs = corrupt_to_probabilities(scene, 2.0, 2.0, seed=1)
    for arr in [seg_probs, *ch_probs.values()]:
        assert arr.min() >= PROB_EPS
        assert arr.max() <= 1.0 - PROB_EPS


@pytest.mark.filterwarnings("error")
def test_huge_sigma_clips_to_the_bounds_without_a_warning():
    ## label + noise * 1e308 overflows to +-inf, which the clip maps to the bounds
    scene = generate(small_spec(seed=7))
    seg_probs, ch_probs = corrupt_to_probabilities(scene, 1e308, 1e308, seed=1)
    for arr in [seg_probs, *ch_probs.values()]:
        assert arr.min() >= PROB_EPS
        assert arr.max() <= 1.0 - PROB_EPS


def test_stack_probs_order():
    scene = generate(small_spec(seed=4))
    _, ch_probs = corrupt_to_probabilities(scene, 0.1, 0.1, seed=2)
    edges = build_edge_set("dense", 4)
    stack = stack_probs(ch_probs, edges)
    assert stack.shape == (6, 32, 32)
    assert np.array_equal(stack[3], ch_probs[(2, 3)])


def eager_change_probs(scene, sigma, seed):
    """Every dense pair drawn in one lexicographic pass of the change stream."""
    c_rng = SeededRng(seed).derive(synthgen._STREAM_CH_CORRUPT)
    out = {}
    for pair in build_edge_set("dense", scene.t_len).edges:
        label = scene.change_labels[pair].astype(np.float64)
        out[pair] = np.clip(label + c_rng.normal(label.shape) * sigma, PROB_EPS, 1.0 - PROB_EPS)
    return out


@pytest.mark.parametrize("t_len", [2, 3, 5])
def test_change_lookups_equal_eager_dense_draws(t_len):
    scene = generate(small_spec(seed=t_len, t_len=t_len, height=13, width=21))
    _, ch_probs = corrupt_to_probabilities(scene, 0.3, 0.4, seed=17)
    oracle = eager_change_probs(scene, 0.4, seed=17)
    assert list(ch_probs) == list(oracle) and len(ch_probs) == len(oracle)
    order = list(oracle) * 2
    random.Random(t_len).shuffle(order)
    for pair in order:
        got = ch_probs[pair]
        assert got.dtype == np.float64
        assert got.tobytes() == oracle[pair].tobytes(), pair


def test_change_lookup_rejects_pairs_outside_the_dense_set():
    _, ch_probs = corrupt_to_probabilities(generate(small_spec()), 0.1, 0.1, seed=0)
    for pair in [(0, 1), (2, 2), (3, 2), (1, 5)]:
        with pytest.raises(KeyError):
            ch_probs[pair]


def test_adjacent_stack_draws_only_its_rows(monkeypatch):
    spec = small_spec(t_len=20, height=16, width=24)
    scene = generate(spec)
    change_stream = SeededRng(5).derive(synthgen._STREAM_CH_CORRUPT).seed
    drawn = []
    u64 = SeededRng.u64

    def counting_u64(self, size=None):
        if self.seed == change_stream:
            drawn.append(1 if size is None else int(size))
        return u64(self, size)

    monkeypatch.setattr(SeededRng, "u64", counting_u64)
    _, ch_probs = corrupt_to_probabilities(scene, 0.2, 0.3, seed=5)
    stack = stack_probs(ch_probs, build_edge_set("adjacent", 20))
    assert stack.shape == (19, 16, 24)
    assert sum(drawn) == 19 * 2 * 16 * 24


@pytest.mark.parametrize(
    "kw",
    [
        dict(t_len=1),
        dict(height=0),
        dict(n_buildings=-1),
        dict(min_extent=1),
        dict(min_extent=8, max_extent=7),
        dict(max_extent=100),
        dict(noise_sigma=-0.1),
        dict(illumination_jitter=-0.5),
        dict(demolition_rate=1.5),
        ## more buildings than pixels; a billion used to hang the building loop
        dict(n_buildings=32 * 32 + 1),
        dict(n_buildings=10**9),
        ## NaN passed the x < 0 checks and failed only on the drawn images
        dict(noise_sigma=float("nan")),
        dict(illumination_jitter=float("nan")),
    ],
)
def test_spec_validation(kw):
    with pytest.raises(ValueError):
        small_spec(**kw)


def test_spec_jsonable_round_trip():
    spec = small_spec(seed=6, demolition_rate=0.25)
    assert SceneSpec.from_jsonable(spec.to_jsonable()) == spec


def test_corrupt_rejects_negative_sigma():
    scene = generate(small_spec())
    with pytest.raises(ValueError):
        corrupt_to_probabilities(scene, -0.1, 0.0, seed=0)
