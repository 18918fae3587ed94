"""Release gates for the whole pipeline.

Each test prints one [ACCEPTANCE] line so a plain pytest run doubles as a
checklist.  The checks are intentionally end to end: independent oracles,
directional quality bars on synthetic scenes, and bit-level determinism.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from gradcheck import check_layer, fd_grad, max_rel_err

from changeseries.backbone import BackboneConfig
from changeseries.changefeat import build_edge_set, change_pyramid
from changeseries.layers import BatchNorm2d, Conv2d, Sigmoid, TransposeConv2x2
from changeseries.markov import (
    build_potentials,
    integrate,
    map_decode_chain,
    map_decode_general,
)
from changeseries.model import ModelConfig
from changeseries.objective import (
    MapCounts,
    evaluate,
    jaccard_loss,
    pooled_metrics,
    threshold_probs,
)
from changeseries.rng import SeededRng
from changeseries.synthgen import SceneSpec, corrupt_to_probabilities, generate, stack_probs
from changeseries.temporal import (
    MultiHeadSelfAttention,
    TemporalConfig,
    TemporalRefiner,
    TransformerEncoderLayer,
)
from changeseries.trainer import TrainConfig, train


@contextmanager
def criterion(capsys, number, description):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[ACCEPTANCE] criterion {number:2d}: FAIL  {description}")
        raise
    with capsys.disabled():
        print(f"[ACCEPTANCE] criterion {number:2d}: PASS  {description}")


## ------------------------------------------------- 1: exact MAP decoding


def exhaustive_reference(seg_p, ch_p, edge_list):
    """Literal scan over all 2^T assignments, ties to the first (smallest)."""
    t_len, n_pix = seg_p.shape
    p = np.clip(seg_p, 1e-6, 1.0 - 1e-6)
    c = np.clip(ch_p, 1e-6, 1.0 - 1e-6)
    best_states = np.zeros((t_len, n_pix), dtype=np.uint8)
    best_score = np.full(n_pix, -np.inf)
    for bits in itertools.product((0, 1), repeat=t_len):
        score = np.zeros(n_pix)
        for t, b in enumerate(bits):
            score = score + np.log(p[t] if b else 1.0 - p[t])
        for row, (t, k) in enumerate(edge_list):
            if bits[t - 1] != bits[k - 1]:
                score = score + np.log(c[row])
            else:
                score = score + np.log(1.0 - c[row])
        better = score > best_score
        best_states[:, better] = np.array(bits, dtype=np.uint8)[:, None]
        best_score = np.where(better, score, best_score)
    return best_states, best_score


def test_criterion_01_map_matches_enumeration(capsys):
    with criterion(capsys, 1, "exact MAP decoding matches exhaustive enumeration"):
        start = time.monotonic()
        rng = SeededRng(20260821)
        draws = 1000
        for t_len in range(2, 7):
            for kind in ("adjacent", "cyclic", "dense"):
                edges = build_edge_set(kind, t_len)
                seg = rng.uniform((t_len, draws, 1))
                ch = rng.uniform((len(edges), draws, 1))
                want_states, want_score = exhaustive_reference(
                    seg.reshape(t_len, -1), ch.reshape(len(edges), -1), list(edges.edges)
                )
                pot = build_potentials(seg, ch, edges)
                states, score = map_decode_general(pot)
                assert np.array_equal(states.reshape(t_len, -1), want_states)
                assert np.allclose(score.reshape(-1), want_score, atol=1e-9)
                if kind == "adjacent":
                    states, score = map_decode_chain(pot)
                    assert np.array_equal(states.reshape(t_len, -1), want_states)
                    assert np.allclose(score.reshape(-1), want_score, atol=1e-9)
        assert time.monotonic() - start < 30.0


## ------------------------------------------------ 2: analytic gradients


def test_criterion_02_gradient_suite(capsys):
    with criterion(capsys, 2, "analytic gradients match central finite differences"):
        start = time.monotonic()
        for i in range(10):
            rng = SeededRng(1000 + i)

            def centered(shape):
                return rng.uniform(shape) * 2.0 - 1.0

            def tokens(rows):
                return np.ascontiguousarray(rows.transpose(1, 2, 0))

            check_layer(Conv2d(2, 3, 3, rng), centered((2, 2, 6, 6)), rng)
            check_layer(TransposeConv2x2(3, 2, rng), centered((2, 3, 3, 3)), rng)
            check_layer(BatchNorm2d(3), centered((2, 3, 4, 4)), rng)
            check_layer(Sigmoid(), centered((2, 3, 4)) * 3.0, rng)
            ## attention takes (T, D, P) tokens: 2 pixels of 3 timestamps x 4 features
            check_layer(MultiHeadSelfAttention(4, 2, rng), tokens(centered((2, 3, 4))), rng)
            check_layer(TransformerEncoderLayer(4, 2, 2, rng), tokens(centered((2, 3, 4))), rng)

            output = rng.uniform((1, 8, 8)) * 0.98 + 0.01
            target = (rng.uniform((1, 8, 8)) > 0.5).astype(np.float64)
            _, grad = jaccard_loss(output, target)
            numeric = fd_grad(lambda: jaccard_loss(output, target)[0], output, h=1e-5)
            assert max_rel_err(grad, numeric) <= 1e-4
        assert time.monotonic() - start < 60.0


## --------------------------------------------------- 3: edge-set sizes


def test_criterion_03_edge_counts(capsys):
    with criterion(capsys, 3, "edge-set sizes and the three-timestamp coincidence"):
        for t_len in range(2, 13):
            assert len(build_edge_set("adjacent", t_len)) == t_len - 1
            assert len(build_edge_set("dense", t_len)) == t_len * (t_len - 1) // 2
            ## at T=2 the wrap-around pair coincides with the only adjacent
            ## pair, so the cyclic set dedupes to a single edge
            assert len(build_edge_set("cyclic", t_len)) == (t_len if t_len >= 3 else 1)
        assert build_edge_set("cyclic", 3).edges == build_edge_set("dense", 3).edges


## ------------------------------------------- 4: change-feature algebra


def test_criterion_04_change_feature_algebra(capsys):
    with criterion(capsys, 4, "change features are antisymmetric and telescoping"):
        rng = SeededRng(4)
        dense = build_edge_set("dense", 5)
        for _ in range(5):
            feats = rng.normal((5, 6, 4, 4))
            fwd = change_pyramid([feats], dense)[0]
            rev = change_pyramid([feats[::-1]], dense)[0]

            def difference(t, k):
                """feats[k] - feats[t] for 0-based t != k, one change row of the
                series (t < k) or of its time reversal (t > k)."""
                if t < k:
                    return fwd[dense.index_of((t + 1, k + 1))]
                return rev[dense.index_of((5 - t, 5 - k))]

            for t, k in itertools.permutations(range(5), 2):
                anti = difference(t, k) + difference(k, t)
                assert np.max(np.abs(anti)) <= 1e-12
            for t, k, m in itertools.permutations(range(5), 3):
                gap = difference(t, k) + difference(k, m) - difference(t, m)
                assert np.max(np.abs(gap)) <= 1e-12


## ------------------------------------- 5: temporal refinement structure


def test_criterion_05_refiner_structure(capsys):
    with criterion(
        capsys, 5, "temporal refinement: order sensitivity and per-cell locality"
    ):
        x = SeededRng(6).normal((4, 4, 3, 3))  # random, non-constant sequence
        perm = [2, 0, 3, 1]

        no_codes = TemporalConfig(heads=2, layers=2, use_position_codes=False)
        refiner = TemporalRefiner(4, no_codes, SeededRng(5))
        assert np.allclose(
            refiner.forward(x[perm]), refiner.forward(x)[perm], atol=1e-10
        )

        with_codes = TemporalConfig(heads=2, layers=2, use_position_codes=True)
        coded = TemporalRefiner(4, with_codes, SeededRng(5))
        violation = np.abs(coded.forward(x[perm]) - coded.forward(x)[perm]).max()
        assert violation > 1e-3

        base = coded.forward(x)
        bumped = x.copy()
        bumped[:, :, 1, 2] += 0.37
        out = coded.forward(bumped)
        elsewhere = np.ones((3, 3), dtype=bool)
        elsewhere[1, 2] = False
        assert np.abs(out[:, :, 1, 2] - base[:, :, 1, 2]).max() > 0
        assert np.array_equal(out[:, :, elsewhere], base[:, :, elsewhere])


## --------------------------------------- 6: node-only fusion degenerates


def test_criterion_06_degenerate_equals_threshold(capsys):
    with criterion(capsys, 6, "node-only fusion equals probability thresholding"):
        rng = SeededRng(7)
        seg = rng.uniform((5, 16, 16))
        seg[0, :4, :4] = 0.5  # exact boundary stays below a strict threshold
        seg[1, 0, 0] = 1e-9
        seg[1, 0, 1] = 1.0 - 1e-9
        series = integrate(seg, None, None, "degenerate")
        assert np.array_equal(series.states, threshold_probs(seg))


## ------------------------------------------------- 7: noisy-map fusion


def noisy_fusion_metrics(workers=1):
    """First-vs-last change F1 per seed for the three fusion modes."""
    rows = []
    for seed in range(5):
        scene = generate(SceneSpec(seed=seed, t_len=4, height=64, width=64))
        seg_p, ch_by_pair = corrupt_to_probabilities(scene, 0.45, 0.25, seed=seed + 1)
        dense = build_edge_set("dense", 4)
        ch_p = stack_probs(ch_by_pair, dense)
        f1 = {}
        for mode in ("degenerate", "adjacent", "dense"):
            if mode == "degenerate":
                series = integrate(seg_p, None, None, mode, workers=workers)
            else:
                series = integrate(seg_p, ch_p, dense, mode, workers=workers)
            f1[mode] = evaluate(
                "bitemporal", series.states, series, scene.seg_labels
            ).f1
        rows.append((f1["degenerate"], f1["adjacent"], f1["dense"]))
    return rows


def test_criterion_07_fusion_beats_thresholding(capsys):
    with criterion(
        capsys, 7, "pairwise fusion lifts noisy first-vs-last change accuracy"
    ):
        start = time.monotonic()
        rows = noisy_fusion_metrics()
        for degenerate_f1, adjacent_f1, _ in rows:
            assert adjacent_f1 >= degenerate_f1 + 0.10
        adjacent_mean = float(np.mean([row[1] for row in rows]))
        dense_mean = float(np.mean([row[2] for row in rows]))
        assert dense_mean >= adjacent_mean - 0.02
        assert time.monotonic() - start < 120.0


## --------------------------------------------- 8: end-to-end desk runs


def held_out_f1(model, scenes, workers=1):
    """Consecutive-pair change F1 per scene after probabilistic fusion."""
    scores = []
    for scene in scenes:
        edges = build_edge_set("dense", scene.t_len)
        seg_p, ch_p = model.forward(scene.images, edges)
        series = integrate(seg_p, ch_p, edges, "dense", workers=workers)
        scores.append(
            evaluate("continuous", series.states, series, scene.seg_labels).f1
        )
    return scores


@pytest.fixture(scope="module")
def desk_runs():
    start = time.monotonic()
    train_scenes = [
        generate(SceneSpec(seed=s, t_len=4, height=64, width=64)) for s in range(8)
    ]
    val_scenes = [
        generate(SceneSpec(seed=s, t_len=4, height=64, width=64)) for s in (100, 101)
    ]
    cfg = TrainConfig(
        lr=1e-3,
        batch_size=2,
        max_epochs=30,
        steps_per_epoch=10,
        patience=30,
        patch_size=64,
        t_train=4,
        edge_kind="dense",
        seed=0,
    )
    runs = {}
    for with_refiner in (True, False):
        model_cfg = ModelConfig(
            backbone=BackboneConfig(),
            temporal=TemporalConfig() if with_refiner else None,
            seed=0,
        )
        result = train(train_scenes, val_scenes, model_cfg, cfg)
        runs[with_refiner] = {
            "model": result.model,
            "f1": held_out_f1(result.model, val_scenes),
        }
    return {
        "runs": runs,
        "elapsed": time.monotonic() - start,
        "train_scenes": train_scenes,
        "val_scenes": val_scenes,
        "cfg": cfg,
    }


@pytest.mark.slow
def test_criterion_08_desk_training(capsys, desk_runs):
    with criterion(
        capsys, 8, "desk training: both variants usable, refined variant ahead"
    ):
        f1_on = desk_runs["runs"][True]["f1"]
        f1_off = desk_runs["runs"][False]["f1"]
        assert all(f1 >= 0.5 for f1 in f1_on)
        assert all(f1 >= 0.5 for f1 in f1_off)
        assert float(np.mean(f1_on)) >= float(np.mean(f1_off))
        assert desk_runs["elapsed"] < 900.0


## -------------------------------------------------- 9: metric identity


def test_criterion_09_metric_identity(capsys):
    with criterion(capsys, 9, "F1 and IoU agree through the pooled-count identity"):
        hand = MapCounts(tp=2, fp=1, fn=1)
        assert (hand.f1, hand.iou) == (2 / 3, 1 / 2)
        rng = SeededRng(9)
        for _ in range(300):
            counts = [
                MapCounts(
                    tp=int(rng.randint(50)),
                    fp=int(rng.randint(50)),
                    fn=int(rng.randint(50)),
                )
                for _ in range(3)
            ]
            pooled = pooled_metrics(counts)
            total = pooled.tp + pooled.fp + pooled.fn
            if total == 0:
                assert pooled.f1 == 1.0 and pooled.iou == 1.0
                continue
            iou = Fraction(pooled.tp, total)
            assert pooled.iou == float(iou)
            assert pooled.f1 == float(2 * iou / (1 + iou))


## ---------------------------------------------------- 10: determinism


@pytest.mark.slow
def test_criterion_10_determinism(capsys, desk_runs):
    with criterion(
        capsys, 10, "seeded reruns and worker counts leave metrics unchanged"
    ):
        baseline = noisy_fusion_metrics(workers=1)
        for workers in (2, 5):
            assert noisy_fusion_metrics(workers=workers) == baseline

        for with_refiner in (True, False):
            run = desk_runs["runs"][with_refiner]
            for workers in (3, 8):
                repeat = held_out_f1(run["model"], desk_runs["val_scenes"], workers)
                assert repeat == run["f1"]

        ## a full retrain from the same seed must land on the same metrics
        model_cfg = ModelConfig(
            backbone=BackboneConfig(), temporal=TemporalConfig(), seed=0
        )
        redo = train(
            desk_runs["train_scenes"],
            desk_runs["val_scenes"],
            model_cfg,
            desk_runs["cfg"],
        )
        assert held_out_f1(redo.model, desk_runs["val_scenes"]) == desk_runs["runs"][True]["f1"]
