"""Loss terms, metric identities, and task evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import fd_grad, max_rel_err
from changeseries.changefeat import PairMaps, build_edge_set
from changeseries.objective import (
    SMOOTH,
    MapCounts,
    binary_metrics,
    evaluate,
    jaccard_loss,
    multitask_loss,
    pooled_metrics,
    threshold_probs,
)
from changeseries.rng import SeededRng


def rand_probs(rng, shape):
    return rng.uniform(shape) * 0.98 + 0.01


def test_jaccard_perfect_prediction_is_tiny():
    target = (SeededRng(1).uniform((8, 8)) > 0.5).astype(np.float64)
    output = np.clip(target, 1e-12, 1.0 - 1e-12)
    loss, _ = jaccard_loss(output, target)
    assert 0.0 <= loss <= 1e-3


def test_jaccard_constant_half_closed_form():
    m = 36
    target = np.ones((6, 6))
    output = np.full((6, 6), 0.5)
    loss, _ = jaccard_loss(output, target)
    expected = 1.0 - (0.5 * m + SMOOTH) / (m + SMOOTH)
    assert loss == pytest.approx(expected, rel=1e-12)


def test_jaccard_total_miss_is_near_one():
    target = np.zeros((5, 5))
    target[2, 2] = 1.0
    output = np.full((5, 5), 1e-12)
    output[2, 2] = 1e-12
    loss, _ = jaccard_loss(output, target)
    assert loss > 0.999


def test_jaccard_gradient_matches_finite_differences():
    rng = SeededRng(2)
    output = rand_probs(rng, (5, 7))
    target = (rng.uniform((5, 7)) > 0.6).astype(np.float64)
    _, grad = jaccard_loss(output, target)
    fd = fd_grad(lambda: jaccard_loss(output, target)[0], output, h=1e-6)
    assert max_rel_err(grad, fd) <= 1e-4


def test_jaccard_validates_inputs():
    with pytest.raises(ValueError):
        jaccard_loss(np.array([0.0, 0.5]), np.array([0.0, 1.0]))  # 0 not allowed
    with pytest.raises(ValueError):
        jaccard_loss(np.array([0.5]), np.array([0.5]))  # non-binary target
    with pytest.raises(ValueError):
        jaccard_loss(np.array([0.5, 0.5]), np.array([1.0]))


def test_multitask_term_count_and_total():
    rng = SeededRng(3)
    edges = build_edge_set("dense", 4)
    seg_o = rand_probs(rng, (4, 6, 6))
    seg_y = (rng.uniform((4, 6, 6)) > 0.5).astype(np.float64)
    ch_o = rand_probs(rng, (6, 6, 6))
    ch_y = (rng.uniform((6, 6, 6)) > 0.5).astype(np.float64)
    total, d_seg, d_ch, terms = multitask_loss(seg_o, seg_y, ch_o, ch_y)
    assert len(terms) == 4 + len(edges)
    assert total == pytest.approx(sum(terms), rel=1e-12)
    assert d_seg.shape == seg_o.shape and d_ch.shape == ch_o.shape
    ## term order is segmentation first, then change rows
    first, _ = jaccard_loss(seg_o[0], seg_y[0])
    assert terms[0] == pytest.approx(first, rel=1e-12)
    last, _ = jaccard_loss(ch_o[-1], ch_y[-1])
    assert terms[-1] == pytest.approx(last, rel=1e-12)


def test_multitask_gradient_slices_match_single_terms():
    rng = SeededRng(4)
    seg_o = rand_probs(rng, (2, 4, 4))
    seg_y = (rng.uniform((2, 4, 4)) > 0.5).astype(np.float64)
    ch_o = rand_probs(rng, (1, 4, 4))
    ch_y = (rng.uniform((1, 4, 4)) > 0.5).astype(np.float64)
    _, d_seg, d_ch, _ = multitask_loss(seg_o, seg_y, ch_o, ch_y)
    for t in range(2):
        _, g = jaccard_loss(seg_o[t], seg_y[t])
        assert np.array_equal(d_seg[t], g)
    _, g = jaccard_loss(ch_o[0], ch_y[0])
    assert np.array_equal(d_ch[0], g)


def test_hand_counts_give_two_thirds_and_half():
    counts = MapCounts(tp=2, fp=1, fn=1)
    assert counts.f1 == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert counts.iou == pytest.approx(0.5, rel=1e-15)


def test_both_empty_scores_one():
    counts = binary_metrics(np.zeros((4, 4)), np.zeros((4, 4)))
    assert counts.f1 == 1.0 and counts.iou == 1.0
    miss = binary_metrics(np.zeros((2, 2)), np.ones((2, 2)))
    assert miss.f1 == 0.0 and miss.iou == 0.0


def test_binary_metrics_match_loop_oracle():
    rng = SeededRng(5)
    pred = (rng.uniform((16, 16)) > 0.5).astype(np.uint8)
    truth = (rng.uniform((16, 16)) > 0.5).astype(np.uint8)
    counts = binary_metrics(pred, truth)
    tp = fp = fn = 0
    for i in range(16):
        for j in range(16):
            if pred[i, j] and truth[i, j]:
                tp += 1
            elif pred[i, j]:
                fp += 1
            elif truth[i, j]:
                fn += 1
    assert (counts.tp, counts.fp, counts.fn) == (tp, fp, fn)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_f1_iou_identity(tp, fp, fn):
    counts = MapCounts(tp=tp, fp=fp, fn=fn)
    assert counts.f1 == pytest.approx(2.0 * counts.iou / (1.0 + counts.iou), rel=1e-12)


def test_pooled_equals_metrics_on_concatenation():
    rng = SeededRng(6)
    pairs = [
        (
            (rng.uniform((8, 8)) > 0.5).astype(np.uint8),
            (rng.uniform((8, 8)) > 0.5).astype(np.uint8),
        )
        for _ in range(3)
    ]
    pooled = pooled_metrics([binary_metrics(p, t) for p, t in pairs])
    cat_pred = np.concatenate([p for p, _ in pairs])
    cat_truth = np.concatenate([t for _, t in pairs])
    direct = binary_metrics(cat_pred, cat_truth)
    assert (pooled.tp, pooled.fp, pooled.fn) == (direct.tp, direct.fp, direct.fn)


def make_series():
    rng = SeededRng(7)
    true_seg = (rng.uniform((4, 8, 8)) > 0.5).astype(np.uint8)
    pred_seg = (rng.uniform((4, 8, 8)) > 0.5).astype(np.uint8)
    changes = {}
    for t in range(1, 4):
        for k in range(t + 1, 5):
            changes[(t, k)] = (rng.uniform((8, 8)) > 0.5).astype(np.uint8)
    return true_seg, pred_seg, changes


def test_evaluate_bitemporal_uses_first_last_pair():
    true_seg, pred_seg, changes = make_series()
    report = evaluate("bitemporal", pred_seg, changes, true_seg)
    want = binary_metrics(
        changes[(1, 4)], np.logical_xor(true_seg[0], true_seg[3]).astype(np.uint8)
    )
    assert len(report.counts) == 1
    assert report.f1 == pytest.approx(want.f1, rel=1e-12)
    assert report.micro_f1 == pytest.approx(want.f1, rel=1e-12)


def test_evaluate_continuous_macro_and_micro():
    true_seg, pred_seg, changes = make_series()
    report = evaluate("continuous", pred_seg, changes, true_seg)
    per_pair = [
        binary_metrics(
            changes[(t, t + 1)],
            np.logical_xor(true_seg[t - 1], true_seg[t]).astype(np.uint8),
        )
        for t in range(1, 4)
    ]
    assert len(report.counts) == 3
    assert report.f1 == pytest.approx(np.mean([c.f1 for c in per_pair]), rel=1e-12)
    assert report.iou == pytest.approx(np.mean([c.iou for c in per_pair]), rel=1e-12)
    pooled = pooled_metrics(per_pair)
    assert report.micro_f1 == pytest.approx(pooled.f1, rel=1e-12)
    assert report.micro_iou == pytest.approx(pooled.iou, rel=1e-12)


def test_evaluate_segmentation_uses_first_and_last_maps():
    true_seg, pred_seg, changes = make_series()
    report = evaluate("segmentation", pred_seg, changes, true_seg)
    first = binary_metrics(pred_seg[0], true_seg[0])
    last = binary_metrics(pred_seg[-1], true_seg[-1])
    assert report.f1 == pytest.approx((first.f1 + last.f1) / 2.0, rel=1e-12)


def test_bitemporal_equals_continuous_for_two_timestamps():
    rng = SeededRng(8)
    true_seg = (rng.uniform((2, 6, 6)) > 0.5).astype(np.uint8)
    pred_seg = (rng.uniform((2, 6, 6)) > 0.5).astype(np.uint8)
    changes = {(1, 2): (rng.uniform((6, 6)) > 0.5).astype(np.uint8)}
    bi = evaluate("bitemporal", pred_seg, changes, true_seg)
    cont = evaluate("continuous", pred_seg, changes, true_seg)
    assert bi.f1 == cont.f1 and bi.iou == cont.iou


def test_evaluate_macro_mean_hand_case():
    ## three consecutive pairs scoring 1.0, 0.5 and 0.0 average to 0.5
    true_seg = np.zeros((4, 2, 2), dtype=np.uint8)
    true_seg[1] = [[1, 1], [0, 0]]  # pair (1,2) truth: two change pixels
    true_seg[2] = [[1, 1], [1, 1]]  # pair (2,3) truth: two change pixels
    true_seg[3] = [[1, 1], [1, 1]]  # pair (3,4) truth: empty
    changes = {
        (1, 2): np.array([[1, 1], [0, 0]], dtype=np.uint8),  # perfect: f1 1.0
        (2, 3): np.array([[0, 1], [0, 1]], dtype=np.uint8),  # tp1 fp1 fn1: f1 0.5
        (3, 4): np.array([[1, 1], [0, 0]], dtype=np.uint8),  # all false alarms: 0
    }
    report = evaluate("continuous", true_seg, changes, true_seg)
    assert [c.f1 for c in report.counts] == [1.0, 0.5, 0.0]
    assert report.f1 == pytest.approx(0.5, rel=1e-12)


def test_evaluate_rejects_bad_inputs():
    true_seg, pred_seg, changes = make_series()
    with pytest.raises(ValueError):
        evaluate("nonsense", pred_seg, changes, true_seg)
    with pytest.raises(ValueError):
        evaluate("bitemporal", pred_seg[:1], changes, true_seg[:1])
    with pytest.raises(ValueError):
        evaluate("bitemporal", pred_seg[:3], changes, true_seg)
    with pytest.raises(ValueError):
        evaluate("bitemporal", pred_seg, {}, true_seg)
    with pytest.raises(ValueError, match="rank 1"):
        evaluate("bitemporal", pred_seg.reshape(-1), changes, true_seg.reshape(-1))


def test_report_jsonable():
    true_seg, pred_seg, changes = make_series()
    obj = evaluate("continuous", pred_seg, changes, true_seg).to_jsonable()
    assert obj["task"] == "continuous"
    assert len(obj["counts"]) == 3
    assert set(obj) == {"task", "f1", "iou", "micro_f1", "micro_iou", "counts"}


def test_threshold_is_strict():
    probs = np.array([0.4999, 0.5, 0.5001])
    assert np.array_equal(threshold_probs(probs), np.array([0, 0, 1], dtype=np.uint8))


def test_thresholded_changes_view():
    rng = SeededRng(9)
    edges = build_edge_set("adjacent", 3)
    probs = rng.uniform((2, 4, 4))
    view = PairMaps(edges, lambda n, t, k: threshold_probs(probs[n]))
    assert np.array_equal(view[(2, 3)], threshold_probs(probs[1]))
    with pytest.raises(KeyError):
        view[(1, 3)]
