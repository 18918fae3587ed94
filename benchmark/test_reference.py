"""Hand-worked cases for the benchmark's independent references.

Run with: python3 -m pytest benchmark/test_reference.py
"""

import math

import numpy as np
import pytest

from reference import (
    chain_map,
    confusion,
    edge_list,
    enumerate_map,
    f1_from_counts,
    map_agrees,
    series_log_score,
    soft_jaccard,
)


def col(*values):
    """One pixel: a (len, 1) column."""
    return np.array(values, dtype=np.float64)[:, None]


def test_edge_list_counts():
    assert edge_list("adjacent", 5) == [(1, 2), (2, 3), (3, 4), (4, 5)]
    assert edge_list("cyclic", 4) == [(1, 2), (1, 4), (2, 3), (3, 4)]
    assert edge_list("cyclic", 2) == [(1, 2)]
    assert len(edge_list("dense", 12)) == 66
    with pytest.raises(ValueError):
        edge_list("ring", 4)


def test_t2_map_worked_on_paper():
    ## p = (0.9, 0.2), change (1,2) 0.7: products 0.024, 0.014, 0.504, 0.054
    seg, ch = col(0.9, 0.2), col(0.7)
    states, score = enumerate_map(seg, ch, [(1, 2)])
    assert states[:, 0].tolist() == [1, 0]
    assert score[0] == pytest.approx(math.log(0.9 * 0.8 * 0.7))


def test_t2_exact_tie_goes_to_smallest_series():
    states, score = enumerate_map(col(0.5, 0.5), col(0.5), [(1, 2)])
    assert states[:, 0].tolist() == [0, 0]
    assert score[0] == pytest.approx(3 * math.log(0.5))


def test_t3_dense_map_worked_on_paper():
    ## best is (1, 0, 0): 0.8*0.6*0.7 * 0.9*0.9*0.8
    seg, ch = col(0.8, 0.4, 0.3), col(0.9, 0.9, 0.2)
    states, score = enumerate_map(seg, ch, edge_list("dense", 3))
    assert states[:, 0].tolist() == [1, 0, 0]
    assert score[0] == pytest.approx(math.log(0.336 * 0.648))


def test_t3_chain_overrides_thresholding():
    ## no-change evidence pulls the middle timestamp up: (1,1,1) scores
    ## 0.9*0.45*0.9*0.9*0.9 against 0.9*0.55*0.9*0.1*0.1 for (1,0,1)
    seg, ch = col(0.9, 0.45, 0.9), col(0.1, 0.1)
    for states, score in (enumerate_map(seg, ch, [(1, 2), (2, 3)]), chain_map(seg, ch)):
        assert states[:, 0].tolist() == [1, 1, 1]
        assert score[0] == pytest.approx(math.log(0.9 * 0.45 * 0.9 * 0.81))


def test_chain_tie_goes_to_smallest_series():
    states, _ = chain_map(col(0.5, 0.5, 0.5), col(0.5, 0.5))
    assert states[:, 0].tolist() == [0, 0, 0]


def test_chain_matches_enumeration_on_random_pixels():
    rng = np.random.default_rng(7)
    seg, ch = rng.uniform(size=(6, 300)), rng.uniform(size=(5, 300))
    edges = edge_list("adjacent", 6)
    ref_states, ref_score = enumerate_map(seg, ch, edges)
    states, score = chain_map(seg, ch)
    np.testing.assert_allclose(score, ref_score, rtol=1e-12)
    assert map_agrees(states, ref_states, ref_score, seg, ch, edges).all()


def test_series_log_score_and_agreement():
    seg, ch = col(0.9, 0.2), col(0.7)
    score = series_log_score(col(0, 1).astype(np.uint8), seg, ch, [(1, 2)])
    assert score[0] == pytest.approx(math.log(0.1 * 0.2 * 0.7))
    best, best_score = enumerate_map(seg, ch, [(1, 2)])
    assert not map_agrees(col(0, 1), best, best_score, seg, ch, [(1, 2)])[0]
    assert map_agrees(col(1, 0), best, best_score, seg, ch, [(1, 2)])[0]


def test_f1_two_by_two():
    pred = np.array([[1, 1], [0, 0]])
    truth = np.array([[1, 0], [1, 0]])
    assert confusion(pred, truth) == (1, 1, 1)
    assert f1_from_counts(*confusion(pred, truth)) == 0.5
    assert f1_from_counts(*confusion(np.zeros((2, 2)), np.zeros((2, 2)))) == 1.0
    assert f1_from_counts(0, 2, 0) == 0.0


def test_soft_jaccard():
    ## inter 0.5, union 1.5
    assert soft_jaccard([[0.5, 0.5]], [[1, 0]]) == pytest.approx(2 / 3, abs=1e-6)
    assert soft_jaccard([[1.0, 1.0]], [[1, 1]]) == pytest.approx(0.0, abs=1e-9)
    assert soft_jaccard([[0.2, 0.1]], [[0, 0]]) == pytest.approx(1.0, abs=1e-5)
