"""Edge set combinatorics and change-feature algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from changeseries.changefeat import (
    EDGE_KINDS,
    EdgeSet,
    PairMaps,
    build_edge_set,
    change_pyramid,
    change_pyramid_backward,
)
from changeseries.rng import SeededRng


@pytest.mark.parametrize("t_len", range(2, 13))
def test_edge_counts(t_len):
    assert len(build_edge_set("adjacent", t_len)) == t_len - 1
    assert len(build_edge_set("dense", t_len)) == t_len * (t_len - 1) // 2
    ## the cyclic wrap-around pair coincides with (1, 2) when T = 2, and
    ## an edge set never stores the same pair twice
    expected_cyclic = t_len if t_len >= 3 else 1
    assert len(build_edge_set("cyclic", t_len)) == expected_cyclic


def test_cyclic_equals_dense_at_three():
    assert build_edge_set("cyclic", 3).edges == build_edge_set("dense", 3).edges


def test_edges_sorted_unique_one_based():
    for kind in ("adjacent", "cyclic", "dense"):
        for t_len in (2, 4, 7):
            edges = build_edge_set(kind, t_len).edges
            assert list(edges) == sorted(set(edges))
            for t, k in edges:
                assert 1 <= t < k <= t_len


def test_adjacent_and_dense_contents():
    assert build_edge_set("adjacent", 4).edges == ((1, 2), (2, 3), (3, 4))
    assert build_edge_set("dense", 4).edges == (
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    )
    assert build_edge_set("cyclic", 4).edges == ((1, 2), (1, 4), (2, 3), (3, 4))


def test_build_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_edge_set("adjacent", 1)
    with pytest.raises(ValueError):
        build_edge_set("star", 4)


def test_edge_set_rejects_non_canonical_lists():
    ## the pair list is derived from (kind, t); a stored one must match it
    with pytest.raises(ValueError):
        EdgeSet.from_jsonable({"kind": "adjacent", "t": 3, "edges": [[2, 3], [1, 2]]})
    with pytest.raises(ValueError):
        EdgeSet.from_jsonable({"kind": "dense", "t": 3, "edges": [[1, 2], [2, 3]]})
    assert EdgeSet("dense", 3).edges == ((1, 2), (1, 3), (2, 3))
    ## one validity rule: no kind of edge set exists over a single timestamp
    for kind in EDGE_KINDS:
        with pytest.raises(ValueError, match="at least 2 timestamps"):
            EdgeSet(kind, 1)
        with pytest.raises(ValueError, match="at least 2 timestamps"):
            EdgeSet.from_jsonable({"kind": kind, "t": 1, "edges": []})


def test_index_of_and_index_pairs():
    edges = build_edge_set("dense", 4)
    assert edges.index_of((1, 4)) == 2
    assert edges.index_pairs[2] == (0, 3)
    with pytest.raises(KeyError):
        edges.index_of((4, 1))
    with pytest.raises(KeyError):
        build_edge_set("adjacent", 4).index_of((1, 3))


def test_jsonable_round_trip():
    for kind in ("adjacent", "cyclic", "dense"):
        edges = build_edge_set(kind, 5)
        assert EdgeSet.from_jsonable(edges.to_jsonable()) == edges


def dense_and_reversed_rows(x):
    """Dense change rows of a series and of its time reversal.

    Reversal maps 1-based pair (t, k) to (T + 1 - k, T + 1 - t), whose row is
    the same two timestamps subtracted the other way round.
    """
    dense = build_edge_set("dense", len(x))
    fwd = change_pyramid([x], dense)[0]
    rev = change_pyramid([x[::-1]], dense)[0]
    return dense, fwd, rev


def test_change_pyramid_values_and_bounds():
    x = SeededRng(3).uniform((4, 2, 3, 3))
    dense = build_edge_set("dense", 4)
    d = change_pyramid([x], dense)[0][dense.index_of((2, 4))]
    assert np.array_equal(d, x[3] - x[1])
    with pytest.raises(ValueError):
        change_pyramid([x], build_edge_set("dense", 5))


def test_antisymmetry_exact():
    x = SeededRng(8).uniform((5, 3, 4, 4)) * 10.0 - 5.0
    dense, fwd, rev = dense_and_reversed_rows(x)
    for n, (t, k) in enumerate(dense.edges):
        assert np.all(fwd[n] + rev[dense.index_of((6 - k, 6 - t))] == 0.0)


def test_telescoping_identity():
    x = SeededRng(9).uniform((6, 2, 8, 8)) * 4.0 - 2.0
    dense = build_edge_set("dense", 6)
    rows = change_pyramid([x], dense)[0]
    for t in range(1, 5):
        lhs = rows[dense.index_of((t, t + 1))] + rows[dense.index_of((t + 1, t + 2))]
        rhs = rows[dense.index_of((t, t + 2))]
        assert np.abs(lhs - rhs).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_antisymmetry_property(t_len, seed):
    x = SeededRng(seed).uniform((t_len, 2, 3, 3)) * 6.0 - 3.0
    dense, fwd, rev = dense_and_reversed_rows(x)
    n = SeededRng(seed ^ 1).randint(len(dense))
    t, k = dense.edges[n]
    assert np.all(fwd[n] + rev[dense.index_of((t_len + 1 - k, t_len + 1 - t))] == 0.0)


def test_pair_maps_look_up_through_the_edge_set():
    calls = []

    def row(n, t, k):
        calls.append((n, t, k))
        return np.full((2, 3), 10 * t + k)

    edges = build_edge_set("cyclic", 4)
    maps = PairMaps(edges, row)
    assert list(maps) == list(edges.edges) and len(maps) == 4
    assert np.array_equal(maps[(1, 4)], np.full((2, 3), 3))
    assert calls == [(1, 0, 3)]
    for pair in [(1, 3), (4, 1), (0, 1), (2, 2)]:
        with pytest.raises(KeyError):
            maps[pair]
    adjacent = build_edge_set("adjacent", 4)
    stack = maps.stack(adjacent)
    assert stack.shape == (3, 2, 3)
    assert [int(r[0, 0]) for r in stack] == [1, 12, 23]


def test_change_pyramid_rows_follow_edge_order():
    rng = SeededRng(12)
    refined = [rng.uniform((4, 8, 6, 6)), rng.uniform((4, 16, 3, 3))]
    edges = build_edge_set("dense", 4)
    stacks = change_pyramid(refined, edges)
    assert [s.shape for s in stacks] == [(6, 8, 6, 6), (6, 16, 3, 3)]
    for s, level in enumerate(refined):
        for n, (t, k) in enumerate(edges.edges):
            assert np.array_equal(stacks[s][n], level[k - 1] - level[t - 1])


def test_change_pyramid_checks_series_length():
    edges = build_edge_set("adjacent", 3)
    with pytest.raises(ValueError):
        change_pyramid([SeededRng(0).uniform((4, 2, 2, 2))], edges)


def test_change_pyramid_backward_scatter():
    rng = SeededRng(5)
    edges = build_edge_set("dense", 4)
    g = [rng.uniform((6, 3, 5, 5)), rng.uniform((6, 5, 2, 2))]
    back = change_pyramid_backward(g, edges)
    for s in range(2):
        expected = np.zeros((4,) + g[s].shape[1:])
        for n, (t, k) in enumerate(edges.edges):
            expected[k - 1] += g[s][n]
            expected[t - 1] -= g[s][n]
        assert np.allclose(back[s], expected, atol=0, rtol=0)


def test_change_pyramid_gradient_consistency():
    ## directional consistency of the forward stack and its adjoint:
    ## <change_pyramid(x), g> must equal <x, change_pyramid_backward(g)>
    rng = SeededRng(77)
    edges = build_edge_set("cyclic", 5)
    x = [rng.uniform((5, 2, 4, 4))]
    g = [rng.uniform((len(edges), 2, 4, 4))]
    fwd = change_pyramid(x, edges)
    back = change_pyramid_backward(g, edges)
    lhs = float((fwd[0] * g[0]).sum())
    rhs = float((x[0] * back[0]).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)
