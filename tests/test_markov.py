"""Per-pixel Markov-network construction and exact MAP decoding."""

import hashlib
import itertools
import math
import threading

import numpy as np
import pytest

from changeseries import cores, markov
from changeseries.changefeat import build_edge_set
from changeseries.markov import (
    PROB_EPS,
    T_MAX,
    MapSeries,
    PixelPotentials,
    build_potentials,
    integrate,
    map_decode_chain,
    map_decode_general,
)
from changeseries.objective import threshold_probs
from changeseries.rng import SeededRng


def brute_force_map(seg, ch, edges):
    """Reference decoder: lexicographic scan over all assignments."""
    t_len, h, w = seg.shape
    states = np.zeros((t_len, h, w), dtype=np.uint8)
    scores = np.full((h, w), -np.inf)
    lo, hi = PROB_EPS, 1.0 - PROB_EPS
    for i in range(h):
        for j in range(w):
            best_score, best_assign = -math.inf, None
            for assign in itertools.product((0, 1), repeat=t_len):
                s = 0.0
                for t in range(t_len):
                    p = min(max(seg[t, i, j], lo), hi)
                    s += math.log(p if assign[t] else 1.0 - p)
                for n, (t, k) in enumerate(edges.edges):
                    c = min(max(ch[n, i, j], lo), hi)
                    differ = assign[t - 1] != assign[k - 1]
                    s += math.log(c if differ else 1.0 - c)
                if s > best_score:
                    best_score, best_assign = s, assign
            states[:, i, j] = best_assign
            scores[i, j] = best_score
    return states, scores


def numpy_enumeration(seg, ch, edges):
    """Reference decoder for long series: every assignment's log-score at once.

    Rows of the (2^T, pixels) score table run in lexicographic order, so
    argmax returns the first maximum.
    """
    t_len, h, w = seg.shape
    assign = np.array(list(itertools.product((0, 1), repeat=t_len)), dtype=bool)
    p = np.clip(seg.reshape(t_len, -1), PROB_EPS, 1.0 - PROB_EPS)
    c = np.clip(ch.reshape(len(edges), -1), PROB_EPS, 1.0 - PROB_EPS)
    score = np.zeros((len(assign), h * w))
    for t in range(t_len):
        score += np.log(np.where(assign[:, t, None], p[t], 1.0 - p[t]))
    for n, (t, k) in enumerate(edges.index_pairs):
        score += np.log(np.where((assign[:, t] != assign[:, k])[:, None], c[n], 1.0 - c[n]))
    best = score.argmax(axis=0)
    states = assign[best].T.astype(np.uint8).reshape(t_len, h, w)
    return states, score.max(axis=0).reshape(h, w)


def random_instance(seed, t_len, kind, h=4, w=5):
    rng = SeededRng(seed)
    edges = build_edge_set(kind, t_len)
    seg = rng.uniform((t_len, h, w)) * 0.98 + 0.01
    ch = rng.uniform((len(edges), h, w)) * 0.98 + 0.01
    return seg, ch, edges


def test_build_potentials_values():
    seg, ch, edges = random_instance(1, 3, "dense")
    pot = build_potentials(seg, ch, edges)
    assert pot.node.shape == (3, 2, 4, 5)
    assert pot.edge.shape == (3, 2, 4, 5)
    assert np.array_equal(pot.node[:, 0], np.log(1.0 - seg))
    assert np.array_equal(pot.node[:, 1], np.log(seg))
    ## edge cells: the pair's states agree, then differ
    assert np.array_equal(pot.edge[:, 0], np.log(1.0 - ch))
    assert np.array_equal(pot.edge[:, 1], np.log(ch))


def test_build_potentials_clamps_extremes():
    edges = build_edge_set("adjacent", 2)
    seg = np.array([[[0.0]], [[1.0]]])
    ch = np.array([[[1.0]]])
    pot = build_potentials(seg, ch, edges)
    assert pot.node.min() >= math.log(PROB_EPS)
    assert pot.edge.min() >= math.log(PROB_EPS)
    assert pot.node.max() <= math.log1p(-PROB_EPS)
    assert pot.edge.max() <= math.log1p(-PROB_EPS)


def test_potentials_validation():
    edges = build_edge_set("adjacent", 3)
    with pytest.raises(ValueError):
        build_potentials(np.full((2, 2, 2), 0.5), np.full((2, 2, 2), 0.5), edges)
    with pytest.raises(ValueError):
        build_potentials(np.full((3, 2, 2), 0.5), np.full((1, 2, 2), 0.5), edges)
    ## log tables may hold any finite value, but not NaN or infinities
    edge = np.full((2, 2, 2, 2), -1.0)
    PixelPotentials(node=np.full((3, 2, 2, 2), 5.0), edge=edge, edges=edges)
    for bad in (np.nan, np.inf, -np.inf):
        node = np.full((3, 2, 2, 2), -1.0)
        node[2, 1, 1, 1] = bad
        with pytest.raises(ValueError):
            PixelPotentials(node=node, edge=edge, edges=edges)
        with pytest.raises(ValueError):
            PixelPotentials(node=np.zeros_like(node), edge=np.full_like(edge, bad), edges=edges)
    ## the old four-cell edge layout is refused
    with pytest.raises(ValueError):
        PixelPotentials(node=np.zeros((3, 2, 2, 2)), edge=np.zeros((2, 4, 2, 2)), edges=edges)
    ## node and edge tables over different pixel extents, even of equal count
    with pytest.raises(ValueError):
        PixelPotentials(node=np.zeros((3, 2, 4, 6)), edge=np.zeros((2, 2, 6, 4)), edges=edges)
    with pytest.raises(ValueError):
        build_potentials(np.full((3, 4, 6), 0.5), np.full((2, 6, 4), 0.5), edges)
    with pytest.raises(ValueError, match="finite"):
        build_potentials(np.full((3, 2, 2), np.nan), np.full((2, 2, 2), 0.5), edges)


def test_chain_hand_case_edge_pulls_weak_node_up():
    ## strong positive at t=1, weak negative at t=2, change unlikely:
    ## the no-change edge drags the second state to 1
    edges = build_edge_set("adjacent", 2)
    seg = np.array([[[0.9]], [[0.4]]])
    ch = np.array([[[0.05]]])
    states, score = map_decode_chain(build_potentials(seg, ch, edges))
    assert states[:, 0, 0].tolist() == [1, 1]
    want = math.log(0.9) + math.log(0.4) + math.log(0.95)
    assert score[0, 0] == pytest.approx(want, rel=1e-12)


def test_chain_hand_case_likely_change_splits_states():
    edges = build_edge_set("adjacent", 2)
    seg = np.array([[[0.9]], [[0.4]]])
    ch = np.array([[[0.95]]])
    states, score = map_decode_chain(build_potentials(seg, ch, edges))
    assert states[:, 0, 0].tolist() == [1, 0]
    want = math.log(0.9) + math.log(0.6) + math.log(0.95)
    assert score[0, 0] == pytest.approx(want, rel=1e-12)


def test_full_tie_selects_all_zero_assignment():
    ## all probabilities exactly one half: every assignment scores the
    ## same, and every decoder must return the lexicographically smallest;
    ## at T=12 all 4096 assignments of the general decoder are rescored,
    ## and at T=16 no block's bound prunes, so all 128 blocks are entered
    cases = [(t_len, kind, (2, 2)) for t_len in (2, 3, 4, 8, 12)
             for kind in ("adjacent", "cyclic", "dense")]
    for t_len, kind, (h, w) in cases + [(16, "dense", (1, 2))]:
        edges = build_edge_set(kind, t_len)
        seg = np.full((t_len, h, w), 0.5)
        ch = np.full((len(edges), h, w), 0.5)
        pot = build_potentials(seg, ch, edges)
        decoders = [map_decode_general]
        if kind != "dense" or t_len <= 3:
            decoders.append(map_decode_chain)
        for decode in decoders:
            states, _ = decode(pot)
            assert not states.any(), (kind, t_len, decode.__name__)


def test_partial_tie_prefers_smaller_prefix():
    ## both nodes at one half and a neutral edge: four-way tie; the
    ## decoder must pick (0, 0) over (0, 1), (1, 0) and (1, 1)
    edges = build_edge_set("adjacent", 2)
    pot = build_potentials(
        np.full((2, 1, 1), 0.5), np.full((1, 1, 1), 0.5), edges
    )
    for decode in (map_decode_chain, map_decode_general):
        states, _ = decode(pot)
        assert states[:, 0, 0].tolist() == [0, 0]
    ## one timestamp leans to state 1 and all else is neutral: half of
    ## the assignments tie, and the smallest of them fixes only that one;
    ## at dense T=16 a lean on the first timestamp prunes blocks 0-63 and
    ## the winner opens block 64, a lean on the last ties every block
    cases = [(t_len, kind) for t_len in (8, 12) for kind in ("adjacent", "cyclic", "dense")]
    for t_len, kind in cases + [(16, "dense")]:
        edges = build_edge_set(kind, t_len)
        ch = np.full((len(edges), 1, 1), 0.5)
        for lean in (0, t_len - 1):
            seg = np.full((t_len, 1, 1), 0.5)
            seg[lean] = 0.9
            want = [0] * t_len
            want[lean] = 1
            pot = build_potentials(seg, ch, edges)
            decoders = [map_decode_general]
            if kind != "dense":
                decoders.append(map_decode_chain)
            for decode in decoders:
                states, _ = decode(pot)
                assert states[:, 0, 0].tolist() == want, (kind, t_len, lean)


@pytest.mark.parametrize("t_len", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["adjacent", "cyclic", "dense"])
def test_decoders_match_brute_force(t_len, kind):
    seg, ch, edges = random_instance(100 + t_len, t_len, kind)
    want_states, want_scores = brute_force_map(seg, ch, edges)
    np_states, np_scores = numpy_enumeration(seg, ch, edges)
    assert np.array_equal(np_states, want_states)
    assert np.allclose(np_scores, want_scores, atol=1e-9)
    pot = build_potentials(seg, ch, edges)
    got_states, got_scores = map_decode_general(pot)
    assert np.array_equal(got_states, want_states)
    assert np.allclose(got_scores, want_scores, atol=1e-9)
    if kind == "adjacent":
        chain_states, chain_scores = map_decode_chain(pot)
        assert np.array_equal(chain_states, want_states)
        assert np.allclose(chain_scores, want_scores, atol=1e-9)


def test_chain_matches_general_on_many_draws():
    ## same series from both decoders, and the same fixed-order score sum
    for kind in ("adjacent", "cyclic"):
        for seed in range(20):
            seg, ch, edges = random_instance(seed, 5, kind, h=3, w=3)
            pot = build_potentials(seg, ch, edges)
            a_states, a_scores = map_decode_chain(pot)
            b_states, b_scores = map_decode_general(pot)
            assert np.array_equal(a_states, b_states)
            assert np.array_equal(a_scores, b_scores)


@pytest.mark.parametrize("t_len", [2, 3, 4, 5, 6, 7])
def test_cyclic_chain_matches_brute_force(t_len):
    ## cutset conditioning on x_1; T=2 is the single adjacent pair
    seg, ch, edges = random_instance(200 + t_len, t_len, "cyclic")
    want_states, want_scores = brute_force_map(seg, ch, edges)
    states, scores = map_decode_chain(build_potentials(seg, ch, edges))
    assert np.array_equal(states, want_states)
    assert np.allclose(scores, want_scores, atol=1e-9)


def test_chain_rejects_other_edge_sets():
    seg, ch, edges = random_instance(19, 4, "dense")
    with pytest.raises(ValueError):
        map_decode_chain(build_potentials(seg, ch, edges))


@pytest.mark.parametrize(
    "kind,t_len", [("cyclic", 8), ("cyclic", 14), ("dense", 10), ("dense", 12), ("dense", 16)]
)
def test_decoders_match_brute_force_long_series(kind, t_len):
    ## dense T >= 12 spans several bounded assignment blocks; the pure-Python
    ## scan takes seconds per pixel there, so numpy enumerates instead
    seg, ch, edges = random_instance(400 + t_len, t_len, kind, h=2, w=2)
    reference = numpy_enumeration if t_len >= 12 else brute_force_map
    want_states, want_scores = reference(seg, ch, edges)
    pot = build_potentials(seg, ch, edges)
    decoders = [map_decode_general] + ([map_decode_chain] if kind == "cyclic" else [])
    for decode in decoders:
        states, scores = decode(pot)
        assert np.array_equal(states, want_states)
        assert np.allclose(scores, want_scores, atol=1e-9)


def series_log_score(states, seg, ch, edges):
    """Per-pixel log-score of a (T, H, W) binary series under clamped potentials."""
    p = np.clip(seg, PROB_EPS, 1 - PROB_EPS)
    c = np.clip(ch, PROB_EPS, 1 - PROB_EPS)
    score = np.log(np.where(states, p, 1 - p)).sum(axis=0)
    for n, (t, k) in enumerate(edges.index_pairs):
        score += np.log(np.where(states[t] != states[k], c[n], 1 - c[n]))
    return score


def test_cyclic_decodes_at_the_enumeration_cap():
    seg, ch, edges = random_instance(21, T_MAX, "cyclic", h=64, w=64)
    series = integrate(seg, ch, edges, "cyclic")
    assert series.states.shape == (T_MAX, 64, 64)
    few = (slice(None), slice(0, 1), slice(0, 3))
    states, scores = map_decode_general(build_potentials(seg[few], ch[few], edges))
    assert np.array_equal(states, series.states[few])
    assert np.array_equal(scores, series.map_score[few[1:]])
    fused = series_log_score(series.states, seg, ch, edges)
    assert np.allclose(fused, series.map_score, rtol=1e-12)
    thresholded = series_log_score(threshold_probs(seg), seg, ch, edges)
    assert np.all(fused >= thresholded - 1e-9 * np.abs(thresholded))


def test_general_blocking_does_not_change_results(monkeypatch):
    ## T=8 fits one block of 2^FREE_STATES assignments and is decoded
    ## without a bound; with 2 or 4 free states it spans 64 or 16 blocks,
    ## and BLOCK_ELEMENTS splits both the bounds and the pixels
    seg, ch, edges = random_instance(22, 8, "dense", h=5, w=7)
    pot = build_potentials(seg, ch, edges)
    base_states, base_scores = map_decode_general(pot)
    monkeypatch.setattr(markov, "BLOCK_ELEMENTS", 64)
    for free in (8, 4, 2):
        monkeypatch.setattr(markov, "FREE_STATES", free)
        states, scores = map_decode_general(pot)
        assert np.array_equal(states, base_states)
        assert np.array_equal(scores, base_scores)
    ## a tie spread over many assignment blocks still goes to the first
    tie = build_potentials(np.full((8, 2, 2), 0.5), np.full((len(edges), 2, 2), 0.5), edges)
    states, _ = map_decode_general(tie)
    assert not states.any()


def entered_blocks(monkeypatch, pot):
    """Decode pot and return the start of every assignment block it scores."""
    starts = []
    features = markov._assignment_features

    def spy(start, stop, t_len, tt, kk):
        if t_len == pot.node.shape[0]:
            starts.append(start)
        return features(start, stop, t_len, tt, kk)

    monkeypatch.setattr(markov, "_assignment_features", spy)
    states, scores = map_decode_general(pot)
    monkeypatch.setattr(markov, "_assignment_features", features)
    return starts, states, scores


@pytest.mark.parametrize("confident", [True, False])
def test_general_bound_prunes_without_changing_results(monkeypatch, confident):
    ## confident inputs that agree with one series leave only that series'
    ## block: every other block loses at least one confident term.  All-0.5
    ## inputs tie every assignment, so no block is pruned.  Either way the
    ## result equals full enumeration in one unbounded block, bitwise.
    t_len, free = 10, 4
    edges = build_edge_set("dense", t_len)
    truth = np.array([0, 0, 1, 1, 1, 0, 1, 1, 0, 1], dtype=np.uint8)
    if confident:
        seg = np.where(truth, 0.99, 0.01)[:, None, None] * np.ones((1, 2, 3))
        ch = np.stack([np.full((2, 3), 0.99 if truth[t] != truth[k] else 0.01)
                       for t, k in edges.index_pairs])
    else:
        seg, ch = np.full((t_len, 2, 3), 0.5), np.full((len(edges), 2, 3), 0.5)
    pot = build_potentials(seg, ch, edges)
    monkeypatch.setattr(markov, "FREE_STATES", t_len)
    (start,), want_states, want_scores = entered_blocks(monkeypatch, pot)
    assert start == 0
    monkeypatch.setattr(markov, "FREE_STATES", free)
    starts, states, scores = entered_blocks(monkeypatch, pot)
    n_blocks = 2 ** (t_len - free)
    if confident:
        prefix = int("".join(map(str, truth[: t_len - free])), 2)
        assert starts == [prefix << free]
        assert np.array_equal(states, np.broadcast_to(truth[:, None, None], states.shape))
    else:
        assert starts == [b << free for b in range(n_blocks)]
        assert not states.any()
    assert np.array_equal(states, want_states)
    assert np.array_equal(scores, want_scores)


def test_uniform_edges_reduce_to_thresholding():
    rng = SeededRng(42)
    seg = rng.uniform((4, 6, 6)) * 0.98 + 0.01
    edges = build_edge_set("adjacent", 4)
    ch = np.full((3, 6, 6), 0.5)
    states, _ = map_decode_chain(build_potentials(seg, ch, edges))
    assert np.array_equal(states, threshold_probs(seg))


def test_decode_scale_invariance():
    ## adding a per-pixel constant to each table (scaling the potentials)
    ## shifts every assignment's log-score equally, leaving the argmax
    seg, ch, edges = random_instance(7, 4, "dense")
    pot = build_potentials(seg, ch, edges)
    rng = SeededRng(70)
    shift_node = rng.uniform((4, 1, 4, 5)) * 6.0 - 3.0
    shift_edge = rng.uniform((len(edges), 1, 4, 5)) * 6.0 - 3.0
    shifted = PixelPotentials(node=pot.node + shift_node, edge=pot.edge + shift_edge, edges=edges)
    a, _ = map_decode_general(pot)
    b, _ = map_decode_general(shifted)
    assert np.array_equal(a, b)


def test_decode_flip_symmetry():
    ## complementing all node probabilities flips the decoded states
    ## wherever no exact tie is involved; edge factors are flip-symmetric
    seg, ch, edges = random_instance(8, 3, "adjacent")
    a, _ = map_decode_chain(build_potentials(seg, ch, edges))
    b, _ = map_decode_chain(build_potentials(1.0 - seg, ch, edges))
    assert np.array_equal(a, 1 - b)


def test_general_enforces_enumeration_cap():
    t_len = T_MAX + 1
    edges = build_edge_set("adjacent", t_len)
    seg = np.full((t_len, 1, 1), 0.6)
    ch = np.full((len(edges), 1, 1), 0.3)
    pot = build_potentials(seg, ch, edges)
    with pytest.raises(ValueError):
        map_decode_general(pot)
    ## the chain decoder has no such cap
    states, _ = map_decode_chain(pot)
    assert states.shape == (t_len, 1, 1)


def test_integrate_degenerate_equals_threshold():
    rng = SeededRng(11)
    seg = rng.uniform((5, 12, 9))
    series = integrate(seg, None, None, "degenerate")
    assert np.array_equal(series.states, threshold_probs(seg))
    assert series.edges is None
    assert series.mode == "degenerate"
    want = np.logical_xor(series.states[0], series.states[4])
    assert np.array_equal(series[(1, 5)], want)


def test_integrate_adjacent_subset_of_dense_rows():
    seg, ch, dense = random_instance(13, 4, "dense")
    sub = build_edge_set("adjacent", 4)
    rows = [dense.index_of(pair) for pair in sub.edges]
    direct = integrate(seg, ch[rows], sub, "adjacent")
    via_dense = integrate(seg, ch, dense, "adjacent")
    assert np.array_equal(direct.states, via_dense.states)
    assert via_dense.edges == sub


def test_integrate_rejects_missing_edges():
    seg, ch, adjacent = random_instance(14, 4, "adjacent")
    with pytest.raises(ValueError):
        integrate(seg, ch, adjacent, "dense")
    with pytest.raises(ValueError):
        integrate(seg, None, None, "dense")
    with pytest.raises(ValueError):
        integrate(seg, ch, adjacent, "diagonal")
    with pytest.raises(ValueError):
        integrate(seg, ch, adjacent, "adjacent", workers=0)
    ## change rows over another extent, with the same pixel count
    seg, ch, adjacent = random_instance(14, 3, "adjacent", h=4, w=6)
    with pytest.raises(ValueError):
        integrate(seg, ch.reshape(2, 6, 4), adjacent, "adjacent")
    ## change rows that the available edge set does not describe
    with pytest.raises(ValueError):
        integrate(seg, ch[:1], adjacent, "adjacent")
    ## rows of a longer series' edge set, though they hold every requested pair
    _, ch4, dense4 = random_instance(14, 4, "dense", h=4, w=6)
    with pytest.raises(ValueError, match="edge set over 4 timestamps"):
        integrate(seg, ch4, dense4, "adjacent")


def tile_budget(monkeypatch, pixels, t_len, mode):
    """Set TILE_BYTES to `pixels` pixels' log tables for `mode` at T = t_len."""
    tables = t_len + len(build_edge_set(mode, t_len))
    monkeypatch.setattr(markov, "TILE_BYTES", pixels * 16 * tables)
    return tables


@pytest.mark.parametrize("table", ["seg", "ch"])
def test_integrate_nan_in_last_tile_raises(monkeypatch, table):
    ## 67 x 67 pixels in tiles of 4096: the NaN (or infinity) sits in the
    ## second of two tiles, which a pool thread builds and checks at two workers
    monkeypatch.setattr(cores, "WORKERS", 2)
    build, raised_on_main = markov.build_potentials, []

    def spy(seg_tile, ch_tile, wanted):
        try:
            return build(seg_tile, ch_tile, wanted)
        except ValueError:
            raised_on_main.append(threading.current_thread() is threading.main_thread())
            raise

    monkeypatch.setattr(markov, "build_potentials", spy)
    ## the degenerate mode reads no change probabilities
    modes = ("degenerate", "adjacent", "dense") if table == "seg" else ("adjacent", "dense")
    for bad in (np.nan, np.inf, -np.inf):
        seg, ch, edges = random_instance(23, 4, "dense", h=67, w=67)
        (seg if table == "seg" else ch)[-1, -1, -1] = bad
        for mode in modes:
            if mode != "degenerate":
                tables = tile_budget(monkeypatch, 4096, 4, mode)
                tiles = markov._tiles(67 * 67, tables, 2, mode == "dense")
                assert tiles == [(0, 2244), (2244, 4489)]
            for workers in (1, 2):
                raised_on_main.clear()
                with pytest.raises(ValueError, match="finite"):
                    integrate(seg, ch, edges, mode, workers=workers)
                if mode != "degenerate":
                    assert raised_on_main == [workers == 1 or cores.workers() == 1]


def test_integrate_noise_free_inputs_recover_labels():
    rng = SeededRng(15)
    labels = (rng.uniform((4, 8, 8)) > 0.5).astype(np.uint8)
    seg = np.clip(labels.astype(np.float64), PROB_EPS, 1 - PROB_EPS)
    edges = build_edge_set("dense", 4)
    ch_rows = []
    for t, k in edges.edges:
        ch_rows.append(
            np.clip(
                np.logical_xor(labels[t - 1], labels[k - 1]).astype(np.float64),
                PROB_EPS,
                1 - PROB_EPS,
            )
        )
    series = integrate(seg, np.stack(ch_rows), edges, "dense")
    assert np.array_equal(series.states, labels)


def test_integrate_worker_counts_agree(monkeypatch):
    ## three cores, so workers=3 splits three ways on any machine
    monkeypatch.setattr(cores, "WORKERS", 3)

    def agree(seg, ch, edges, tile_pixels, one_part_tiles):
        t_len, h, w = seg.shape
        for mode in ("dense", "cyclic", "adjacent"):
            tables = tile_budget(monkeypatch, tile_pixels, t_len, mode)
            assert markov._tiles(h * w, tables, 1, mode == "dense") == one_part_tiles
            base = integrate(seg, ch, edges, mode, workers=1)
            for workers in (2, 3, 7, 64):
                other = integrate(seg, ch, edges, mode, workers=workers)
                assert np.array_equal(base.states, other.states)
                assert np.array_equal(base.map_score, other.map_score)

    ## 67 x 67 pixels in tiles of at most 4096: two tiles of 2244 and 2245
    ## (three of 1496 and 1497 at three workers)
    agree(*random_instance(16, 12, "dense", h=67, w=67), 4096, [(0, 2244), (2244, 4489)])
    ## many small tiles
    agree(*random_instance(16, 4, "dense", h=13, w=11), 10, cores.ranges(143, 15))


@pytest.mark.skipif(cores._blas_handle() is None, reason="OpenBLAS thread count cannot be set")
def test_integrate_workers_run_with_blas_at_one_thread(monkeypatch):
    ## BLAS is held exactly when workers > 1, for one tile as for two, and
    ## states and scores are the same at 1, 2 and 3 workers; a dense raster
    ## of one budget tile is cut into one tile per part, a chain one is not
    monkeypatch.setattr(cores, "WORKERS", 3)
    pinned = []
    for name in ("map_decode_general", "map_decode_chain"):
        decode = getattr(markov, name)

        def spy(tile, decode=decode):
            pinned.append(cores._pinned)
            return decode(tile)

        monkeypatch.setattr(markov, name, spy)
    for side in (70, 20):
        seg, ch, edges = random_instance(17, 5, "dense", h=side, w=side)
        for mode in ("dense", "cyclic", "adjacent"):
            ## 4900 pixels in tiles of at most 4096: two tiles, three at three parts
            tile_budget(monkeypatch, 4096, 5, mode)
            base = None
            for workers in (1, 2, 3):
                pinned.clear()
                series = integrate(seg, ch, edges, mode, workers=workers)
                if side == 20:
                    assert len(pinned) == (workers if mode == "dense" else 1)
                else:
                    assert len(pinned) == (3 if workers == 3 else 2)
                assert all(bool(p) == (workers > 1) for p in pinned)
                if base is None:
                    base = series
                assert np.array_equal(series.states, base.states)
                assert np.array_equal(
                    series.map_score.view(np.uint64), base.map_score.view(np.uint64)
                )
    assert cores._pinned == 0


def test_integrate_parts_never_exceed_workers_or_tiles(monkeypatch):
    monkeypatch.setattr(cores, "WORKERS", 4)
    tile_budget(monkeypatch, 1000, 4, "adjacent")
    side = 67
    seg, ch, edges = random_instance(18, 4, "adjacent", h=side, w=side)
    ## every pixel's index is readable from its first probability
    seg[0] = ((np.arange(side * side) + 0.5) / (side * side)).reshape(side, side)
    parts, decoded = [], []
    run, build = cores.run, markov.build_potentials

    def spy_run(fn, n, limit):
        def part(lo, hi):
            parts.append((lo, hi))
            fn(lo, hi)

        run(part, n, limit)

    def spy_build(seg_tile, ch_tile, wanted):
        decoded.append(np.rint(seg_tile[0, 0] * side * side - 0.5).astype(np.int64))
        return build(seg_tile, ch_tile, wanted)

    monkeypatch.setattr(cores, "run", spy_run)
    monkeypatch.setattr(markov, "build_potentials", spy_build)
    inline = integrate(seg, ch, edges, "adjacent", workers=1)
    for workers in (1, 2, 3, 5000):
        parts.clear()
        decoded.clear()
        series = integrate(seg, ch, edges, "adjacent", workers=workers)
        ## ceil(4489 / 1000) = 5 tiles, cut into a multiple of the parts
        split = min(workers, cores.workers())
        tiles = -(-5 // split) * split
        assert len(parts) == min(workers, tiles, cores.workers())
        assert sorted(i for lo, hi in parts for i in range(lo, hi)) == list(range(tiles))
        ## every part decodes as many tiles
        assert len({hi - lo for lo, hi in parts}) == 1
        sizes = [len(ids) for ids in decoded]
        assert len(sizes) == tiles and max(sizes) <= 1000
        assert max(sizes) - min(sizes) <= 1
        assert np.array_equal(np.sort(np.concatenate(decoded)), np.arange(side * side))
        assert np.array_equal(series.states, inline.states)
        assert np.array_equal(series.map_score, inline.map_score)


def test_tiles_fit_the_byte_budget_and_split_evenly(monkeypatch):
    monkeypatch.setattr(markov, "TILE_BYTES", 1000 * 16 * 7)
    for dense, m, parts in itertools.product(
        (False, True), (0, 1, 999, 1000, 1001, 4489, 10_000), (1, 2, 3, 4)
    ):
        tiles = markov._tiles(m, 7, parts, dense)
        sizes = [hi - lo for lo, hi in tiles]
        assert [i for lo, hi in tiles for i in range(lo, hi)] == list(range(m))
        assert all(0 < n <= 1000 for n in sizes)
        assert max(sizes, default=0) - min(sizes, default=0) <= 1
        ## more tiles than one are a multiple of the parts, at most m;
        ## a chain raster of one tile stays one, a dense one is cut too
        fewest = -(-m // 1000)
        if fewest <= 1 and not dense:
            assert len(tiles) == fewest
        else:
            assert len(tiles) == min(m, -(-fewest // parts) * parts)
    for dense in (False, True):
        ## never more tiles than pixels
        assert markov._tiles(3, 7 * 1000, 2, dense) == [(0, 1), (1, 2), (2, 3)]
        assert markov._tiles(1, 7, 2, dense) == [(0, 1)]


@pytest.mark.skipif(cores._blas_handle() is None, reason="OpenBLAS thread count cannot be set")
def test_dense_raster_of_one_tile_decodes_on_both_workers(monkeypatch):
    ## 24 x 24 pixels of dense T=12 fit one budget tile, yet at two workers
    ## the calling thread and a pool thread each decode half of them
    monkeypatch.setattr(cores, "WORKERS", 2)
    seg, ch, edges = random_instance(24, 12, "dense", h=24, w=24)
    assert len(markov._tiles(24 * 24, 12 + len(edges), 1, True)) == 1
    decode, threads = markov.map_decode_general, []

    def spy(tile):
        threads.append(threading.current_thread())
        return decode(tile)

    monkeypatch.setattr(markov, "map_decode_general", spy)
    one = integrate(seg, ch, edges, "dense", workers=1)
    assert threads == [threading.current_thread()]
    threads.clear()
    two = integrate(seg, ch, edges, "dense", workers=2)
    assert len(threads) == 2 and len(set(threads)) == 2
    assert threading.current_thread() in threads
    assert np.array_equal(one.states, two.states)
    assert np.array_equal(one.map_score.view(np.uint64), two.map_score.view(np.uint64))


def test_assignment_features_bit_layout_at_the_cap():
    ## T=20, dense pairs: row a holds bit T-1-t of a at column t, then
    ## x_t * x_k per pair, C-ordered float64
    edges = build_edge_set("dense", T_MAX)
    tt = np.array([t for t, _ in edges.index_pairs], dtype=np.intp)
    kk = np.array([k for _, k in edges.index_pairs], dtype=np.intp)
    start, stop = 2**T_MAX - 700, 2**T_MAX
    feats = markov._assignment_features(start, stop, T_MAX, tt, kk)
    assert feats.shape == (stop - start, T_MAX + len(edges)) and feats.dtype == np.float64
    assert feats.flags.c_contiguous
    for row, a in zip(feats, range(start, stop)):
        bits = [int(b) for b in format(a, f"0{T_MAX}b")]
        assert row[:T_MAX].tolist() == bits
        assert row[T_MAX:].tolist() == [bits[t] * bits[k] for t, k in edges.index_pairs]
    ## ascending rows are lexicographic: the earliest timestamp is the top bit
    low = markov._assignment_features(0, 3, T_MAX, tt, kk)
    assert low[1, T_MAX - 1] == 1 and low[2, T_MAX - 2] == 1 and not low[:, : T_MAX - 2].any()


def digest_instance(seed, t_len, side):
    """Seeded dense-edge rasters with an all-0.5 block and exact 0 and 1 probabilities."""
    rng = SeededRng(seed)
    edges = build_edge_set("dense", t_len)
    seg = rng.uniform((t_len, side, side))
    ch = rng.uniform((len(edges), side, side))
    seg[:, :3, :3] = 0.5
    ch[:, :3, :3] = 0.5
    seg[:, 4, ::2] = 0.0
    seg[:, 4, 1::2] = 1.0
    ch[:, 5, ::3] = 0.0
    ch[:, 5, 1::3] = 1.0
    return seg, ch, edges


## sha256 of integrate's states bytes then map_score bytes, pinned on the
## implementation before the chain sweep and log tables were rewritten
OUTPUT_DIGESTS = {
    (41, 8, 67): {
        "degenerate": "7d331b47339271d27d71eb778e2f601623be021007b270a71669903d4c8de4cd",
        "adjacent": "717786af27711429bd7e595d771386d790e80011302b615f8dcba5c5c9a0bda4",
        "cyclic": "9224318e2ae27cf78c34cb747baee088d6d382a3d530095b787a19ad287fba39",
        "dense": "d706327d2df652fc134c3a46f438fc9e938c26127cdcaf71439b20389df9fbd0",
    },
    (42, 12, 24): {
        "degenerate": "2a67b46b39a5b82762ac306e916ef556edaf2aeeff818a759631f4c50657d80a",
        "adjacent": "c73ff77b1880c734cd85db0c7c6d7d9a73ab0e1500f10de54d6286d81e0044a4",
        "cyclic": "8251ffdf9469e9dee5bcd008717da8389f71bc606c713db08e77a422cc42ea34",
        "dense": "33d9bd1a0199221a78a9401e7ec6b98bdbdb57367df65fe2b6d8aaae8937df2c",
    },
    (43, 5, 160): {
        "degenerate": "d49e1e87f831faf1ae48631f64a2782120c768bed8e2039d965dae7a7f79b6af",
        "adjacent": "b2c6bc2c5d552df75e0233d21f596f281eb0950e6be3dba89b3f4d836c10f3d0",
        "cyclic": "46646b1fb79bfd39f4d39aa4035d04f8e71b1407a5bde53984517728647ca04c",
        "dense": "f0be1945a97af0e066bc79650fb7b5bf91c86b186b12e5c8dbf975b00d07eae1",
    },
    (44, 20, 40): {
        "degenerate": "7427914e74422add03f7828776bde987c45e7cd59fe82ff4733ef4b18625ed90",
        "adjacent": "1f5a0c5fc5f6947687476b271c39400f8c76536871d2f2f1abfb07fd4d68aee6",
        "cyclic": "ab96785adacf9021568de12405061d8eb82fe1f1fc92eb84070232de249efc28",
    },
}


@pytest.mark.parametrize("instance", sorted(OUTPUT_DIGESTS))
def test_integrate_output_bytes_are_pinned(monkeypatch, instance):
    monkeypatch.setattr(cores, "WORKERS", 3)
    seg, ch, edges = digest_instance(*instance)
    default = markov.TILE_BYTES
    for mode, want in OUTPUT_DIGESTS[instance].items():
        ## the default budget, then tiles of at most 100 pixels
        for tile_pixels in (None, 100):
            if tile_pixels and mode != "degenerate":
                tile_budget(monkeypatch, tile_pixels, instance[1], mode)
            else:
                monkeypatch.setattr(markov, "TILE_BYTES", default)
            for workers in (1, 2, 3, None):
                series = integrate(seg, ch, edges, mode, workers=workers)
                digest = hashlib.sha256(series.states.tobytes() + series.map_score.tobytes())
                assert digest.hexdigest() == want, (mode, tile_pixels, workers)


def test_map_series_xor_and_lookup():
    states = np.array(
        [[[0, 1], [1, 0]], [[1, 1], [0, 0]], [[1, 0], [0, 1]]], dtype=np.uint8
    )
    series = MapSeries(
        states=states,
        mode="dense",
        edges=build_edge_set("dense", 3),
        map_score=np.zeros((2, 2)),
    )
    assert np.array_equal(series[(1, 3)], np.logical_xor(states[0], states[2]))
    assert np.array_equal(series[(1, 2)], np.logical_xor(states[0], states[1]))
    for pair in ((2, 2), (0, 1), (3, 4)):
        with pytest.raises(KeyError):
            series[pair]


def test_decoded_scores_match_assignment_log_probability():
    seg, ch, edges = random_instance(17, 3, "cyclic")
    pot = build_potentials(seg, ch, edges)
    states, scores = map_decode_general(pot)
    h, w = scores.shape
    for i in range(h):
        for j in range(w):
            s = sum(pot.node[t, states[t, i, j], i, j] for t in range(3))
            for n, (t, k) in enumerate(edges.index_pairs):
                cell = int(states[t, i, j] != states[k, i, j])
                s += pot.edge[n, cell, i, j]
            assert scores[i, j] == pytest.approx(s, rel=1e-12)
