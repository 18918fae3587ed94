"""Independent references the benchmark checks the program against.

Nothing here imports changeseries: the fusion references re-derive the
pairwise model from its definition (node potentials (1-p, p), edge
potentials c where the two states differ and 1-c where they agree,
probabilities clamped to [1e-6, 1 - 1e-6]) and the metric references are
written from their textbook formulas.

Arrays are pixel-flattened: probabilities (T, P) and (N, P), states (T, P).
Edge lists hold 1-based timestamp pairs (t, k) with t < k.
"""

from __future__ import annotations

import itertools

import numpy as np

PROB_EPS = 1e-6
JACCARD_SMOOTH = 1e-6


def edge_list(kind: str, t_len: int) -> list[tuple[int, int]]:
    """Sorted timestamp pairs of an adjacent, cyclic or dense edge set."""
    adjacent = [(t, t + 1) for t in range(1, t_len)]
    if kind == "adjacent":
        return adjacent
    if kind == "cyclic":
        return sorted(set(adjacent) | {(1, t_len)})
    if kind == "dense":
        return [(t, k) for t in range(1, t_len + 1) for k in range(t + 1, t_len + 1)]
    raise ValueError(f"unknown edge kind {kind!r}")


def _logs(seg_probs, ch_probs):
    p = np.clip(np.asarray(seg_probs, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    c = np.clip(np.asarray(ch_probs, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    return np.log(1.0 - p), np.log(p), np.log(1.0 - c), np.log(c)


def series_log_score(states, seg_probs, ch_probs, edges) -> np.ndarray:
    """Per-pixel log-probability (up to a constant) of binary series."""
    lp0, lp1, lc_same, lc_diff = _logs(seg_probs, ch_probs)
    x = np.asarray(states).astype(bool)
    score = np.where(x, lp1, lp0).sum(axis=0)
    for row, (t, k) in enumerate(edges):
        score = score + np.where(x[t - 1] != x[k - 1], lc_diff[row], lc_same[row])
    return score


def enumerate_map(seg_probs, ch_probs, edges) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force MAP: scan all 2^T series in lexicographic order.

    A later series replaces the best only when it scores strictly higher,
    so ties go to the lexicographically smallest series (state 0 first,
    earliest timestamp most significant).  Returns (states, scores).
    """
    lp0, lp1, lc_same, lc_diff = _logs(seg_probs, ch_probs)
    t_len, n_pix = lp0.shape
    best_states = np.zeros((t_len, n_pix), dtype=np.uint8)
    best_score = np.full(n_pix, -np.inf)
    for bits in itertools.product((0, 1), repeat=t_len):
        score = np.zeros(n_pix)
        for t, b in enumerate(bits):
            score = score + (lp1[t] if b else lp0[t])
        for row, (t, k) in enumerate(edges):
            score = score + (lc_diff[row] if bits[t - 1] != bits[k - 1] else lc_same[row])
        better = score > best_score
        best_states[:, better] = np.array(bits, dtype=np.uint8)[:, None]
        best_score = np.where(better, score, best_score)
    return best_states, best_score


def chain_map(seg_probs, ch_probs) -> tuple[np.ndarray, np.ndarray]:
    """Viterbi MAP for adjacent edges (row t links timestamps t+1, t+2).

    suffix[t][s] is the best score of timestamps t.. given state s at t.
    Reading the series forward and taking state 0 whenever it ties yields
    the lexicographically smallest optimal series.
    """
    lp0, lp1, lc_same, lc_diff = _logs(seg_probs, ch_probs)
    t_len = lp0.shape[0]
    node = [(lp0[t], lp1[t]) for t in range(t_len)]
    suffix = [None] * t_len
    suffix[-1] = node[-1]
    for t in range(t_len - 2, -1, -1):
        nxt0, nxt1 = suffix[t + 1]
        from0 = np.maximum(lc_same[t] + nxt0, lc_diff[t] + nxt1)
        from1 = np.maximum(lc_diff[t] + nxt0, lc_same[t] + nxt1)
        suffix[t] = (node[t][0] + from0, node[t][1] + from1)
    states = np.zeros((t_len, lp0.shape[1]), dtype=np.uint8)
    states[0] = suffix[0][1] > suffix[0][0]
    best = np.maximum(suffix[0][0], suffix[0][1])
    for t in range(1, t_len):
        prev = states[t - 1].astype(bool)
        ## the edge cost of moving from the previous state into state s
        to0 = np.where(prev, lc_diff[t - 1], lc_same[t - 1]) + suffix[t][0]
        to1 = np.where(prev, lc_same[t - 1], lc_diff[t - 1]) + suffix[t][1]
        states[t] = to1 > to0
    return states, best


def map_agrees(states, ref_states, ref_score, seg_probs, ch_probs, edges) -> np.ndarray:
    """Per pixel: the series equals the reference MAP, or scores level with it.

    Two exact decoders that add the same terms in another order can split a
    tie differently; a series within 1e-9 (relative) of the best is a tie.
    """
    same = np.all(np.asarray(states) == ref_states, axis=0)
    score = series_log_score(states, seg_probs, ch_probs, edges)
    level = score >= ref_score - 1e-9 * np.maximum(1.0, np.abs(ref_score))
    return same | level


def confusion(pred, truth) -> tuple[int, int, int]:
    """(true positives, false positives, false negatives) of two binary maps."""
    p = np.asarray(pred).astype(bool)
    t = np.asarray(truth).astype(bool)
    return int((p & t).sum()), int((p & ~t).sum()), int((~p & t).sum())


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    """2TP / (2TP + FP + FN); two empty maps agree perfectly (1.0)."""
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2 * tp / denom


def soft_jaccard(output, target) -> float:
    """1 - (sum(o*y) + d) / (sum(o) + sum(y) - sum(o*y) + d) for one map."""
    o = np.asarray(output, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    inter = float((o * y).sum())
    union = float(o.sum() + y.sum()) - inter
    return 1.0 - (inter + JACCARD_SMOOTH) / (union + JACCARD_SMOOTH)
