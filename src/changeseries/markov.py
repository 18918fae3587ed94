"""Per-pixel pairwise Markov network MAP fusion of probabilistic outputs.

Every pixel owns an independent binary network over the T timestamps,
held as log-potentials: each node scores its two states with
(log(1-p), log p) from the segmentation probability p, and each edge
(t, k) scores its two states with log(1-c) where they agree and log c
where they differ, from the change probability c.  Decoding maximizes the
sum of log-potentials, i.e. the product of potentials.  integrate
tabulates and decodes the raster one tile at a time, and with more than
one worker splits its tiles between the cores (cores.run).  A tile is as
large as TILE_BYTES of log tables allows, so each numpy call covers
thousands of pixels: the chain sweep and the whole-column scores are
plain ufunc passes (adds, comparisons, np.maximum, np.where on boolean
states), not fancy indexing, and the general decoder gathers its pixel
columns row by row (np.take).  A dense raster is cut into at least one
tile per worker, even where one tile would hold it, so its enumeration
runs on every core.  Probabilities must be finite in every mode.

Two exact decoders:

- map_decode_chain: a max-product sweep for the adjacent and cyclic edge
  sets, O(T) per pixel.  A cyclic set is decoded by cutset conditioning:
  fixing x_1 turns the edges (1, 2) and (1, T) into unaries on x_2 and x_T
  and leaves an adjacent chain over x_2..x_T, so the sweep runs twice.
- map_decode_general: branch and bound over the 2^T assignments, for any
  edge set.  Assignments come in blocks that fix the leading
  T - FREE_STATES states.  A block's upper bound is its fixed nodes and
  fixed-fixed edges exactly, plus each free node's better state given its
  edges from fixed nodes, plus each free-free edge's better cell.  A pixel
  skips every block whose bound falls below its incumbent: the larger of
  the thresholded series' score and the best score found so far.  Each
  pixel's log-score is rewritten as C + sum_t h_t x_t + sum_(t,k) q_tk
  x_t x_k, so the blocks a pixel enters are scored by one matrix product
  per block of pixels.  The work depends on how confident the inputs are:
  all-0.5 input ties every assignment, so nothing is pruned and all 2^T
  assignments of every pixel are scored, O(2^T (T + N)) flops per pixel.

Ties break toward the lexicographically smallest state vector: state 0
preferred, earliest timestamp most significant.  Every returned score is
canonical: the chosen series' node log-potentials summed in timestamp
order, plus its edge log-potentials summed in edge order.  The general
decoder rescores canonically every assignment that the matrix product puts
within TIE_RTOL of a pixel's best and keeps the first maximum, so neither
states nor scores depend on BLAS rounding, tiling or the worker count.
"""

from __future__ import annotations

import contextlib
from dataclasses import InitVar, dataclass

import numpy as np

from . import cores
from .changefeat import EdgeSet, XorChanges, build_edge_set
from .objective import threshold_probs

PROB_EPS = 1e-6
T_MAX = 20
## integrate decodes the flattened raster in tiles whose log tables, 16 (T + N)
## bytes per pixel, fill at most this many bytes: 13,443 pixels at adjacent
## T=20, 2,496 at dense T=20
TILE_BYTES = 8 << 20
## the general decoder scores at most this many (assignment, pixel) pairs
## at once
BLOCK_ELEMENTS = 1 << 20
## its assignment blocks fix the leading T - FREE_STATES states; on
## corrupted truth at 64², 8 to 10 free states decode dense T=12 and T=16
## within 15% of each other, and T=12 in one unbounded block is 2.4x slower
FREE_STATES = 9
## matrix-product scores this close to a pixel's best, relative to the sum
## of its absolute log-potentials, are rescored canonically
TIE_RTOL = 1e-9

MODES = ("degenerate", "adjacent", "cyclic", "dense")


@dataclass
class PixelPotentials:
    """Raster of per-pixel log-potential tables.

    node: (T, 2, H, W), node[t, s] scores state s at timestamp t.
    edge: (N, 2, H, W), edge[n, d] scores edge n's two states agreeing
    (d = 0) or differing (d = 1), so cell d = x_t XOR x_k.
    Every value must be finite.  The tables are checked unless the caller
    passes finite=True: build_potentials checks the probabilities it
    tabulates instead, so no table is scanned twice.
    integrate builds one per tile: node (T, 2, 1, n), edge (N, 2, 1, n).
    """

    node: np.ndarray
    edge: np.ndarray
    edges: EdgeSet
    finite: InitVar[bool] = False

    def __post_init__(self, finite: bool):
        if self.node.ndim != 4 or self.node.shape[1] != 2:
            raise ValueError("node tables must have shape (T, 2, H, W)")
        if self.edge.ndim != 4 or self.edge.shape[1] != 2:
            raise ValueError("edge tables must have shape (N, 2, H, W)")
        if self.node.shape[2:] != self.edge.shape[2:]:
            raise ValueError("node and edge tables must cover the same pixel extent")
        if self.node.shape[0] != self.edges.t_len:
            raise ValueError("node table count does not match the edge set's T")
        if self.edge.shape[0] != len(self.edges):
            raise ValueError("edge table count does not match the edge set")
        if not finite and not (np.isfinite(self.node).all() and np.isfinite(self.edge).all()):
            raise ValueError("log-potentials must be finite")


def build_potentials(
    seg_probs: np.ndarray, ch_probs: np.ndarray, edges: EdgeSet
) -> PixelPotentials:
    """Clamp probabilities to [PROB_EPS, 1 - PROB_EPS] and tabulate their logs.

    Each table is filled in place: the clamped p goes to cell 1, 1 - p to
    cell 0, and one log pass covers both.  Probabilities must be finite.
    """
    seg_probs = np.asarray(seg_probs, dtype=np.float64)
    ch_probs = np.asarray(ch_probs, dtype=np.float64)
    if seg_probs.ndim != 3:
        raise ValueError("seg_probs must have shape (T, H, W)")
    if ch_probs.ndim != 3:
        raise ValueError("ch_probs must have shape (N, H, W)")
    if seg_probs.shape[0] != edges.t_len or ch_probs.shape[0] != len(edges):
        raise ValueError("probability stacks do not match the edge set")
    _check_finite(seg_probs, ch_probs)
    node, edge = (_log_table(probs) for probs in (seg_probs, ch_probs))
    return PixelPotentials(node=node, edge=edge, edges=edges, finite=True)


def _check_finite(*probs: np.ndarray) -> None:
    if not all(np.isfinite(p).all() for p in probs):
        raise ValueError("probabilities must be finite")


def _log_table(probs: np.ndarray) -> np.ndarray:
    """(K, 2, ...) table of (log(1 - p), log p), p clamped, written in place."""
    table = np.empty((len(probs), 2) + probs.shape[1:])
    np.clip(probs, PROB_EPS, 1.0 - PROB_EPS, out=table[:, 1])
    np.subtract(1.0, table[:, 1], out=table[:, 0])
    return np.log(table, out=table)


def _flatten(pot: PixelPotentials) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    t, _, h, w = pot.node.shape
    return pot.node.reshape(t, 2, h * w), pot.edge.reshape(len(pot.edges), 2, h * w), (h, w)


def _canonical_score(node, edge, pairs, states, cols=None) -> np.ndarray:
    """Log-score of state columns states (T, K) at pixel columns cols (K,).

    cols None means every pixel column, in order, and then states may be
    boolean: each term picks its cell with np.where.  Gathered columns
    index the cell and the column at once.  All node terms of a run of
    columns are gathered at once, (T, k), and so are all edge terms,
    (N, k); each is summed over its rows in order, timestamp order and edge
    order, and the two sums added: one fixed order for every decoder and
    tile.  Runs hold at most BLOCK_ELEMENTS // (T + N) columns, so the
    gathers stay bounded at every K.
    """
    t_len, width = states.shape
    tt = [t for t, _ in pairs]
    kk = [k for _, k in pairs]
    score = np.empty(width)
    step = max(1, BLOCK_ELEMENTS // (t_len + len(pairs)))
    for lo in range(0, width, step):
        run = slice(lo, lo + step)
        s = states[:, run]
        d = s[tt] ^ s[kk]
        if cols is None:
            node_terms = np.where(s, node[:, 1, run], node[:, 0, run])
            edge_terms = np.where(d, edge[:, 1, run], edge[:, 0, run])
        else:
            node_terms = node[np.arange(t_len)[:, None], s, cols[run]]
            edge_terms = edge[np.arange(len(pairs))[:, None], d, cols[run]]
        np.add(_row_sum(node_terms), _row_sum(edge_terms), out=score[run])
    return score


def _row_sum(terms: np.ndarray) -> np.ndarray:
    """terms (R, k) summed over its rows one after another, first to last.

    numpy sums a (R, k) array's rows in order for k >= 2, but a single
    column pairwise, so that one is accumulated instead.
    """
    return terms.sum(axis=0) if terms.shape[1] > 1 else np.cumsum(terms[:, 0])[-1:]


def _sweep(node: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """Max-product over a chain: node (L, 2, m) and edge (L-1, 2, m) log tables.

    Runs the recursion from the last node backwards, then reconstructs
    forward so ties resolve toward the lexicographically smallest states.
    Each step is a few whole-row ufunc passes into reused buffers.
    Returns boolean states (L, m).
    """
    t_len, _, m = node.shape
    ## b0, b1: best log-score of the suffix starting here in state 0, 1
    b0, b1 = node[t_len - 1, 0].copy(), node[t_len - 1, 1].copy()
    ## ptr0[t], ptr1[t]: best successor of state 0, 1 at t; state 0 on ties
    ptr0 = np.empty((t_len - 1, m), dtype=bool)
    ptr1 = np.empty((t_len - 1, m), dtype=bool)
    ## s_ab: edge cell a XOR b plus the successor's score in state b
    s00, s01, s10, s11 = (np.empty(m) for _ in range(4))
    for t in range(t_len - 2, -1, -1):
        e0, e1 = edge[t]
        np.add(e0, b0, out=s00)
        np.add(e1, b1, out=s01)
        np.add(e1, b0, out=s10)
        np.add(e0, b1, out=s11)
        np.greater(s01, s00, out=ptr0[t])
        np.greater(s11, s10, out=ptr1[t])
        np.add(node[t, 0], np.maximum(s00, s01, out=s00), out=b0)
        np.add(node[t, 1], np.maximum(s10, s11, out=s10), out=b1)

    states = np.empty((t_len, m), dtype=bool)
    np.greater(b1, b0, out=states[0])
    for t in range(t_len - 1):
        states[t + 1] = np.where(states[t], ptr1[t], ptr0[t])
    return states


def map_decode_chain(pot: PixelPotentials) -> tuple[np.ndarray, np.ndarray]:
    """Exact MAP for the adjacent or the cyclic edge set, O(T) per pixel.

    A cyclic set is conditioned on x_1: for each of its two values the
    x_1 terms of edges (1, 2) and (1, T) fold into unaries on x_2 and x_T,
    and one sweep decodes x_2..x_T.  x_1 = 1 wins only when its series has
    the strictly higher canonical score.
    Returns (states (T, H, W) uint8, per-pixel log-score (H, W)).
    """
    t_len = pot.node.shape[0]
    listed = pot.edges.edges
    adjacent = EdgeSet("adjacent", t_len).edges
    cyclic = t_len >= 3 and listed == EdgeSet("cyclic", t_len).edges
    if listed != adjacent and not cyclic:
        raise ValueError("chain decoding requires the adjacent or the cyclic edge set")
    node, edge, (h, w) = _flatten(pot)
    pairs = pot.edges.index_pairs
    if cyclic:
        rows = [pot.edges.index_of(pair) for pair in adjacent]
        first, wrap = edge[rows[0]], edge[pot.edges.index_of((1, t_len))]
        branches = []
        for x1 in (False, True):
            ## an edge from x_1 scores x_2's (x_T's) state s in cell s XOR x1
            cells = slice(None, None, -1 if x1 else 1)
            unary = node[1:].copy()
            unary[0] += first[cells]
            unary[-1] += wrap[cells]
            fixed = np.full((1, h * w), x1)
            branch = np.concatenate([fixed, _sweep(unary, edge[rows[1:]])])
            branches.append((branch, _canonical_score(node, edge, pairs, branch)))
        (states0, score0), (states1, score1) = branches
        pick = score1 > score0
        states = np.where(pick, states1, states0)
        score = np.where(pick, score1, score0)
    else:
        states = _sweep(node, edge)
        score = _canonical_score(node, edge, pairs, states)
    return states.astype(np.uint8).reshape(t_len, h, w), score.reshape(h, w)


def _assignment_features(start: int, stop: int, t_len: int, tt, kk) -> np.ndarray:
    """Rows [x | x_t * x_k] for assignments start..stop-1, (B, T + N) float64.

    Assignment a holds state (a >> (T - 1 - t)) & 1 at timestamp t: the
    earliest timestamp is the most significant bit, so ascending a is
    lexicographic order.
    """
    a = np.arange(start, stop, dtype=np.int64)
    x = ((a[:, None] >> (t_len - 1 - np.arange(t_len))) & 1).astype(np.float64)
    return np.concatenate([x, np.take(x, tt, axis=1) * np.take(x, kk, axis=1)], axis=1)


def _block_bounds(node: np.ndarray, edge: np.ndarray, pairs, n_fixed: int):
    """Yield an upper bound (m,) on each block's log-scores, blocks in order.

    Block b holds the assignments whose leading n_fixed states x spell b.
    Its bound sums the fixed nodes and fixed-fixed edges exactly, each free
    node's better state with its edges from fixed nodes folded in, and each
    free-free edge's better cell.  Let d_n = edge[n, 1] - edge[n, 0] and
    D_t = sum_(fixed k) x_k d_(k, t).  Free node t in state 0 scores
    P_t + D_t, and in state 1 Q_t - D_t, where P_t (Q_t) is node[t, 0]
    (node[t, 1]) plus cell 0 (cell 1) of every edge from a fixed node to t.
    Its better state scores -D_t + max(P_t + 2 D_t, Q_t), and the -D_t
    parts join the fixed terms.  So with rows phi = [1 | x | x_t x_k] over
    the fixed states and fixed-fixed edges, a group of blocks is bounded by
    phi @ fixed + sum_t max((phi[:, :1 + n_fixed] @ free)_t, Q_t): two
    matrix products and one pass over at most BLOCK_ELEMENTS values.
    """
    t_len, _, m = node.shape
    n_free = t_len - n_fixed
    differ = edge[:, 1] - edge[:, 0]
    const = node[:n_fixed, 0].sum(axis=0)
    h_fixed = node[:n_fixed, 1] - node[:n_fixed, 0]
    p_free, q_free = node[n_fixed:, 0].copy(), node[n_fixed:, 1].copy()
    d_free = np.zeros((n_fixed, n_free, m))
    both_fixed = []
    for n, (t, k) in enumerate(pairs):
        if k < n_fixed:
            both_fixed.append(n)
            const = const + edge[n, 0]
            h_fixed[t] += differ[n]
            h_fixed[k] += differ[n]
        elif t < n_fixed:
            p_free[k - n_fixed] += edge[n, 0]
            q_free[k - n_fixed] += edge[n, 1]
            d_free[t, k - n_fixed] = differ[n]
        else:
            const = const + np.maximum(edge[n, 0], edge[n, 1])
    fixed = np.concatenate([const[None], h_fixed - d_free.sum(axis=1), -2.0 * differ[both_fixed]])
    free = np.concatenate([p_free[None], 2.0 * d_free]).reshape(1 + n_fixed, n_free * m)
    ff_t = np.array([pairs[n][0] for n in both_fixed], dtype=np.intp)
    ff_k = np.array([pairs[n][1] for n in both_fixed], dtype=np.intp)

    n_blocks = 2**n_fixed
    g_blk = max(1, BLOCK_ELEMENTS // max(1, n_free * m))
    for g_lo in range(0, n_blocks, g_blk):
        g_hi = min(g_lo + g_blk, n_blocks)
        phi = np.concatenate(
            [np.ones((g_hi - g_lo, 1)), _assignment_features(g_lo, g_hi, n_fixed, ff_t, ff_k)],
            axis=1,
        )
        per_free = (phi[:, : 1 + n_fixed] @ free).reshape(g_hi - g_lo, n_free, m)
        np.maximum(per_free, q_free, out=per_free)
        yield from phi @ fixed + per_free.sum(axis=1)


def map_decode_general(pot: PixelPotentials) -> tuple[np.ndarray, np.ndarray]:
    """Exact MAP by branch and bound over assignment blocks; any edge set.

    Block b holds the 2^F assignments, F = min(T, FREE_STATES), whose leading
    T - F states spell b.  Blocks are visited in ascending order.  A pixel
    enters a block only if the block's upper bound (_block_bounds) is at
    least its incumbent less its TIE_RTOL band; the incumbent is the larger
    of the thresholded series' canonical score and the best canonical score
    found so far.  A pruned block holds no assignment that could win or
    tie, so the result is that of full enumeration.  A series that fits in
    one block is scored without a bound.  The live pixels of a block are
    scored by one matrix product per BLOCK_ELEMENTS (assignment, pixel)
    pairs, so memory is bounded at every T.  Candidates near a pixel's best
    are rescored canonically and the first maximum in assignment order wins.

    How much is pruned depends on how confident the inputs are: all-0.5
    input ties every assignment, so every block is entered and all 2^T
    assignments of every pixel are scored.
    """
    t_len = pot.node.shape[0]
    if t_len > T_MAX:
        raise ValueError(f"series length {t_len} exceeds the enumeration cap {T_MAX}")
    node, edge, (h, w) = _flatten(pot)
    m = h * w
    pairs = pot.edges.index_pairs
    tt = np.array([t for t, _ in pairs], dtype=np.intp)
    kk = np.array([k for _, k in pairs], dtype=np.intp)

    ## pseudo-boolean coefficients [h; q], (T + N, m); the constant C drops
    h_coef = node[:, 1] - node[:, 0]
    differ = edge[:, 1] - edge[:, 0]
    for n, (t, k) in enumerate(pairs):
        h_coef[t] += differ[n]
        h_coef[k] += differ[n]
    coef = np.concatenate([h_coef, -2.0 * differ])
    ## each edge's two cells count twice: once per state pair they score
    tol = TIE_RTOL * (1.0 + np.abs(node).sum(axis=(0, 1)) + 2.0 * np.abs(edge).sum(axis=(0, 1)))
    shifts = (t_len - 1 - np.arange(t_len))[:, None]

    n_fixed = max(0, t_len - FREE_STATES)
    a_blk = 2 ** (t_len - n_fixed)
    p_blk = max(1, BLOCK_ELEMENTS // a_blk)
    every = np.arange(m)
    if n_fixed:
        bounds = _block_bounds(node, edge, pairs, n_fixed)
        thresholded = node[:, 1] > node[:, 0]
        incumbent = _canonical_score(node, edge, pairs, thresholded)
    top = np.full(m, -np.inf)  # best matrix-product score so far
    best = np.full(m, -np.inf)  # best canonical score so far
    best_idx = np.zeros(m, dtype=np.int64)
    for a_lo in range(0, 2**t_len, a_blk):
        live = every
        if n_fixed:
            live = np.flatnonzero(next(bounds) + tol >= np.maximum(incumbent, best))
            if not live.size:
                continue
        feats = _assignment_features(a_lo, a_lo + a_blk, t_len, tt, kk)
        for p_lo in range(0, len(live), p_blk):
            block = live[p_lo : p_lo + p_blk]
            ## gathered with np.take, which copies row by row into C order:
            ## coef[:, block] builds an F-ordered copy whose inner loop reads
            ## one value from each of the T + N rows, a tile's width apart
            score = feats @ np.take(coef, block, axis=1)
            top[block] = np.maximum(top[block], score.max(axis=0))
            near = score >= top[block] - tol[block]
            ## few assignments are near any pixel's best: scan only their rows
            rows = np.flatnonzero(near.any(axis=1))
            a_near, p_near = np.nonzero(near[rows])
            cand, cols = a_lo + rows[a_near], block[p_near]
            exact = _canonical_score(node, edge, pairs, (cand >> shifts) & 1, cols)
            ## per pixel: highest canonical score, then smallest assignment
            order = np.lexsort((cand, -exact, cols))
            head = np.ones(len(order), dtype=bool)
            head[1:] = cols[order[1:]] != cols[order[:-1]]
            win = order[head]
            win = win[exact[win] > best[cols[win]]]
            best[cols[win]] = exact[win]
            best_idx[cols[win]] = cand[win]

    states = ((best_idx[None, :] >> shifts) & 1).astype(np.uint8)
    return states.reshape(t_len, h, w), best.reshape(h, w)


def _tiles(m: int, tables: int, parts: int, dense: bool) -> list[tuple[int, int]]:
    """Pixel ranges of the tiles that integrate decodes; `tables` = T + N.

    The fewest tiles whose log tables fit in TILE_BYTES, their sizes within
    one pixel of each other.  A raster of more than one tile, or any dense
    raster, is cut into a multiple of `parts` tiles (at most m), so every
    part decodes as many.  A chain raster of one tile stays one: its sweep
    is too short to pay for a second thread (cyclic T=12 at 64x64 took
    0.8-1.3 ms in one tile and 1.2-1.9 ms in two, on two workers), while
    a dense tile's enumeration is long enough to share.
    """
    per_tile = max(1, TILE_BYTES // (16 * tables))
    n = -(-m // per_tile)
    if n > 1 or dense:
        n = min(m, -(-n // parts) * parts)
    return cores.ranges(m, n)


@dataclass
class MapSeries:
    """Fused binary building maps; series[(t, k)] is their XOR change map."""

    states: np.ndarray  # (T, H, W) uint8
    mode: str
    edges: EdgeSet | None  # edges the decoder consumed (None for degenerate)
    map_score: np.ndarray  # (H, W) per-pixel log-score of the chosen assignment

    @property
    def t_len(self) -> int:
        return int(self.states.shape[0])

    def __getitem__(self, pair: tuple[int, int]) -> np.ndarray:
        return XorChanges(self.states)[pair]


def _degenerate_series(seg_probs: np.ndarray) -> MapSeries:
    _check_finite(seg_probs)
    states = threshold_probs(seg_probs)
    ## each pixel's chosen probability, p or 1 - p, then its log, in place
    p = np.clip(seg_probs, PROB_EPS, 1.0 - PROB_EPS)
    np.subtract(1.0, p, out=p, where=states == 0)
    score = np.log(p, out=p).sum(axis=0)
    return MapSeries(states=states, mode="degenerate", edges=None, map_score=score)


def integrate(
    seg_probs: np.ndarray,
    ch_probs: np.ndarray | None,
    available: EdgeSet | None,
    mode: str,
    workers: int | None = None,
) -> MapSeries:
    """Fuse probabilistic outputs into one consistent binary map series.

    mode picks the edges entering each pixel's network; they must be a
    subset of `available`, the edge set describing ch_probs' rows.  The
    degenerate mode ignores change evidence entirely and thresholds the
    segmentation probabilities at 0.5.  Every mode raises ValueError on a
    NaN or infinite probability it reads.  The flattened raster is decoded
    in the fewest tiles whose log tables, 16 (T + N) bytes per pixel, fit
    in TILE_BYTES, their sizes within one pixel of each other; a raster of
    more than one tile, or a dense raster of any size, is cut into a
    multiple of the parts, so each thread decodes as many, while a chain
    raster of one tile stays one (_tiles).  workers defaults to
    cores.workers(), the threads inference runs on; an int caps it.  With
    workers > 1 the decode runs inside cores.threaded(), OpenBLAS held at
    one thread, and cores.run splits the tiles between at most `workers`
    threads, never more than the tiles or cores.workers(); the calling
    thread decodes a share.  Each tile's probabilities are checked and its
    log tables built just before it is decoded, so each thread holds one
    tile's tables at a time.  Pixels are independent, so results are
    identical for every worker count.
    """
    seg_probs = np.asarray(seg_probs, dtype=np.float64)
    if seg_probs.ndim != 3:
        raise ValueError("seg_probs must have shape (T, H, W)")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    workers = cores.workers() if workers is None else workers
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if mode == "degenerate":
        return _degenerate_series(seg_probs)

    if ch_probs is None or available is None:
        raise ValueError(f"mode {mode!r} needs change probabilities and their edge set")
    ch_probs = np.asarray(ch_probs, dtype=np.float64)
    t_len, h, w = seg_probs.shape
    if ch_probs.shape != (len(available), h, w):
        raise ValueError(f"ch_probs has shape {ch_probs.shape}, expected {(len(available), h, w)}")
    if available.t_len != t_len:
        raise ValueError(f"edge set over {available.t_len} timestamps, seg_probs has {t_len}")
    wanted = build_edge_set(mode, t_len)
    try:
        rows = [available.index_of(pair) for pair in wanted.edges]
    except KeyError as exc:
        raise ValueError(
            f"mode {mode!r} requests edges beyond the available set: {exc}"
        ) from exc

    ## the raster as one row of m pixels; tiles are column ranges of it
    m = h * w
    seg_row = seg_probs.reshape(t_len, 1, m)
    ch_row = ch_probs.reshape(len(available), 1, m)
    states = np.empty((t_len, m), dtype=np.uint8)
    score = np.empty(m)

    def run(first: int, stop: int) -> None:
        ## looked up per call, so wrappers installed on the module see them
        decode = map_decode_general if mode == "dense" else map_decode_chain
        for lo, hi in tiles[first:stop]:
            tile = build_potentials(seg_row[:, :, lo:hi], ch_row[rows, :, lo:hi], wanted)
            st, sc = decode(tile)
            states[:, lo:hi] = st.reshape(t_len, hi - lo)
            score[lo:hi] = sc.reshape(hi - lo)

    ## BLAS is held whenever workers may share the cores, even for one tile
    with cores.threaded() if workers > 1 else contextlib.nullcontext():
        tiles = _tiles(m, t_len + len(wanted), min(workers, cores.splitting()), mode == "dense")
        cores.run(run, len(tiles), workers)
    return MapSeries(
        states=states.reshape(t_len, h, w),
        mode=mode,
        edges=wanted,
        map_score=score.reshape(h, w),
    )
