"""Timestamp-pair edge sets and parameter-free change features.

An edge (t, k) with 1 <= t < k <= T names an ordered timestamp pair of a
length-T series.  Change features for an edge are plain later-minus-earlier
differences of the refined feature maps, taken per pyramid scale; the
operation owns no parameters.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .jsonconfig import JsonConfig

EDGE_KINDS = ("adjacent", "cyclic", "dense")


def _expected_edges(kind: str, t_len: int) -> list[tuple[int, int]]:
    if kind == "adjacent":
        pairs = [(t, t + 1) for t in range(1, t_len)]
    elif kind == "cyclic":
        pairs = {(t, t + 1) for t in range(1, t_len)}
        pairs.add((1, t_len))
        pairs = list(pairs)
    elif kind == "dense":
        pairs = [(t, k) for t in range(1, t_len + 1) for k in range(t + 1, t_len + 1)]
    else:
        raise ValueError(f"unknown edge kind {kind!r}, expected one of {EDGE_KINDS}")
    return sorted(pairs)


@dataclass(frozen=True)
class EdgeSet(JsonConfig):
    """Sorted, duplicate-free timestamp pairs of one kind over a length-T series.

    Its JSON form is {"kind", "t"}: `edges` is derived from them on
    construction, so it is neither written nor read.
    """

    kind: str
    t_len: int = field(metadata={"key": "t"})
    edges: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.t_len < 2:
            raise ValueError("edge sets need at least 2 timestamps")
        object.__setattr__(self, "edges", tuple(_expected_edges(self.kind, self.t_len)))

    def __len__(self) -> int:
        return len(self.edges)

    def index_of(self, pair: tuple[int, int]) -> int:
        try:
            return self.edges.index(tuple(pair))
        except ValueError:
            raise KeyError(f"pair {pair} not in {self.kind} edge set over T={self.t_len}")

    @property
    def index_pairs(self) -> list[tuple[int, int]]:
        """0-based (t-1, k-1) array indices for each edge."""
        return [(t - 1, k - 1) for t, k in self.edges]


def build_edge_set(kind: str, t_len: int) -> EdgeSet:
    """Edge set of the requested kind; series must have at least 2 timestamps.

    Counts: adjacent T-1; dense T(T-1)/2; cyclic T for T >= 3 and 1 for T = 2
    (the wrap-around pair coincides with the single adjacent pair there, and
    edge sets hold no duplicates).  For T = 3 cyclic equals dense.
    """
    return EdgeSet(kind, t_len)


class PairMaps(Mapping):
    """(H, W) maps of an edge set's pairs, each computed when it is looked up.

    Pair (t, k), 1-based, maps to row(n, t - 1, k - 1), n being the pair's
    index in the edge set; a pair outside the set is a KeyError.  Iteration
    and len follow the edge set.  Nothing is cached.
    """

    def __init__(self, edges: EdgeSet, row):
        self.edges = edges
        self.row = row

    def __getitem__(self, pair: tuple[int, int]) -> np.ndarray:
        n = self.edges.index_of(pair)
        t, k = self.edges.edges[n]
        return self.row(n, t - 1, k - 1)

    def __iter__(self):
        return iter(self.edges.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def stack(self, edges: EdgeSet) -> np.ndarray:
        """(N, H, W) maps following the order of `edges`, which may be a subset."""
        return np.stack([self[pair] for pair in edges.edges], axis=0)


def XorChanges(states: np.ndarray) -> PairMaps:
    """Change maps of a (T, H, W) binary state stack over every dense pair.

    Pair (t, k) maps to the XOR of states t and k as uint8.
    """
    return PairMaps(
        EdgeSet("dense", len(states)),
        lambda n, t, k: np.logical_xor(states[t], states[k]).astype(np.uint8),
    )


def change_pyramid(refined: list[np.ndarray], edges: EdgeSet) -> list[np.ndarray]:
    """Per-scale change features: stack of edge differences.

    refined[s] has shape (T, D_s, H_s, W_s); output[s] has shape
    (N, D_s, H_s, W_s) with rows following the edge set order.
    """
    out = []
    for level in refined:
        if level.shape[0] != edges.t_len:
            raise ValueError(
                f"pyramid level has {level.shape[0]} timestamps, edge set expects {edges.t_len}"
            )
        out.append(np.stack([level[k] - level[t] for t, k in edges.index_pairs], axis=0))
    return out


def change_pyramid_backward(d_change: list[np.ndarray], edges: EdgeSet) -> list[np.ndarray]:
    """Route change-feature gradients back onto the refined pyramid.

    Each edge row contributes +g at its later timestamp and -g at its
    earlier one.
    """
    out = []
    for g in d_change:
        acc = np.zeros((edges.t_len,) + g.shape[1:], dtype=np.float64)
        for n, (t, k) in enumerate(edges.index_pairs):
            acc[k] += g[n]
            acc[t] -= g[n]
        out.append(acc)
    return out
