"""Temporal feature refinement: self-attention over timestamps, per spatial cell.

Each pyramid scale owns an independent refiner.  A scale's feature maps
(T, D, H, W) are viewed as H*W independent length-T sequences of
D-dimensional tokens; sinusoidal position codes mark the timestamp, and a
stack of pre-norm transformer encoder layers mixes information across time.
Cells never exchange information, and with position codes disabled the
whole refiner is equivariant to timestamp permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jsonconfig import JsonConfig
from .layers import Layer, LayerNorm, Linear, Param, ReLU, kaiming_uniform
from .rng import SeededRng


@dataclass(frozen=True)
class TemporalConfig(JsonConfig):
    heads: int = 2
    layers: int = 2
    ff_mult: int = 4
    use_position_codes: bool = True

    def __post_init__(self):
        if self.heads < 1 or self.layers < 1 or self.ff_mult < 1:
            raise ValueError("heads, layers and ff_mult must be positive")


def temporal_encoding(t_len: int, dim: int) -> np.ndarray:
    """(T, D) sinusoidal position table, timestamps indexed from zero.

    code[t, 2i]   = sin(t / 10000^(2i/D))
    code[t, 2i+1] = cos(t / 10000^(2i/D))
    """
    if dim % 2:
        raise ValueError("position code dimension must be even")
    pos = np.arange(t_len, dtype=np.float64)[:, None]
    rates = np.power(10000.0, -np.arange(0, dim, 2, dtype=np.float64) / dim)
    angles = pos * rates[None, :]
    out = np.empty((t_len, dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def softmax_last(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class MultiHeadSelfAttention(Layer):
    """Scaled dot-product attention over the time axis of (P, T, D) input.

    Per head: scores = Q K^T / sqrt(D_head), rows softmaxed, context = A V.
    Projections carry no biases; head outputs are concatenated and passed
    through the output projection.
    """

    def __init__(self, dim: int, heads: int, rng: SeededRng):
        if dim % heads:
            raise ValueError(f"width {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.d_head = dim // heads
        self.wq = Param(kaiming_uniform(rng, (dim, dim), dim))
        self.wk = Param(kaiming_uniform(rng, (dim, dim), dim))
        self.wv = Param(kaiming_uniform(rng, (dim, dim), dim))
        self.wo = Param(kaiming_uniform(rng, (dim, dim), dim))
        self._cache = None

    def _split(self, x: np.ndarray) -> np.ndarray:
        p, t, _ = x.shape
        return x.reshape(p, t, self.heads, self.d_head).transpose(0, 2, 1, 3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        p, _, t, _ = x.shape
        return x.transpose(0, 2, 1, 3).reshape(p, t, self.dim)

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        q = self._split(x @ self.wq.value)
        k = self._split(x @ self.wk.value)
        v = self._split(x @ self.wv.value)
        scale = 1.0 / math.sqrt(self.d_head)
        attn = softmax_last(np.matmul(q, k.swapaxes(-1, -2)) * scale)
        ctx = self._merge(np.matmul(attn, v))
        self._cache = (x, q, k, v, attn, ctx) if keep else None
        return ctx @ self.wo.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, q, k, v, attn, ctx = self._cache
        d = self.dim
        scale = 1.0 / math.sqrt(self.d_head)

        self.wo.grad += ctx.reshape(-1, d).T @ dy.reshape(-1, d)
        dctx = self._split(dy @ self.wo.value.T)

        dattn = np.matmul(dctx, v.swapaxes(-1, -2))
        dv = np.matmul(attn.swapaxes(-1, -2), dctx)
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dscores *= scale
        dq = np.matmul(dscores, k)
        dk = np.matmul(dscores.swapaxes(-1, -2), q)

        dq_m, dk_m, dv_m = self._merge(dq), self._merge(dk), self._merge(dv)
        xf = x.reshape(-1, d)
        self.wq.grad += xf.T @ dq_m.reshape(-1, d)
        self.wk.grad += xf.T @ dk_m.reshape(-1, d)
        self.wv.grad += xf.T @ dv_m.reshape(-1, d)
        return dq_m @ self.wq.value.T + dk_m @ self.wk.value.T + dv_m @ self.wv.value.T


class TransformerEncoderLayer(Layer):
    """Pre-norm residual block: x + MHA(LN(x)), then + FFN(LN(.)).

    The feed-forward half is Linear(D -> ff_mult*D) -> ReLU -> Linear(-> D).
    With all attention and feed-forward weights zero the layer is the
    identity map.
    """

    def __init__(self, dim: int, heads: int, ff_mult: int, rng: SeededRng):
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, heads, rng)
        self.ln2 = LayerNorm(dim)
        self.ff1 = Linear(dim, ff_mult * dim, rng)
        self.act = ReLU()
        self.ff2 = Linear(ff_mult * dim, dim, rng)

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        h = x + self.attn.forward(self.ln1.forward(x, keep=keep), keep=keep)
        f = self.ff1.forward(self.ln2.forward(h, keep=keep), keep=keep)
        return h + self.ff2.forward(self.act.forward(f, keep=keep), keep=keep)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dn2 = self.ff1.backward(self.act.backward(self.ff2.backward(dy)))
        dh = dy + self.ln2.backward(dn2)
        dn1 = self.attn.backward(dh)
        return dh + self.ln1.backward(dn1)


class TemporalRefiner(Layer):
    """Stack of encoder layers applied independently at every spatial cell.

    Layer i is also the attribute layer{i}, its record name.
    """

    def __init__(self, dim: int, cfg: TemporalConfig, rng: SeededRng):
        self.dim = dim
        self.cfg = cfg
        self.blocks = [
            TransformerEncoderLayer(dim, cfg.heads, cfg.ff_mult, rng) for _ in range(cfg.layers)
        ]
        for i, block in enumerate(self.blocks):
            setattr(self, f"layer{i}", block)
        self._shape = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        t, d, h, w = x.shape
        if d != self.dim:
            raise ValueError(f"refiner built for width {self.dim}, got {d}")
        self._shape = x.shape
        seq = x.reshape(t, d, h * w).transpose(2, 0, 1)  # (P, T, D)
        if self.cfg.use_position_codes:
            seq = seq + temporal_encoding(t, d)[None, :, :]
        for block in self.blocks:
            seq = block.forward(seq, keep=keep)
        return seq.transpose(1, 2, 0).reshape(t, d, h, w)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        t, d, h, w = self._shape
        g = dy.reshape(t, d, h * w).transpose(2, 0, 1)
        for block in reversed(self.blocks):
            g = block.backward(g)
        ## position codes are additive constants: gradient passes through
        return g.transpose(1, 2, 0).reshape(t, d, h, w)
