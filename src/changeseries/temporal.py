"""Temporal feature refinement: self-attention over timestamps, per spatial cell.

Each pyramid scale owns an independent refiner.  A scale's feature maps
(T, D, H, W) are viewed as H*W independent length-T sequences of
D-dimensional tokens; sinusoidal position codes mark the timestamp, and a
stack of pre-norm transformer encoder layers mixes information across time.
Cells never exchange information, and with position codes disabled the
whole refiner is equivariant to timestamp permutations.

Tokens stay in the encoder's layout, (T, D, P) with P = H*W pixels
trailing and contiguous, in both directions: position codes broadcast as
code[:, :, None], LayerNorm reduces over axis 1, every projection is one
GEMM per timestamp, and attention's T x T scores and context are
multiply-adds vectorized over P.  Weight gradients are sums over
timestamps of (D_in, P) x (P, D_out) GEMMs (layers.channel_outer).

A training forward of an encoder layer keeps each LayerNorm's x-hat and
invstd and attention's Q/K/V and softmax weights, nothing else.  Backward
rebuilds the rest with the forward's own helpers, bitwise: each norm's
output from its x-hat (LayerNorm.output), the 4D-wide FFN hidden layer
from one ff1 GEMM and ReLU (TransformerEncoderLayer._hidden), and
attention's context from its weights and V (MultiHeadSelfAttention.
_context).  Every layer drops its cache once backward has read it.

The refiner runs its encoder layers over pixel tiles, a training forward
over the one tile of all pixels.  A forward with keep=False runs tiles of
a few hundred pixels, about TILE_HIDDEN_BYTES of FFN hidden layer each,
so a tile's activations stay in cache instead of streaming a hidden layer
of tens of MB through memory; inside cores.threaded() the tiles are
shared out evenly between the workers (TemporalRefiner.forward).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cores
from .jsonconfig import JsonConfig
from .layers import Layer, LayerNorm, Linear, Param, ReLU, channel_outer, kaiming_uniform
from .rng import SeededRng


## a keep=False forward runs pixel tiles whose FFN hidden layer has about
## this many bytes, so a tile's activations stay in a core's cache
TILE_HIDDEN_BYTES = 1 << 20


@dataclass(frozen=True)
class TemporalConfig(JsonConfig):
    heads: int = 2
    layers: int = field(default=2, metadata={"flag": "--attn-layers"})
    ff_mult: int = field(default=4, metadata={"flag": None})
    use_position_codes: bool = field(default=True, metadata={"flag": None})

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


class MultiHeadSelfAttention(Layer):
    """Scaled dot-product attention over the time axis of (T, D, P) tokens.

    Per pixel and head: scores = Q K^T / sqrt(D_head), softmaxed over the
    key timestamps, context = A V.  Q, K and V come from one product with
    the (D, 3D) concatenation wq | wk | wv, and each head's T x T scores
    and context are multiply-adds vectorized over the pixel axis.
    Projections carry no biases; head outputs are concatenated along D and
    passed through the output projection.

    A training forward caches Q/K/V and the weights, and the input by
    reference unless built with cache_input=False: then the caller, which
    can rebuild the input, passes it to backward.
    """

    def __init__(self, dim: int, heads: int, rng: SeededRng, cache_input: bool = True):
        if dim % heads:
            raise ValueError(f"width {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.d_head = dim // heads
        self.wq = Param(kaiming_uniform(rng, (dim, dim), dim))
        self.wk = Param(kaiming_uniform(rng, (dim, dim), dim))
        self.wv = Param(kaiming_uniform(rng, (dim, dim), dim))
        self.wo = Param(kaiming_uniform(rng, (dim, dim), dim))
        self.cache_input = cache_input
        self._cache = None

    def _wqkv(self) -> np.ndarray:
        return np.concatenate([self.wq.value, self.wk.value, self.wv.value], axis=1)

    @staticmethod
    def _context(attn: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(T, heads, D_head, P) context: each query's weighted sum of V."""
        return np.einsum("tkhp,khdp->thdp", attn, v)

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        t, d, p = x.shape
        ## qkv[:, i] is Q, K or V, each (T, heads, D_head, P)
        qkv = np.matmul(self._wqkv().T, x).reshape(t, 3, self.heads, self.d_head, p)
        attn = np.einsum("thdp,khdp->tkhp", qkv[:, 0], qkv[:, 1])
        attn *= 1.0 / math.sqrt(self.d_head)
        attn -= attn.max(axis=1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=1, keepdims=True)
        ctx = self._context(attn, qkv[:, 2]).reshape(t, d, p)
        self._cache = (x if self.cache_input else None, qkv, attn) if keep else None
        return np.matmul(self.wo.value.T, ctx)

    def backward(self, dy: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
        (cached_x, qkv, attn), self._cache = self._cache, None
        x = cached_x if x is None else x
        t, d, p = x.shape
        q, k, v = qkv[:, 0], qkv[:, 1], qkv[:, 2]

        self.wo.grad += channel_outer(self._context(attn, v).reshape(t, d, p), dy)
        dctx = np.matmul(self.wo.value, dy).reshape(t, self.heads, self.d_head, p)

        dqkv = np.empty_like(qkv)
        np.einsum("tkhp,thdp->khdp", attn, dctx, out=dqkv[:, 2])
        dscores = np.einsum("thdp,khdp->tkhp", dctx, v)
        del dctx
        dscores -= (dscores * attn).sum(axis=1, keepdims=True)
        dscores *= attn
        dscores *= 1.0 / math.sqrt(self.d_head)
        np.einsum("tkhp,khdp->thdp", dscores, k, out=dqkv[:, 0])
        np.einsum("tkhp,thdp->khdp", dscores, q, out=dqkv[:, 1])
        del dscores

        dqkv = dqkv.reshape(t, 3 * d, p)
        dw = channel_outer(x, dqkv)
        self.wq.grad += dw[:, :d]
        self.wk.grad += dw[:, d : 2 * d]
        self.wv.grad += dw[:, 2 * d :]
        return np.matmul(self._wqkv(), dqkv)


class TransformerEncoderLayer(Layer):
    """Pre-norm residual block: x + MHA(LN(x)), then + FFN(LN(.)).

    The feed-forward half is Linear(D -> ff_mult*D) -> ReLU -> Linear(-> D).
    With all attention and feed-forward weights zero the layer is the
    identity map.  Only the norms and attention keep a cache; backward
    rebuilds the input of attention (ln1's output), of ff1 (ln2's output)
    and of ff2 (the hidden layer).
    """

    def __init__(self, dim: int, heads: int, ff_mult: int, rng: SeededRng):
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, heads, rng, cache_input=False)
        self.ln2 = LayerNorm(dim)
        self.ff1 = Linear(dim, ff_mult * dim, rng)
        self.act = ReLU()
        self.ff2 = Linear(ff_mult * dim, dim, rng)

    def _hidden(self, n2: np.ndarray) -> np.ndarray:
        """relu(ff1(n2)), the FFN hidden layer, which no layer keeps."""
        f = self.ff1.forward(n2, keep=False)
        ## forward passes ln2's output with no other reference: it goes now
        del n2
        return self.act.forward(f, keep=False)

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        h = self.attn.forward(self.ln1.forward(x, keep=keep), keep=keep)
        h += x
        y = self.ff2.forward(self._hidden(self.ln2.forward(h, keep=keep)), keep=False)
        y += h
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        n2 = self.ln2.output()
        f = self._hidden(n2)
        df = self.act.backward(self.ff2.backward(dy, f), f)
        del f
        dn2 = self.ff1.backward(df, n2)
        del n2, df
        dh = dy + self.ln2.backward(dn2)
        dn1 = self.attn.backward(dh, self.ln1.output())
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

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        """The encoder layers on pixel tiles, one of all P pixels if keep is set.

        Every operation of an encoder layer acts on each pixel alone, so a
        contiguous copy of a few pixels' tokens runs the same arithmetic as
        the whole (T, D, P) array and its output is bitwise equal.  Tiles
        differ in size by at most one pixel, and a tile of two pixels or
        more keeps the pixel axis innermost in every reduction, as in the
        whole array.  A training forward returns its one tile as it is; other
        tiles are split between the workers (cores.run) into one output.
        """
        t, d, h, w = x.shape
        if d != self.dim:
            raise ValueError(f"refiner built for width {self.dim}, got {d}")
        p = h * w
        seq = x.reshape(t, d, p)
        code = temporal_encoding(t, d)[:, :, None] if self.cfg.use_position_codes else None

        def tile(lo: int, hi: int) -> np.ndarray:
            y = seq[:, :, lo:hi]
            y = y + code if code is not None else np.ascontiguousarray(y)
            for block in self.blocks:
                y = block.forward(y, keep=keep)
            return y

        if keep:
            return tile(0, p).reshape(t, d, h, w)
        per_tile = max(2, TILE_HIDDEN_BYTES // (t * self.cfg.ff_mult * d * 8))
        bounds = cores.ranges(p, max(1, p // per_tile))
        out = np.empty((t, d, p))

        def run(i0: int, i1: int) -> None:
            for lo, hi in bounds[i0:i1]:
                out[:, :, lo:hi] = tile(lo, hi)

        cores.run(run, len(bounds), cores.splitting())
        return out.reshape(t, d, h, w)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        t, d, h, w = dy.shape
        g = dy.reshape(t, d, h * w)
        for block in reversed(self.blocks):
            g = block.backward(g)
        ## position codes are additive constants: gradient passes through
        return g.reshape(t, d, h, w)
