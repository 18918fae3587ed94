"""Temporal position codes, attention, and per-scale refinement."""

import math
import tracemalloc

import numpy as np
import pytest

from gradcheck import check_layer
from changeseries.rng import SeededRng
from changeseries.temporal import (
    MultiHeadSelfAttention,
    TemporalConfig,
    TemporalRefiner,
    TransformerEncoderLayer,
    temporal_encoding,
)


def centered(rng, shape):
    return rng.uniform(shape) * 2.0 - 1.0


def tokens(rng, p, t, d):
    """(T, D, P) tokens drawn as P sequences of T rows of D features."""
    return np.ascontiguousarray(centered(rng, (p, t, d)).transpose(1, 2, 0))


def softmax_rows(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_encoding_matches_formula():
    table = temporal_encoding(5, 8)
    assert table.shape == (5, 8)
    for t in range(5):
        for i in range(4):
            rate = 10000.0 ** (-2.0 * i / 8.0)
            assert table[t, 2 * i] == pytest.approx(math.sin(t * rate), abs=1e-15)
            assert table[t, 2 * i + 1] == pytest.approx(math.cos(t * rate), abs=1e-15)


def test_encoding_known_values():
    table = temporal_encoding(3, 4)
    ## timestamp zero: sine columns 0, cosine columns 1
    assert np.array_equal(table[0], np.array([0.0, 1.0, 0.0, 1.0]))
    assert table[1, 0] == pytest.approx(0.8414709848078965, abs=1e-15)
    assert table[1, 1] == pytest.approx(math.cos(1.0), abs=1e-15)
    assert table[2, 0] == pytest.approx(math.sin(2.0), abs=1e-15)


def test_encoding_rejects_odd_width():
    with pytest.raises(ValueError):
        temporal_encoding(4, 5)


def test_attention_weights_are_key_softmax():
    ## every query's weights sum to one over the key timestamps and equal
    ## the softmax of its scaled scores
    rng = SeededRng(1)
    attn = MultiHeadSelfAttention(6, 2, rng)
    x = tokens(rng, 5, 4, 6) * 10.0
    attn.forward(x)
    weights = attn._cache[2]  # the cached softmax: (T queries, T keys, heads, P)
    assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)
    for pi in range(5):
        q = x[:, :, pi] @ attn.wq.value
        k = x[:, :, pi] @ attn.wk.value
        for h in range(2):
            sl = slice(h * 3, (h + 1) * 3)
            want = softmax_rows(q[:, sl] @ k[:, sl].T / math.sqrt(3))
            assert np.allclose(weights[:, :, h, pi], want, atol=1e-15)


def attention_oracle(x, attn):
    """Explicit per-pixel, per-head attention loop over (T, D, P) tokens."""
    t, d, p = x.shape
    heads, dh = attn.heads, attn.d_head
    out = np.zeros_like(x)
    for pi in range(p):
        seq = x[:, :, pi]  # (T, D): one row per timestamp
        q = seq @ attn.wq.value
        k = seq @ attn.wk.value
        v = seq @ attn.wv.value
        ctx = np.zeros((t, d))
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
            weights = softmax_rows(scores)
            ctx[:, sl] = weights @ v[:, sl]
        out[:, :, pi] = ctx @ attn.wo.value
    return out


def test_attention_matches_loop_oracle():
    rng = SeededRng(7)
    attn = MultiHeadSelfAttention(6, 2, rng)
    x = tokens(rng, 3, 4, 6)
    assert np.allclose(attn.forward(x), attention_oracle(x, attn), atol=1e-10)


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("t_len", [1, 2, 4, 7])
def test_attention_matches_loop_oracle_over_lengths(t_len, heads):
    rng = SeededRng(17 + 10 * t_len + heads)
    attn = MultiHeadSelfAttention(4, heads, rng)
    x = tokens(rng, 5, t_len, 4) * 3.0
    assert np.allclose(attn.forward(x), attention_oracle(x, attn), atol=1e-10)


def test_attention_single_timestamp_reduces_to_value_path():
    ## with one timestamp each softmax row is the single weight 1, so the
    ## output is Wo^T Wv^T x regardless of the query and key projections
    rng = SeededRng(8)
    attn = MultiHeadSelfAttention(4, 2, rng)
    x = tokens(rng, 5, 1, 4)
    want = attn.wo.value.T @ (attn.wv.value.T @ x[0])
    assert np.allclose(attn.forward(x), want[None], atol=1e-12)


def test_attention_rejects_indivisible_width():
    with pytest.raises(ValueError):
        MultiHeadSelfAttention(5, 2, SeededRng(0))


def test_attention_gradients():
    rng = SeededRng(9)
    attn = MultiHeadSelfAttention(4, 2, rng)
    check_layer(attn, tokens(rng, 2, 3, 4), rng)


def test_encoder_layer_gradients():
    rng = SeededRng(10)
    layer = TransformerEncoderLayer(4, 2, 2, rng)
    check_layer(layer, tokens(rng, 2, 3, 4), rng)


def draw_params(layer, rng):
    """Redraw every parameter of layer, norms and biases too."""
    for _, p in layer.params():
        p.value = centered(rng, p.value.shape)


@pytest.mark.parametrize("t_len", [1, 4])
def test_encoder_layer_backward_equals_the_sublayer_chain(t_len):
    ## the layer keeps only its norms' and attention's caches and rebuilds
    ## the rest in backward; a chain in which every sublayer keeps its own
    ## (forward in order, backward in reverse) must give the same bits
    rng = SeededRng(12 + t_len)
    layer, chain = (TransformerEncoderLayer(8, 2, 4, SeededRng(13)) for _ in range(2))
    draw_params(layer, SeededRng(14))
    draw_params(chain, SeededRng(14))
    chain.attn.cache_input = True
    x = tokens(rng, 96, t_len, 8)
    dy = centered(rng, x.shape)

    y = layer.forward(x)
    dx = layer.backward(dy)

    h = chain.attn.forward(chain.ln1.forward(x)) + x
    hidden = chain.act.forward(chain.ff1.forward(chain.ln2.forward(h)))
    want_y = chain.ff2.forward(hidden) + h
    dh = dy + chain.ln2.backward(chain.ff1.backward(chain.act.backward(chain.ff2.backward(dy))))
    want_dx = dh + chain.ln1.backward(chain.attn.backward(dh))

    assert np.array_equal(y, want_y)
    assert np.array_equal(dx, want_dx)
    want = dict(chain.params())
    for name, p in layer.params():
        assert np.array_equal(p.grad, want[name].grad), name


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("codes", [True, False])
@pytest.mark.parametrize("t_len", [2, 5])
def test_refiner_training_forward_equals_the_block_chain(t_len, codes):
    ## a training forward is the one tile of every pixel: it must give the
    ## bits of each block's kept forward on the whole (T, D, P) array, and
    ## backward those of each block's backward in reverse
    cfg = TemporalConfig(heads=2, layers=2, use_position_codes=codes)
    refiner, chain = (TemporalRefiner(8, cfg, SeededRng(21)) for _ in range(2))
    draw_params(refiner, SeededRng(22))
    draw_params(chain, SeededRng(22))
    rng = SeededRng(23 + t_len)
    x = centered(rng, (t_len, 8, 6, 5))
    dy = centered(rng, x.shape)

    y = refiner.forward(x, keep=True)
    dx = refiner.backward(dy)

    seq = x.reshape(t_len, 8, 30)
    if codes:
        seq = seq + temporal_encoding(t_len, 8)[:, :, None]
    for block in chain.blocks:
        seq = block.forward(seq, keep=True)
    g = dy.reshape(t_len, 8, 30)
    for block in reversed(chain.blocks):
        g = block.backward(g)

    assert same_bits(y, seq.reshape(x.shape))
    assert same_bits(dx, g.reshape(x.shape))
    want = dict(chain.params())
    for name, p in refiner.params():
        assert same_bits(p.grad, want[name].grad), name


def test_encoder_layer_zero_weights_is_identity():
    rng = SeededRng(11)
    layer = TransformerEncoderLayer(4, 2, 4, rng)
    for _, p in layer.params():
        if p.value.ndim >= 2:  # projection matrices only, keep norms intact
            p.value = np.zeros_like(p.value)
    ## zeroing Wo and ff2 kills both residual branches exactly
    x = tokens(rng, 3, 5, 4)
    assert np.array_equal(layer.forward(x), x)


def test_refiner_shapes_and_determinism():
    rng = SeededRng(12)
    cfg = TemporalConfig(heads=2, layers=2)
    refiner = TemporalRefiner(4, cfg, SeededRng(3))
    x = centered(rng, (3, 4, 6, 6))
    y = refiner.forward(x)
    assert y.shape == x.shape
    again = TemporalRefiner(4, cfg, SeededRng(3))
    assert np.array_equal(again.forward(x), y)


def test_refiner_rejects_width_mismatch():
    refiner = TemporalRefiner(4, TemporalConfig(), SeededRng(0))
    with pytest.raises(ValueError):
        refiner.forward(np.zeros((2, 6, 4, 4)))


def test_refiner_cells_are_independent():
    rng = SeededRng(13)
    refiner = TemporalRefiner(4, TemporalConfig(), SeededRng(5))
    x = centered(rng, (3, 4, 4, 4))
    base = refiner.forward(x)
    bumped = x.copy()
    bumped[:, :, 2, 1] += centered(rng, (3, 4))
    moved = refiner.forward(bumped)
    changed = np.any(moved != base, axis=(0, 1))
    expected = np.zeros((4, 4), dtype=bool)
    expected[2, 1] = True
    assert np.array_equal(changed, expected)


def test_refiner_equivariant_without_codes():
    rng = SeededRng(14)
    cfg = TemporalConfig(use_position_codes=False)
    refiner = TemporalRefiner(4, cfg, SeededRng(6))
    x = centered(rng, (4, 4, 3, 3))
    perm = np.array([2, 0, 3, 1])
    direct = refiner.forward(x[perm])
    permuted = refiner.forward(x)[perm]
    assert np.allclose(direct, permuted, atol=1e-10)


def test_refiner_not_equivariant_with_codes():
    rng = SeededRng(15)
    refiner = TemporalRefiner(4, TemporalConfig(use_position_codes=True), SeededRng(6))
    x = centered(rng, (4, 4, 3, 3))
    perm = np.array([2, 0, 3, 1])
    direct = refiner.forward(x[perm])
    permuted = refiner.forward(x)[perm]
    assert np.abs(direct - permuted).max() > 1e-3


def test_refiner_gradients():
    rng = SeededRng(16)
    refiner = TemporalRefiner(4, TemporalConfig(layers=1), SeededRng(7))
    check_layer(refiner, centered(rng, (2, 4, 2, 2)), rng)


@pytest.mark.parametrize("keep, bound", [(False, 12.0), (True, 14.502)])
def test_refiner_forward_memory(keep, bound):
    ## in units of the input's bytes, at the default widths (T=6, 64x64,
    ## width 8): a forward without caches may peak at 12x, and a training
    ## forward holds, once it returns, 14.501x: per encoder layer each
    ## norm's x-hat (1x) and invstd, Q/K/V (3x) and the softmax weights
    ## (1.5x), then the output.  Caching every activation held 29.503x
    refiner = TemporalRefiner(8, TemporalConfig(), SeededRng(18))
    x = centered(SeededRng(19), (6, 8, 64, 64))
    tracemalloc.start()
    try:
        y = refiner.forward(x, keep=keep)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ratio = (held if keep else peak) / x.nbytes
    assert ratio <= bound, f"{ratio:.2f}x the input"
    assert y.shape == x.shape


def test_config_validation():
    with pytest.raises(ValueError):
        TemporalConfig(heads=0)
    with pytest.raises(ValueError):
        TemporalConfig(layers=0)
