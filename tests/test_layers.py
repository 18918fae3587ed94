"""Layer forward oracles and finite-difference gradient checks."""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from gradcheck import check_layer, fd_grad, max_rel_err
from changeseries import layers
from changeseries.layers import (
    BatchNorm2d,
    BatchNormReLU,
    Conv2d,
    ConvBlock,
    Identity,
    LayerNorm,
    Linear,
    MaxPool2x2,
    ReLU,
    Sigmoid,
    TransposeConv2x2,
    kaiming_uniform,
)
from changeseries.rng import SeededRng


def centered(rng, shape):
    return rng.uniform(shape) * 2.0 - 1.0


def block_chain(block):
    """A ConvBlock's layers in forward order."""
    return [block.conv1, block.norm1, block.conv2, block.norm2]


def conv_forward_oracle(x, weight, bias, pad):
    """Direct quadruple-loop cross-correlation, stride 1."""
    b, cin, h, w = x.shape
    cout, _, k, _ = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((b, cout, h, w))
    for n in range(b):
        for co in range(cout):
            for i in range(h):
                for j in range(w):
                    patch = xp[n, :, i : i + k, j : j + k]
                    out[n, co, i, j] = (patch * weight[co]).sum() + bias[co]
    return out


def im2col_oracle(x, kernel):
    """(B, C, H, W) -> (B*H*W, C*kernel^2) patch matrix, the whole-batch 9x copy."""
    pad = kernel // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    b, c, h, w = win.shape[:4]
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(b * h * w, c * kernel * kernel)


def im2col_conv_oracle(conv, x, dy):
    """Forward, weight grad, bias grad and dx by one whole-batch im2col GEMM each."""
    weight = conv.weight.value
    cout, cin, k, _ = weight.shape
    b, _, h, w = x.shape
    cols = im2col_oracle(x, k)
    y = cols @ weight.reshape(cout, -1).T + conv.bias.value
    dyf = dy.transpose(0, 2, 3, 1).reshape(-1, cout)
    dw = (dyf.T @ cols).reshape(weight.shape)
    wflip = np.ascontiguousarray(weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    dx = im2col_oracle(dy, k) @ wflip.reshape(cin, -1).T
    return (
        y.reshape(b, h, w, cout).transpose(0, 3, 1, 2),
        dw,
        dyf.sum(axis=0),
        dx.reshape(b, h, w, cin).transpose(0, 3, 1, 2),
    )


def flat_padded(image, k):
    """(C, H, W) -> (C, (H+k)*(W+k-1)): zero padding of k//2 cells and a spare row, flat."""
    c, p = image.shape[0], k // 2
    return np.pad(image, ((0, 0), (p, p + 1), (p, p))).reshape(c, -1)


def shifted_taps_oracle(x, weight):
    """k x k cross-correlation image by image, one GEMM per tap over a shifted flat slice.

    Grid cell y*(W+k-1) + x sums the taps in (i, j) order; the k-1 extra
    cells of each grid row are dropped.
    """
    b, _, h, w = x.shape
    cout, _, k, _ = weight.shape
    cells = h * (w + k - 1)
    out = np.empty((b, cout, h, w))
    for n in range(b):
        xp = flat_padded(x[n], k)
        acc = None
        for i in range(k):
            for j in range(k):
                off = i * (w + k - 1) + j
                term = np.ascontiguousarray(weight[:, :, i, j]) @ xp[:, off : off + cells]
                acc = term if acc is None else acc + term
        out[n] = acc.reshape(cout, h, w + k - 1)[:, :, :w]
    return out


def shifted_taps_conv_oracle(conv, x, dy):
    """Forward, weight grad, bias grad and dx of a k x k conv by shifted GEMMs.

    The weight gradient of tap (i, j) sums dy_grid @ slice.T image by
    image, dy_grid being dy on the forward's grid with its extra cells zero.
    """
    weight = conv.weight.value
    b, _, h, w = x.shape
    cout, _, k, _ = weight.shape
    cells = h * (w + k - 1)
    y = shifted_taps_oracle(x, weight)
    y += conv.bias.value[:, None, None]
    dw = np.zeros(weight.shape)
    for n in range(b):
        xp = flat_padded(x[n], k)
        dy_grid = np.pad(dy[n], ((0, 0), (0, 0), (0, k - 1))).reshape(cout, cells)
        for i in range(k):
            for j in range(k):
                off = i * (w + k - 1) + j
                dw[:, :, i, j] += dy_grid @ xp[:, off : off + cells].T
    wflip = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    return y, dw, dy.sum(axis=(0, 2, 3)), shifted_taps_oracle(dy, wflip)


def transpose_taps_oracle(up, x, dy):
    """TransposeConv2x2's forward, weight grad, bias grad and dx by shifted_taps_conv_oracle.

    The (Cin, Cout, 2, 2) weight is read as a 1x1 kernel to 4*Cout
    channels, and channel (d, i, j) of pixel (h, w) moves to channel d of
    pixel (2h+i, 2w+j); dy moves the other way.
    """
    cin, cout = up.weight.value.shape[:2]
    b, _, h, w = x.shape
    conv = Conv2d(cin, 4 * cout, 1, SeededRng(0))
    conv.weight.value = up.weight.value.reshape(cin, 4 * cout, 1, 1).transpose(1, 0, 2, 3)
    dy4 = dy.reshape(b, cout, h, 2, w, 2).transpose(0, 1, 3, 5, 2, 4).reshape(b, 4 * cout, h, w)
    y4, dw4, _, dx = shifted_taps_conv_oracle(conv, x, dy4)
    y = y4.reshape(b, cout, 2, 2, h, w).transpose(0, 1, 4, 2, 5, 3).reshape(b, cout, 2 * h, 2 * w)
    y += up.bias.value[:, None, None]
    return y, dw4[:, :, 0, 0].T.reshape(cin, cout, 2, 2), dy.sum(axis=(0, 2, 3)), dx


## (cin, cout, kernel, extent) of every conv in the default model on a 64x64
## patch: encoder blocks, decoder blocks, then the 1x1 head
MODEL_CONV_SHAPES = [
    (3, 8, 3, 64),
    (8, 8, 3, 64),
    (8, 16, 3, 32),
    (16, 16, 3, 32),
    (16, 32, 3, 16),
    (32, 32, 3, 16),
    (32, 16, 3, 32),
    (16, 8, 3, 64),
    (8, 1, 1, 64),
]

## (cin, cout, input extent) of the default model's up-convs on a 64x64 patch
MODEL_UPCONV_SHAPES = [(32, 16, 16), (16, 8, 32)]


def test_kaiming_bound_and_determinism():
    w = kaiming_uniform(SeededRng(3), (20, 30), fan_in=30)
    bound = np.sqrt(6.0 / 30)
    assert np.abs(w).max() <= bound
    assert np.array_equal(w, kaiming_uniform(SeededRng(3), (20, 30), 30))


@pytest.mark.parametrize("kernel", [1, 3])
def test_conv_matches_loop_oracle(kernel):
    rng = SeededRng(10 + kernel)
    conv = Conv2d(3, 2, kernel, rng)
    x = centered(rng, (2, 3, 5, 6))
    got = conv.forward(x)
    want = conv_forward_oracle(x, conv.weight.value, conv.bias.value, kernel // 2)
    assert got.shape == (2, 2, 5, 6)
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("batch", [6, 15])
@pytest.mark.parametrize("shape", MODEL_CONV_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_conv_bitwise_equals_im2col_gemm(shape, batch):
    ## every conv runs the per-image tap GEMMs of shifted_taps_conv_oracle,
    ## summed in the same order: nine for a 3x3 kernel, one for the 1x1 head.
    ## Only the model's desk shapes are held to bit equality:
    ## OpenBLAS's kernel choice follows the GEMM's shape
    cin, cout, kernel, extent = shape
    rng = SeededRng(cin * 100 + cout + batch)
    conv = Conv2d(cin, cout, kernel, rng)
    conv.bias.value = centered(rng, (cout,))
    x = centered(rng, (batch, cin, extent, extent))
    dy = centered(rng, (batch, cout, extent, extent))
    y = conv.forward(x)
    dx = conv.backward(dy)
    want_y, want_dw, want_db, want_dx = shifted_taps_conv_oracle(conv, x, dy)
    assert np.array_equal(y, want_y)
    assert np.array_equal(conv.weight.grad, want_dw)
    assert np.array_equal(conv.bias.grad, want_db)
    assert np.array_equal(dx, want_dx)
    assert y.flags.c_contiguous
    assert dx.flags.c_contiguous


def test_conv_rejects_unsupported_kernel():
    with pytest.raises(ValueError):
        Conv2d(3, 2, 5, SeededRng(0))


@pytest.mark.parametrize("kernel", [1, 3])
def test_conv_gradients(kernel):
    rng = SeededRng(20 + kernel)
    conv = Conv2d(2, 3, kernel, rng)
    check_layer(conv, centered(rng, (2, 2, 4, 5)), rng)


def test_transpose_conv_matches_scatter_oracle():
    rng = SeededRng(31)
    up = TransposeConv2x2(3, 2, rng)
    x = centered(rng, (2, 3, 3, 4))
    got = up.forward(x)
    assert got.shape == (2, 2, 6, 8)
    want = np.zeros((2, 2, 6, 8))
    w = up.weight.value  # (cin, cout, 2, 2)
    for n in range(2):
        for ci in range(3):
            for i in range(3):
                for j in range(4):
                    want[n, :, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2] += (
                        x[n, ci, i, j] * w[ci]
                    )
    want += up.bias.value[None, :, None, None]
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("batch", [6, 15])
@pytest.mark.parametrize("shape", MODEL_UPCONV_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_transpose_conv_bitwise_equals_shifted_taps(shape, batch):
    ## the up-conv runs the 1x1 tap GEMMs of Conv2d on its weight, so it is
    ## held to the same oracle, at the model's desk shapes
    cin, cout, extent = shape
    rng = SeededRng(cin * 100 + cout + batch)
    up = TransposeConv2x2(cin, cout, rng)
    up.bias.value = centered(rng, (cout,))
    x = centered(rng, (batch, cin, extent, extent))
    dy = centered(rng, (batch, cout, 2 * extent, 2 * extent))
    y = up.forward(x)
    dx = up.backward(dy)
    want_y, want_dw, want_db, want_dx = transpose_taps_oracle(up, x, dy)
    assert np.array_equal(y, want_y)
    assert np.array_equal(up.weight.grad, want_dw)
    assert np.array_equal(up.bias.grad, want_db)
    assert np.array_equal(dx, want_dx)
    assert y.flags.c_contiguous and dx.flags.c_contiguous


def test_transpose_conv_gradients():
    rng = SeededRng(32)
    up = TransposeConv2x2(2, 3, rng)
    check_layer(up, centered(rng, (2, 2, 3, 3)), rng)


def test_batchnorm_normalizes_over_batch_and_space():
    rng = SeededRng(40)
    bn = BatchNorm2d(3)
    x = centered(rng, (4, 3, 5, 5)) * 7.0 + 2.0
    y = bn.forward(x)
    ## gain 1, shift 0 initially: output is the per-channel standardization
    assert np.allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    assert np.allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-3)


def test_batchnorm_gradients():
    rng = SeededRng(41)
    bn = BatchNorm2d(2)
    check_layer(bn, centered(rng, (3, 2, 4, 4)) * 2.0, rng)


def affine_draws(norm, rng):
    """Gain and shift of both signs, so the ReLU cuts every channel somewhere."""
    c = norm.gamma.value.size
    norm.gamma.value = centered(rng, (c,)) * 2.0
    norm.beta.value = centered(rng, (c,))


@pytest.mark.parametrize("keep", [True, False])
def test_batchnorm_relu_bitwise_equals_batchnorm_then_relu(keep):
    rng = SeededRng(42)
    x = centered(rng, (6, 8, 32, 32)) * 3.0 + 1.0
    dy = centered(rng, x.shape)
    fused, bn, relu = BatchNormReLU(8), BatchNorm2d(8), ReLU()
    affine_draws(fused, rng)
    bn.gamma.value, bn.beta.value = fused.gamma.value.copy(), fused.beta.value.copy()
    y = fused.forward(x, keep=keep)
    want = relu.forward(bn.forward(x, keep=keep), keep=keep)
    assert np.array_equal(y, want)
    assert 0 < (y > 0).mean() < 1
    if keep:
        dx = fused.backward(dy)
        assert np.array_equal(dx, bn.backward(relu.backward(dy)))
        assert np.array_equal(fused.gamma.grad, bn.gamma.grad)
        assert np.array_equal(fused.beta.grad, bn.beta.grad)


def test_batchnorm_relu_gradients_away_from_kink():
    rng = SeededRng(43)
    fused = BatchNormReLU(2)
    affine_draws(fused, rng)
    x = centered(rng, (3, 2, 4, 4)) * 2.0
    ## no pre-activation within 1e-3 of the kink: the 1e-5 steps of the
    ## finite differences move none of them across it
    xhat = BatchNorm2d(2).forward(x)
    pre = fused.gamma.value[:, None, None] * xhat + fused.beta.value[:, None, None]
    assert np.abs(pre).min() > 1e-3
    assert 0 < (pre > 0).mean() < 1
    check_layer(fused, x, rng)


def test_maxpool_matches_block_oracle():
    rng = SeededRng(50)
    pool = MaxPool2x2()
    x = centered(rng, (2, 3, 6, 8))
    got = pool.forward(x)
    assert got.shape == (2, 3, 3, 4)
    for i in range(3):
        for j in range(4):
            block = x[:, :, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            assert np.array_equal(got[:, :, i, j], block.max(axis=(2, 3)))


def test_maxpool_routes_gradient_to_argmax():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    pool = MaxPool2x2()
    pool.forward(x)
    dx = pool.backward(np.array([[[[5.0]]]]))
    assert np.array_equal(dx, np.array([[[[0.0, 0.0], [0.0, 5.0]]]]))


def test_maxpool_gradients():
    rng = SeededRng(51)
    pool = MaxPool2x2()
    ## uniform draws are distinct with probability 1, so the argmax is
    ## stable under the finite-difference perturbation
    check_layer(pool, centered(rng, (2, 2, 4, 6)), rng)


def test_maxpool_rejects_odd_extent():
    with pytest.raises(ValueError):
        MaxPool2x2().forward(np.zeros((1, 1, 3, 4)))


def test_relu_and_identity():
    x = np.array([[-2.0, 0.5], [3.0, -0.1]])
    relu = ReLU()
    assert np.array_equal(relu.forward(x), np.array([[0.0, 0.5], [3.0, 0.0]]))
    dx = relu.backward(np.ones_like(x))
    assert np.array_equal(dx, np.array([[0.0, 1.0], [1.0, 0.0]]))
    ident = Identity()
    assert ident.forward(x) is x
    assert np.array_equal(ident.backward(x), x)


def test_relu_gradients_away_from_kink():
    rng = SeededRng(60)
    x = centered(rng, (3, 4))
    x = np.where(np.abs(x) < 0.01, 0.5, x)  # keep clear of the kink
    check_layer(ReLU(), x, rng)


def test_sigmoid_values_and_clipping():
    sig = Sigmoid()
    x = np.array([0.0, -800.0, 800.0, 2.0])
    y = sig.forward(x)
    assert y[0] == 0.5
    assert y[1] == 1e-12
    assert y[2] == 1.0 - 1e-12
    assert y[3] == pytest.approx(1.0 / (1.0 + np.exp(-2.0)), rel=1e-15)


def masked_sigmoid(x):
    """Sigmoid by boolean masks, one exp per branch: the formula Sigmoid replaced."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return np.clip(y, Sigmoid.CLIP, 1.0 - Sigmoid.CLIP)


def test_sigmoid_equals_the_masked_formula():
    rng = SeededRng(62)
    edge_cases = [0.0, -0.0, 800.0, -800.0, np.nan, 36.0, -36.0, 1e-300, -1e-300]
    x = np.concatenate([edge_cases, centered(rng, (4078,)) * 40.0]).reshape(1, 1, 61, 67)
    y, want = Sigmoid().forward(x, keep=False), masked_sigmoid(x)
    ## NaN stays NaN (its sign bit may differ); every other value bit for bit
    assert np.array_equal(np.isnan(y), np.isnan(x)) and np.isnan(y.flat[4])
    finite = ~np.isnan(x)
    assert np.array_equal(y[finite].view(np.uint64), want[finite].view(np.uint64))


def test_sigmoid_gradients():
    rng = SeededRng(61)
    check_layer(Sigmoid(), centered(rng, (3, 5)) * 3.0, rng)


def channel_axis(rows):
    """(B, D, P) view of (B, P, D) token rows: features move to axis 1."""
    return np.ascontiguousarray(np.swapaxes(rows, -1, -2))


class _LinearWithInput:
    """Linear as check_layer drives it: backward gets the last forward's input."""

    def __init__(self, lin):
        self.lin, self.x = lin, None

    def params(self):
        return self.lin.params()

    def forward(self, x):
        self.x = x
        return self.lin.forward(x)

    def backward(self, dy):
        return self.lin.backward(dy, self.x)


def test_linear_forward_and_gradients():
    rng = SeededRng(70)
    lin = Linear(4, 3, rng)
    rows = centered(rng, (1, 5, 4))
    x = channel_axis(rows)
    y = lin.forward(x)
    assert np.allclose(y, channel_axis(rows @ lin.weight.value + lin.bias.value), atol=1e-12)
    assert vars(lin).keys() == {"weight", "bias"}
    check_layer(_LinearWithInput(lin), x, rng)


def test_layernorm_standardizes_channel_axis():
    rng = SeededRng(80)
    ln = LayerNorm(6)
    x = channel_axis(centered(rng, (1, 4, 6)) * 5.0 + 1.0)
    y = ln.forward(x)
    assert np.allclose(y.mean(axis=1), 0.0, atol=1e-10)
    assert np.allclose(y.std(axis=1), 1.0, atol=1e-3)


def test_layernorm_gradients():
    rng = SeededRng(81)
    check_layer(LayerNorm(5), channel_axis(centered(rng, (2, 3, 5)) * 2.0), rng)


@pytest.mark.parametrize("use_norm", [True, False])
def test_convblock_gradients(use_norm):
    rng = SeededRng(90)
    block = ConvBlock(2, 3, use_norm, rng)
    check_layer(block, centered(rng, (2, 2, 4, 4)), rng)


@pytest.mark.parametrize("use_norm", [True, False])
def test_convblock_activations_are_c_contiguous(use_norm):
    ## a channels-last input, the layout no block emits, comes back NCHW
    rng = SeededRng(91)
    block = ConvBlock(3, 4, use_norm, rng)
    x = centered(rng, (2, 5, 6, 3)).transpose(0, 3, 1, 2)
    y = block.forward(x)
    assert y.flags.c_contiguous
    for layer in block_chain(block):
        x = layer.forward(x)
        assert x.flags.c_contiguous, type(layer).__name__
    dx = block.backward(centered(rng, y.shape))
    assert dx.flags.c_contiguous


@pytest.mark.parametrize("kernel", [1, 3])
def test_conv_output_and_input_grad_are_c_contiguous(kernel):
    rng = SeededRng(92 + kernel)
    conv = Conv2d(3, 4, kernel, rng)
    x = centered(rng, (2, 5, 6, 3)).transpose(0, 3, 1, 2)
    y = conv.forward(x)
    dx = conv.backward(centered(rng, (2, 5, 6, 4)).transpose(0, 3, 1, 2))
    assert y.flags.c_contiguous and dx.flags.c_contiguous


@pytest.mark.parametrize("use_norm, bound", [(True, 3.001), (False, 2.001)])
def test_convblock_forward_memory(use_norm, bound):
    ## in units of the input's bytes (width 8 -> 8, T=6, 64x64): a training
    ## forward holds, once it returns, each norm's x-hat and the block's
    ## output, 3.001x; without norm, norm1's output and the block's output,
    ## 2.000x.  Caching conv2's input too held 4.001x; ReLU layers that
    ## kept a boolean mask held 4.252x (2.250x)
    block = ConvBlock(8, 8, use_norm, SeededRng(96))
    x = centered(SeededRng(97), (6, 8, 64, 64))
    tracemalloc.start()
    try:
        y = block.forward(x, keep=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    ratio = held / x.nbytes
    assert ratio <= bound, f"{ratio:.4f}x the input"
    assert y.shape == x.shape


@pytest.mark.parametrize("use_norm", [True, False])
def test_convblock_backward_equals_the_layer_chain(use_norm):
    ## the block rebuilds conv2's input from norm1 in backward; a chain in
    ## which every layer keeps its own cache (forward in order, backward in
    ## reverse) must give the same bits
    rng = SeededRng(94)
    block, chain = (ConvBlock(8, 8, use_norm, SeededRng(95)) for _ in range(2))
    for net in (block, chain):
        for _, p in net.params():
            if p.value.ndim == 1:  # biases and norm affines
                p.value = centered(SeededRng(p.value.size), p.value.shape) + 0.5
    x = centered(rng, (4, 8, 32, 32))
    dy = centered(rng, x.shape)

    y = block.forward(x)
    dx = block.backward(dy)
    want_y = x
    for layer in block_chain(chain):
        want_y = layer.forward(want_y, keep=True)
    want_dx = dy
    for layer in reversed(block_chain(chain)):
        want_dx = layer.backward(want_dx)

    assert 0 < (y > 0).mean() < 1
    assert np.array_equal(y, want_y)
    assert np.array_equal(dx, want_dx)
    want = dict(chain.params())
    for name, p in block.params():
        assert np.array_equal(p.grad, want[name].grad), name


class NanEmpty:
    """numpy, except that np.empty hands back NaN-filled memory."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape):
        return np.full(shape, np.nan)


@pytest.mark.parametrize("extent", [1, 2, 7])
def test_pad_buffer_reads_zero_outside_the_image(monkeypatch, extent):
    ## a large np.empty is fresh, zeroed pages, so the bitwise test alone
    ## would miss a padding cell left unset.  NaN-filled memory shows it: the
    ## weight gradient multiplies dy's zero grid cells by the padding and the
    ## spare row, and 0 * NaN is NaN
    monkeypatch.setattr(layers, "np", NanEmpty())
    for k in (1, 3):
        rng = SeededRng(93 + extent + k)
        conv = Conv2d(3, 4, k, rng)
        x = centered(rng, (3, 3, extent, extent + 1))
        dy = centered(rng, (3, 4, extent, extent + 1))
        y = conv.forward(x)
        dx = conv.backward(dy)
        want_y, want_dw, want_db, want_dx = im2col_conv_oracle(conv, x, dy)
        assert np.allclose(y, want_y, rtol=0, atol=1e-12), k
        assert np.allclose(conv.weight.grad, want_dw, rtol=0, atol=1e-12), k
        assert np.allclose(dx, want_dx, rtol=0, atol=1e-12), k
        ## a reused buffer: each image overwrites the last one's cells and no others
        pad = layers._pad_buffer(3, extent, extent + 1, k)
        for image in x:
            layers._fill(pad, image, k)
            assert np.array_equal(pad, flat_padded(image, k)), k


def test_gradients_accumulate_across_backward_calls():
    rng = SeededRng(95)
    conv = Conv2d(2, 2, 3, rng)
    x = centered(rng, (1, 2, 3, 3))
    dy = centered(rng, (1, 2, 3, 3))
    conv.forward(x)
    conv.backward(dy)
    once = conv.weight.grad.copy()
    conv.forward(x)
    conv.backward(dy)
    assert np.allclose(conv.weight.grad, 2.0 * once, atol=1e-12)


def test_projection_loss_gradient_helper_sanity():
    ## the harness itself: d/dx of sum(3x) is 3 everywhere
    x = np.array([1.0, 2.0])
    g = fd_grad(lambda: float((3.0 * x).sum()), x)
    assert max_rel_err(np.array([3.0, 3.0]), g) < 1e-8


