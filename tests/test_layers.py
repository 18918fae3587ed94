"""Layer forward oracles and finite-difference gradient checks."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from gradcheck import check_layer, fd_grad, max_rel_err
from changeseries.layers import (
    BatchNorm2d,
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
    ## per-image packing and the batch re-pack run the whole-batch im2col
    ## products row for row.  Products small enough for OpenBLAS's
    ## small-matrix kernels (extents of 16 and under, few channels) may sum
    ## in another order, so only the model's desk shapes are held to bit
    ## equality
    cin, cout, kernel, extent = shape
    rng = SeededRng(cin * 100 + cout + batch)
    conv = Conv2d(cin, cout, kernel, rng)
    conv.bias.value = centered(rng, (cout,))
    x = centered(rng, (batch, cin, extent, extent))
    dy = centered(rng, (batch, cout, extent, extent))
    y = conv.forward(x)
    dx = conv.backward(dy)
    want_y, want_dw, want_db, want_dx = im2col_conv_oracle(conv, x, dy)
    assert np.array_equal(y, want_y)
    assert np.array_equal(conv.weight.grad, want_dw)
    assert np.array_equal(conv.bias.grad, want_db)
    assert np.array_equal(dx, want_dx)


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


def test_sigmoid_gradients():
    rng = SeededRng(61)
    check_layer(Sigmoid(), centered(rng, (3, 5)) * 3.0, rng)


def test_linear_forward_and_gradients():
    rng = SeededRng(70)
    lin = Linear(4, 3, rng)
    x = centered(rng, (5, 4))
    y = lin.forward(x)
    assert np.allclose(y, x @ lin.weight.value + lin.bias.value, atol=1e-12)
    check_layer(lin, x, rng)


def test_layernorm_standardizes_last_axis():
    rng = SeededRng(80)
    ln = LayerNorm(6)
    x = centered(rng, (4, 6)) * 5.0 + 1.0
    y = ln.forward(x)
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-10)
    assert np.allclose(y.std(axis=-1), 1.0, atol=1e-3)


def test_layernorm_gradients():
    rng = SeededRng(81)
    check_layer(LayerNorm(5), centered(rng, (2, 3, 5)) * 2.0, rng)


@pytest.mark.parametrize("use_norm", [True, False])
def test_convblock_gradients(use_norm):
    rng = SeededRng(90)
    block = ConvBlock(2, 3, use_norm, rng)
    check_layer(block, centered(rng, (2, 2, 4, 4)), rng)


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


def test_conv_without_input_grad_keeps_parameter_gradients():
    ## the entry conv of the model skips dx; its own gradients must not move
    rng = SeededRng(98)
    x, dy = centered(rng, (6, 3, 64, 64)), centered(rng, (6, 8, 64, 64))
    full, skip = Conv2d(3, 8, 3, SeededRng(99)), Conv2d(3, 8, 3, SeededRng(99), input_grad=False)
    for conv in (full, skip):
        conv.forward(x)
    assert full.backward(dy) is not None
    assert skip.backward(dy) is None
    assert np.array_equal(skip.weight.grad, full.weight.grad)
    assert np.array_equal(skip.bias.grad, full.bias.grad)
