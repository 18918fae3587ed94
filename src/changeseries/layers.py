"""From-scratch differentiable layers on numpy arrays.

Conventions: feature maps are (B, C, H, W) float64, where B is whichever
axis plays the batch role (timestamps for the segmentation path, edge rows
for the change path).  Each layer caches what its backward pass needs on
self, so a layer instance handles one forward/backward pair at a time.
backward(dy) returns dx and accumulates parameter gradients in place.

forward(x, keep=False) computes the same output and stores None in place
of the cache, so a forward that no backward follows (inference,
validation) frees each intermediate as soon as the next layer has read
it.  Composites pass keep down to every layer they own.  backward after
such a forward is an error; ChangeModel checks it once for the network.

Conv2d caches its input by reference, never a patch matrix: a 3x3 forward
packs the columns of one image at a time, and backward re-packs the whole
batch from the cached input for the weight gradient.  A conv built with
input_grad=False (the network's first) skips dx, which no one reads.

Layer.params() walks the attributes in __init__ order, yielding a Param
under its attribute name and a child Layer's params under "attr.", and
skipping anything else, lists included.  Attribute names and __init__
order are thus the checkpoint's record names and order.  A composite that
iterates over a list of children also assigns each child to the attribute
that is its record name.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import SeededRng


class Param:
    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


class Layer:
    """Names its parameters by attribute; see the module docstring."""

    def params(self):
        for attr, value in vars(self).items():
            if isinstance(value, Param):
                yield attr, value
            elif isinstance(value, Layer):
                for name, p in value.params():
                    yield f"{attr}.{name}", p


def kaiming_uniform(rng: SeededRng, shape: tuple, fan_in: int) -> np.ndarray:
    """U(-b, b) with b = sqrt(6 / fan_in)."""
    bound = math.sqrt(6.0 / fan_in)
    return (rng.uniform(shape) * 2.0 - 1.0) * bound


def _window(shift: int, n: int) -> tuple[slice, slice]:
    """Destination and source slices of a tap shifted by -1, 0 or +1 along n cells."""
    return slice(max(0, -shift), n - max(0, shift)), slice(max(0, shift), n + min(0, shift))


def _pack_columns(x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Write the 3x3 patches of x (B, C, H, W) into cols (C, 3, 3, B, H, W).

    Returns the (C*9, B*H*W) view: row c*9 + 3i + j holds channel c shifted
    by (i-1, j-1), column (b*H + y)*W + x one output pixel.  Cells that fall
    in the zero padding are never written, so cols must start zeroed, and a
    zeroed buffer stays valid across calls of one shape.
    """
    _, _, h, w = x.shape
    xc = x.transpose(1, 0, 2, 3)
    for i in range(3):
        dst_y, src_y = _window(i - 1, h)
        for j in range(3):
            dst_x, src_x = _window(j - 1, w)
            cols[:, i, j, :, dst_y, dst_x] = xc[:, :, src_y, src_x]
    return cols.reshape(cols.shape[0] * 9, -1)


def _conv_raw(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Stride-1, same-size cross-correlation of x (B, C, H, W), without bias.

    A 1x1 kernel needs no packing and is one GEMM over the whole batch.  A
    3x3 kernel packs one image's columns at a time into a reused buffer, so
    at most one image's 9x copy exists, and multiplies them into that
    image's rows of a channels-last output.
    """
    cout, cin, k, _ = weight.shape
    b, _, h, w = x.shape
    wmat = weight.reshape(cout, cin * k * k).T
    if k == 1:
        out = x.transpose(0, 2, 3, 1).reshape(b * h * w, cin) @ wmat
    else:
        out = np.empty((b, h * w, cout))
        cols = np.zeros((cin, 3, 3, 1, h, w))
        for n in range(b):
            np.matmul(_pack_columns(x[n : n + 1], cols).T, wmat, out=out[n])
    return out.reshape(b, h, w, cout).transpose(0, 3, 1, 2)


class Conv2d(Layer):
    """Same-size convolution, kernel 1 or 3, stride 1, pad kernel//2.

    Forward caches its input, so callers must not write to it before
    backward.  Backward re-packs the whole batch from it, so the weight
    gradient's sum over B*H*W stays one GEMM.  With input_grad=False,
    backward accumulates the parameter gradients and returns None.
    """

    def __init__(
        self, cin: int, cout: int, kernel: int, rng: SeededRng, input_grad: bool = True
    ):
        if kernel not in (1, 3):
            raise ValueError("only 1x1 and 3x3 kernels are supported")
        self.kernel = kernel
        self.input_grad = input_grad
        fan_in = cin * kernel * kernel
        self.weight = Param(kaiming_uniform(rng, (cout, cin, kernel, kernel), fan_in))
        self.bias = Param(np.zeros(cout))
        self._x = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        self._x = x if keep else None
        y = _conv_raw(x, self.weight.value)
        y += self.bias.value[:, None, None]
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        x = self._x
        b, cin, h, w = x.shape
        cout = self.weight.value.shape[0]
        dyf = dy.transpose(0, 2, 3, 1).reshape(-1, cout)
        if self.kernel == 1:
            cols_t = x.transpose(0, 2, 3, 1).reshape(-1, cin)
        else:
            cols_t = _pack_columns(x, np.zeros((cin, 3, 3, b, h, w))).T
        self.weight.grad += (dyf.T @ cols_t).reshape(self.weight.value.shape)
        self.bias.grad += dyf.sum(axis=0)
        if not self.input_grad:
            return None
        ## dx is itself a stride-1 convolution with spatially flipped,
        ## channel-transposed weights
        wflip = self.weight.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _conv_raw(dy, np.ascontiguousarray(wflip))


class TransposeConv2x2(Layer):
    """2x2 transpose convolution with stride 2: doubles H and W."""

    def __init__(self, cin: int, cout: int, rng: SeededRng):
        self.weight = Param(kaiming_uniform(rng, (cin, cout, 2, 2), cin * 4))
        self.bias = Param(np.zeros(cout))
        self._x = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        self._x = x if keep else None
        b, _, h, w = x.shape
        cout = self.weight.value.shape[1]
        y = np.einsum("bchw,cdij->bdhiwj", x, self.weight.value, optimize=True)
        return y.reshape(b, cout, 2 * h, 2 * w) + self.bias.value[None, :, None, None]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        b, cout, h2, w2 = dy.shape
        dyr = dy.reshape(b, cout, h2 // 2, 2, w2 // 2, 2).transpose(0, 1, 2, 4, 3, 5)
        ## dyr: (b, d, h, w, i, j)
        self.weight.grad += np.einsum("bchw,bdhwij->cdij", self._x, dyr, optimize=True)
        self.bias.grad += dy.sum(axis=(0, 2, 3))
        return np.einsum("bdhwij,cdij->bchw", dyr, self.weight.value, optimize=True)


class BatchNorm2d(Layer):
    """Per-channel normalization over (B, H, W) with batch statistics.

    Statistics come from the current batch in every mode; the time axis
    rides in B, so normalization sees the whole series jointly.
    """

    def __init__(self, channels: int, eps: float = 1e-5):
        self.eps = eps
        self.gamma = Param(np.ones(channels))
        self.beta = Param(np.zeros(channels))
        self._xhat = None
        self._invstd = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        invstd = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * invstd
        self._xhat, self._invstd = (xhat, invstd) if keep else (None, None)
        return self.gamma.value[None, :, None, None] * xhat + self.beta.value[None, :, None, None]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        n = dy.shape[0] * dy.shape[2] * dy.shape[3]
        dbeta = dy.sum(axis=(0, 2, 3))
        dgamma = (dy * self._xhat).sum(axis=(0, 2, 3))
        self.beta.grad += dbeta
        self.gamma.grad += dgamma
        g = self.gamma.value[None, :, None, None] * self._invstd
        return g * (dy - dbeta[None, :, None, None] / n - self._xhat * dgamma[None, :, None, None] / n)


class Identity(Layer):
    """Passes its input through unchanged.

    Stands in for BatchNorm2d when normalization is switched off, and for
    each scale's TemporalRefiner when the model has none.
    """

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy


class ReLU(Layer):
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        mask = x > 0
        self._mask = mask if keep else None
        return np.where(mask, x, 0.0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return np.where(self._mask, dy, 0.0)


class Sigmoid(Layer):
    """Numerically stable sigmoid, output clipped strictly inside (0, 1)."""

    CLIP = 1e-12

    def __init__(self):
        self._y = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        y = np.empty_like(x)
        pos = x >= 0
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        y = np.clip(y, self.CLIP, 1.0 - self.CLIP)
        self._y = y if keep else None
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._y * (1.0 - self._y)


class MaxPool2x2(Layer):
    def __init__(self):
        self._idx = None
        self._shape = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        b, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"pooling needs even extents, got {h}x{w}")
        self._shape = x.shape
        view = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
        flat = view.reshape(b, c, h // 2, w // 2, 4)
        idx = flat.argmax(axis=-1)
        self._idx = idx if keep else None
        return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        b, c, h, w = self._shape
        flat = np.zeros((b, c, h // 2, w // 2, 4))
        np.put_along_axis(flat, self._idx[..., None], dy[..., None], axis=-1)
        view = flat.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return view.reshape(b, c, h, w)


class Linear(Layer):
    """y = x @ W + b over the trailing axis."""

    def __init__(self, d_in: int, d_out: int, rng: SeededRng):
        self.weight = Param(kaiming_uniform(rng, (d_in, d_out), d_in))
        self.bias = Param(np.zeros(d_out))
        self._x = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        self._x = x if keep else None
        return x @ self.weight.value + self.bias.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        d_in = self.weight.value.shape[0]
        d_out = self.weight.value.shape[1]
        xf = self._x.reshape(-1, d_in)
        dyf = dy.reshape(-1, d_out)
        self.weight.grad += xf.T @ dyf
        self.bias.grad += dyf.sum(axis=0)
        return dy @ self.weight.value.T


class LayerNorm(Layer):
    """Normalization over the trailing feature axis with scale and shift."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.eps = eps
        self.gamma = Param(np.ones(dim))
        self.beta = Param(np.zeros(dim))
        self._xhat = None
        self._invstd = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        invstd = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * invstd
        self._xhat, self._invstd = (xhat, invstd) if keep else (None, None)
        return self.gamma.value * xhat + self.beta.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        d = dy.shape[-1]
        dgamma = (dy * self._xhat).reshape(-1, d).sum(axis=0)
        dbeta = dy.reshape(-1, d).sum(axis=0)
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        dxhat = dy * self.gamma.value
        return self._invstd * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - self._xhat * (dxhat * self._xhat).mean(axis=-1, keepdims=True)
        )


class ConvBlock(Layer):
    """[conv3x3 -> norm -> ReLU] x 2, the workhorse of encoder and decoders.

    input_grad=False builds the first conv without dx: backward then
    returns None.
    """

    def __init__(
        self, cin: int, cout: int, use_norm: bool, rng: SeededRng, input_grad: bool = True
    ):
        self.conv1 = Conv2d(cin, cout, 3, rng, input_grad)
        self.norm1 = BatchNorm2d(cout) if use_norm else Identity()
        self.act1 = ReLU()
        self.conv2 = Conv2d(cout, cout, 3, rng)
        self.norm2 = BatchNorm2d(cout) if use_norm else Identity()
        self.act2 = ReLU()
        self._chain = [self.conv1, self.norm1, self.act1, self.conv2, self.norm2, self.act2]

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        for layer in self._chain:
            x = layer.forward(x, keep=keep)
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        for layer in reversed(self._chain):
            dy = layer.backward(dy)
        return dy
