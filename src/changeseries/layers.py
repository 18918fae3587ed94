"""From-scratch differentiable layers on numpy arrays.

Conventions: feature maps are (B, C, H, W) float64, where B is whichever
axis plays the batch role (timestamps for the segmentation path, edge rows
for the change path).  Linear and LayerNorm act on the channel axis of
(B, D, P) input with P positions trailing: the temporal refiner's tokens,
timestamps in B and the H*W pixels of a scale in P.  Each layer caches
what its backward pass needs on self, so a layer instance handles one
forward/backward pair at a time.  backward(dy) returns dx and accumulates
parameter gradients in place.

forward(x, keep=False) computes the same output and stores None in place
of the cache, so a forward that no backward follows (inference,
validation) frees each intermediate as soon as the next layer has read
it.  Composites pass keep down to every layer they own but Linear, which
keeps nothing.  backward after such a forward is an error; ChangeModel
checks it once for the network.  Every layer takes its cache in backward
and leaves None behind, so a training step frees each cache as the
backward pass reaches it, and a later validation forward finds nothing
left over.

A training forward caches only what cannot be rebuilt cheaply.  Conv2d
caches only its input, and ReLU only its output; each takes that array as
backward's second argument instead, so a composite that can rebuild it
runs them with keep=False.  Linear's backward always takes its input
there.  BatchNormReLU's backward takes its output there too, and reads
the ReLU mask from it.  ConvBlock rebuilds conv2's input from norm1's
x-hat (output() of a BatchNormReLU; a plain ReLU holds its output), and
the refiner's encoder layer rebuilds its norm outputs and its FFN hidden
layer (temporal.py).  Each rebuild calls the helper the forward itself
used, so it is bitwise equal to the array it replaces.

Conv2d caches its input by reference, never a patch matrix: every conv,
TransposeConv2x2 included, runs forward, dx and the weight gradient as one
GEMM per tap over shifted slices of one zero-padded, flattened image at a
time (_conv_raw): nine for a 3x3 kernel, one for a 1x1 or a transpose
conv, so no column matrix exists.  Conv2d returns its output and dx
C-contiguous, and BatchNormReLU keeps that layout, so every activation of
a ConvBlock, forward and backward, is contiguous NCHW and each
per-channel reduction and image copy reads memory in order.

Inside cores.threaded(), on a thread that runs no split work already,
every conv, transpose ones too, splits its images and a large BatchNorm
its channels, one part per worker: the encoder in every ChangeModel pass,
and the whole network in an inference forward.  A layer inside one of a
training step's side-by-side branches (model.py) runs whole on its thread.
Each part computes its cells with the same operations, in the same order,
as the whole layer: an image's GEMMs have the same shapes on any thread,
and every BatchNorm part holds two channels or more (_channel_parts).  So
the output is bitwise equal at every worker count.  A threshold
(NORM_SPLIT_CELLS) keeps small BatchNorms, which lose to the hand-off,
whole.

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

from . import cores
from .rng import SeededRng

## inside cores.threaded(), a BatchNorm over at least this many cells
## (B*C*H*W) splits its channels (1.3-1.7x from 2.6e5 up, 0.5-0.9x at
## 1.3e5 and below)
NORM_SPLIT_CELLS = 1 << 18


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


def _pad_buffer(cin: int, h: int, w: int, k: int) -> np.ndarray:
    """A zeroed (C, (H+k)*(W+k-1)) buffer: each channel a k//2-padded image and a spare row, flat.

    _fill writes an image's cells inside the padding and nothing else, so
    the padding and the spare row after it stay zero for as long as the
    buffer is reused.  The spare row holds the cells past the padded image
    that the last taps' slices reach.
    """
    return np.zeros((cin, (h + k) * (w + k - 1)))


def _fill(pad: np.ndarray, image: np.ndarray, k: int) -> None:
    """Write image (C, H, W) into the interior of a _pad_buffer of kernel size k."""
    c, h, w = image.shape
    p = k // 2
    pad.reshape(c, h + k, w + k - 1)[:, p : p + h, p : p + w] = image


def _shifts(w: int, k: int) -> list[tuple[int, int, int]]:
    """(i, j, offset) of the k*k taps: tap (i, j) of grid cell p reads flat cell p + offset."""
    return [(i, j, i * (w + k - 1) + j) for i in range(k) for j in range(k)]


def _conv_raw(x: np.ndarray, weight: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Stride-1, same-size cross-correlation of x (B, C, H, W), without bias.

    Returns a new C-contiguous (B, Cout, H, W) array, or out, any array whose
    out[n] reshapes image n's (Cout, H, W) cells.  A k x k kernel runs image
    by image: the image is padded by k//2 into a reused flat buffer
    (_pad_buffer), and output grid cell p = y*(W+k-1) + x sums
    W[:, :, i, j] @ pad[:, p + i*(W+k-1) + j] over the k*k taps, tap by tap
    in (i, j) order.  Each tap is one GEMM over a contiguous slice of the
    buffer, H*(W+k-1) cells long; the k-1 extra cells of each grid row are
    dropped when the image's NCHW rows are written.  A 1x1 kernel is the
    one-tap case: no padding, no extra cells.

    The images are split between the workers (cores.run), each range with
    its own buffers.  An image's operations do not depend on the range it
    falls in, so the output is bitwise equal at every worker count.
    """
    cout, cin, k, _ = weight.shape
    b, _, h, w = x.shape
    taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1))
    cells = h * (w + k - 1)
    shifts = _shifts(w, k)
    out = np.empty((b, cout, h, w)) if out is None else out

    def images(n0: int, n1: int) -> None:
        pad = _pad_buffer(cin, h, w, k)
        grid, part = np.empty((cout, cells)), np.empty((cout, cells))
        for n in range(n0, n1):
            _fill(pad, x[n], k)
            ## tap (0, 0) reads from offset 0 and starts the sum
            np.matmul(taps[0, 0], pad[:, :cells], out=grid)
            for i, j, off in shifts[1:]:
                grid += np.matmul(taps[i, j], pad[:, off : off + cells], out=part)
            out[n] = grid.reshape(*out.shape[1:-1], w + k - 1)[..., :w]

    cores.run(images, b, b)
    return out


def _weight_grad(x: np.ndarray, dy: np.ndarray, k: int) -> np.ndarray:
    """The weight gradient (Cout, Cin, k, k) of x (B, Cin, H, W) and dy (B, Cout, H, W).

    Tap (i, j) is dy_grid @ slice.T summed image by image, where slice is
    the forward's operand of that tap and dy_grid holds dy on the same
    H x (W+k-1) grid, zero in the k-1 extra cells of each row, so that the
    cells the forward drops add nothing.
    """
    b, cin, h, w = x.shape
    cout = dy.shape[1]
    cells = h * (w + k - 1)
    pad = _pad_buffer(cin, h, w, k)
    grid = np.zeros((cout, h, w + k - 1))
    dyg = grid.reshape(cout, cells)
    dw = np.zeros((k, k, cout, cin))
    for n in range(b):
        _fill(pad, x[n], k)
        grid[:, :, :w] = dy[n]
        for i, j, off in _shifts(w, k):
            dw[i, j] += dyg @ pad[:, off : off + cells].T
    return dw.transpose(2, 3, 0, 1)


class Conv2d(Layer):
    """Same-size convolution, kernel 1 or 3, stride 1, pad kernel//2.

    Output and dx are C-contiguous NCHW whatever the layout of x and dy.
    Forward caches its input, so callers must not write to it before
    backward; a caller that rebuilds the input instead runs forward with
    keep=False and passes it to backward.  Backward runs the forward's
    shifted GEMMs per image for the weight gradient (_weight_grad), and
    builds no column matrix.
    """

    def __init__(self, cin: int, cout: int, kernel: int, rng: SeededRng):
        if kernel not in (1, 3):
            raise ValueError("only 1x1 and 3x3 kernels are supported")
        fan_in = cin * kernel * kernel
        self.weight = Param(kaiming_uniform(rng, (cout, cin, kernel, kernel), fan_in))
        self.bias = Param(np.zeros(cout))
        self._x = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        self._x = x if keep else None
        y = _conv_raw(x, self.weight.value)
        y += self.bias.value[:, None, None]
        return y

    def backward(self, dy: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
        x = self._x if x is None else x
        self._x = None
        self.weight.grad += _weight_grad(x, dy, self.weight.value.shape[2])
        self.bias.grad += dy.sum(axis=(0, 2, 3))
        ## dx is itself a stride-1 convolution with spatially flipped,
        ## channel-transposed weights
        wflip = self.weight.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _conv_raw(dy, np.ascontiguousarray(wflip))


class TransposeConv2x2(Layer):
    """2x2 transpose convolution with stride 2: doubles H and W.

    A 1x1 conv on the weight read as a (4*Cout, Cin) kernel, whose channel
    (d, i, j) at pixel (h, w) is written to channel d at pixel (2h+i, 2w+j).
    """

    def __init__(self, cin: int, cout: int, rng: SeededRng):
        self.weight = Param(kaiming_uniform(rng, (cin, cout, 2, 2), cin * 4))
        self.bias = Param(np.zeros(cout))
        self._x = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        self._x = x if keep else None
        (b, cin, h, w), cout = x.shape, self.weight.value.shape[1]
        y = np.empty((b, cout, 2 * h, 2 * w))
        kernel = self.weight.value.reshape(cin, 4 * cout, 1, 1).transpose(1, 0, 2, 3)
        _conv_raw(x, kernel, y.reshape(b, cout, h, 2, w, 2).transpose(0, 1, 3, 5, 2, 4))
        y += self.bias.value[:, None, None]
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, self._x = self._x, None
        (b, cin, h, w), cout = x.shape, dy.shape[1]
        dy4 = dy.reshape(b, cout, h, 2, w, 2).transpose(0, 1, 3, 5, 2, 4).reshape(b, -1, h, w)
        self.weight.grad += _weight_grad(x, dy4, 1)[:, :, 0, 0].T.reshape(cin, cout, 2, 2)
        self.bias.grad += dy.sum(axis=(0, 2, 3))
        return _conv_raw(dy4, self.weight.value.reshape(cin, 4 * cout, 1, 1))


def _channel_parts(x: np.ndarray) -> int:
    """Ranges a BatchNorm over x (B, C, H, W) splits its channels into.

    Each range holds two channels or more: numpy sums a channel's (B, H, W)
    cells in the same order as in the whole array when other channels
    share the call, and in another order when it is reduced alone.
    """
    return min(cores.splitting(), x.shape[1] // 2) if x.size >= NORM_SPLIT_CELLS else 1


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

    def _standardize(self, x: np.ndarray, keep: bool) -> np.ndarray:
        """x-hat as a new array, cached with invstd when keep is set.

        x - mean is computed once and serves the variance too, the same
        operations np.var runs on its own copy.  Channels are independent,
        so above NORM_SPLIT_CELLS they are split between the workers
        (_channel_parts), bitwise equal.
        """
        xhat = np.empty(x.shape)
        invstd = np.empty((1, x.shape[1], 1, 1))

        def part(c0: int, c1: int) -> None:
            xc, xh = x[:, c0:c1], xhat[:, c0:c1]
            np.subtract(xc, xc.mean(axis=(0, 2, 3), keepdims=True), out=xh)
            inv = invstd[:, c0:c1]
            inv[...] = 1.0 / np.sqrt((xh * xh).mean(axis=(0, 2, 3), keepdims=True) + self.eps)
            xh *= inv

        cores.run(part, x.shape[1], _channel_parts(x))
        self._xhat, self._invstd = (xhat, invstd) if keep else (None, None)
        return xhat

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        xhat = self._standardize(x, keep)
        return self.gamma.value[None, :, None, None] * xhat + self.beta.value[None, :, None, None]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xhat, invstd = self._xhat, self._invstd
        self._xhat = self._invstd = None
        n = dy.shape[0] * dy.shape[2] * dy.shape[3]
        dbeta = dy.sum(axis=(0, 2, 3))
        dgamma = (dy * xhat).sum(axis=(0, 2, 3))
        self.beta.grad += dbeta
        self.gamma.grad += dgamma
        g = self.gamma.value[None, :, None, None] * invstd
        return g * (dy - dbeta[None, :, None, None] / n - xhat * dgamma[None, :, None, None] / n)


class BatchNormReLU(BatchNorm2d):
    """BatchNorm2d followed by ReLU in one pass over the activation.

    gamma, beta and the ReLU are applied in place on the output, and the
    cache is BatchNorm2d's alone (x-hat and invstd): output() rebuilds the
    output from it with the forward's own operations, and backward takes
    the ReLU's mask from that output, or from the caller's copy of it.
    Output and gradients equal BatchNorm2d then ReLU bit for bit.
    """

    def _activate(self, xhat: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """relu(gamma * x-hat + beta) into out, or a new array; split by channel."""
        y = np.empty(xhat.shape) if out is None else out
        gamma, beta = self.gamma.value[:, None, None], self.beta.value[:, None, None]

        def part(c0: int, c1: int) -> None:
            yc = np.multiply(xhat[:, c0:c1], gamma[c0:c1], out=y[:, c0:c1])
            yc += beta[c0:c1]
            np.maximum(yc, 0.0, out=yc)

        cores.run(part, xhat.shape[1], _channel_parts(xhat))
        return y

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        xhat = self._standardize(x, keep)
        ## x-hat is no cache without keep, so the output takes its buffer
        return self._activate(xhat, None if keep else xhat)

    def output(self) -> np.ndarray:
        """The last keep=True forward's output, bitwise, as a new array."""
        return self._activate(self._xhat, None)

    def backward(self, dy: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        if y is None:
            y = self.output()
        return super().backward(np.where(y > 0, dy, 0.0))


class Identity(Layer):
    """Passes its input through unchanged.

    Stands in for each scale's TemporalRefiner when the model has none.
    """

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy


class ReLU(Layer):
    """max(x, 0); backward reads the output, held by reference until then.

    The output is a new array: forward never writes to its input.  It
    equals np.where(x > 0, x, 0) bit for bit (-0.0 gives +0.0), except
    that a NaN stays NaN where np.where writes 0, as in BatchNormReLU.  A
    caller that rebuilds the output runs forward with keep=False and
    passes it to backward.
    """

    def __init__(self):
        self._y = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        y = np.maximum(x, 0.0)
        self._y = y if keep else None
        return y

    def output(self) -> np.ndarray:
        """The last keep=True forward's output, held since then."""
        return self._y

    def backward(self, dy: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        y = self._y if y is None else y
        self._y = None
        return np.where(y > 0, dy, 0.0)


class Sigmoid(Layer):
    """Numerically stable sigmoid, output clipped strictly inside (0, 1)."""

    CLIP = 1e-12

    def __init__(self):
        self._y = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        ## e = exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e) below
        e = np.exp(-np.abs(x))
        d = 1.0 + e
        y = np.where(x >= 0, np.divide(1.0, d), np.divide(e, d, out=e))
        np.clip(y, self.CLIP, 1.0 - self.CLIP, out=y)
        self._y = y if keep else None
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        y, self._y = self._y, None
        return dy * y * (1.0 - y)


class MaxPool2x2(Layer):
    """Max over each 2x2 cell; backward routes dy to the cell's first maximum.

    The output is np.maximum of the cell's four strided views, and a
    training forward also keeps the index of the first view, in (0,0),
    (0,1), (1,0), (1,1) order, that equals it: argmax's pick on finite
    input.
    """

    def __init__(self):
        self._idx = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        h, w = x.shape[2:]
        if h % 2 or w % 2:
            raise ValueError(f"pooling needs even extents, got {h}x{w}")
        views = [x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]
        y = np.maximum(np.maximum(views[0], views[1]), np.maximum(views[2], views[3]))
        self._idx = self._first_max(views, y) if keep else None
        return y

    @staticmethod
    def _first_max(views: list, y: np.ndarray) -> np.ndarray:
        """uint8 index of the first view equal to y: n0 * (1 + n1 * (1 + n2)), ni = view i != y."""
        n0, n1, n2 = ((v != y).view(np.uint8) for v in views[:3])
        idx = n2 + np.uint8(1)
        idx *= n1
        idx += 1
        idx *= n0
        return idx

    def backward(self, dy: np.ndarray) -> np.ndarray:
        idx, self._idx = self._idx, None
        b, c, h2, w2 = idx.shape
        flat = np.zeros((b, c, h2, w2, 4))
        np.put_along_axis(flat, idx[..., None], dy[..., None], axis=-1)
        view = flat.reshape(b, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return view.reshape(b, c, 2 * h2, 2 * w2)


def channel_outer(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Sum over b of x[b] @ dy[b].T: the weight gradient of a channel-axis product.

    x (B, C_in, P) and dy (B, C_out, P) give (C_in, C_out).  One GEMM per
    b reads both operands in place; a batched matmul against a swapaxes
    view copies them first.
    """
    return sum(x[b] @ dy[b].T for b in range(len(x)))


class Linear(Layer):
    """y[b] = W.T @ x[b] + bias over the channel axis of (B, D_in, P) input.

    Keeps no cache: backward takes the forward's input, which the refiner's
    encoder layer rebuilds.
    """

    def __init__(self, d_in: int, d_out: int, rng: SeededRng):
        self.weight = Param(kaiming_uniform(rng, (d_in, d_out), d_in))
        self.bias = Param(np.zeros(d_out))

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = np.matmul(self.weight.value.T, x)
        y += self.bias.value[:, None]
        return y

    def backward(self, dy: np.ndarray, x: np.ndarray) -> np.ndarray:
        self.weight.grad += channel_outer(x, dy)
        self.bias.grad += dy.sum(axis=(0, 2))
        return np.matmul(self.weight.value, dy)


class LayerNorm(Layer):
    """Normalization over the channel axis of (B, D, P) input, with scale and shift."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.eps = eps
        self.gamma = Param(np.ones(dim))
        self.beta = Param(np.zeros(dim))
        self._xhat = None
        self._invstd = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        xhat = x - x.mean(axis=1, keepdims=True)
        invstd = 1.0 / np.sqrt((xhat * xhat).mean(axis=1, keepdims=True) + self.eps)
        xhat *= invstd
        self._xhat, self._invstd = (xhat, invstd) if keep else (None, None)
        return self._affine(xhat)

    def _affine(self, xhat: np.ndarray) -> np.ndarray:
        y = xhat * self.gamma.value[:, None]
        y += self.beta.value[:, None]
        return y

    def output(self) -> np.ndarray:
        """The last keep=True forward's output, bitwise, rebuilt from x-hat."""
        return self._affine(self._xhat)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        ## with dxhat = dy * gamma:
        ## dx = invstd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), means over D
        xhat, invstd = self._xhat, self._invstd
        self._xhat = self._invstd = None
        gamma = self.gamma.value[:, None]
        self.beta.grad += dy.sum(axis=(0, 2))
        dxhat_xhat = dy * xhat
        self.gamma.grad += dxhat_xhat.sum(axis=(0, 2))
        dxhat_xhat *= gamma
        dx = dy * gamma
        dx -= dx.mean(axis=1, keepdims=True)
        dx -= xhat * dxhat_xhat.mean(axis=1, keepdims=True)
        dx *= invstd
        return dx


class ConvBlock(Layer):
    """[conv3x3 -> BatchNorm -> ReLU] x 2, the workhorse of encoder and decoders.

    norm1 and norm2 are each a BatchNormReLU, or a plain ReLU when
    normalization is off; either way every activation is C-contiguous
    NCHW.  conv2 keeps no input: backward rebuilds it as norm1.output(),
    which also gives norm1 its mask.
    """

    def __init__(self, cin: int, cout: int, use_norm: bool, rng: SeededRng):
        self.conv1 = Conv2d(cin, cout, 3, rng)
        self.norm1 = BatchNormReLU(cout) if use_norm else ReLU()
        self.conv2 = Conv2d(cout, cout, 3, rng)
        self.norm2 = BatchNormReLU(cout) if use_norm else ReLU()

    ## each step rebinds x or dy, so no activation outlives the layer that reads it
    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        x = self.conv1.forward(x, keep=keep)
        x = self.norm1.forward(x, keep=keep)
        x = self.conv2.forward(x, keep=False)
        return self.norm2.forward(x, keep=keep)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dy = self.norm2.backward(dy)
        a = self.norm1.output()
        dy = self.conv2.backward(dy, a)
        dy = self.norm1.backward(dy, a)
        del a
        return self.conv1.backward(dy)
