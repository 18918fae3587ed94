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
it.  Composites pass keep down to every layer they own.  backward after
such a forward is an error; ChangeModel checks it once for the network.
Every layer takes its cache in backward and leaves None behind, so a
training step frees each cache as the backward pass reaches it, and a
later validation forward finds nothing left over.

A training forward caches only what cannot be rebuilt cheaply.  Conv2d
and Linear cache only their input, and ReLU only its output; each takes
that array as backward's second argument instead, so a composite that
can rebuild it runs them with keep=False.  BatchNormReLU's backward
takes its output there too, and reads the ReLU mask from it.  ConvBlock
rebuilds conv2's input from norm1's x-hat (output() of a BatchNormReLU;
a plain ReLU holds its output), and the refiner's encoder layer rebuilds
its norm outputs and its FFN hidden layer (temporal.py).  Each rebuild
calls the helper the forward itself used, so it is bitwise equal to the
array it replaces.

Conv2d caches its input by reference, never a patch matrix: a 3x3 forward
packs the columns of one image at a time, and backward re-packs the whole
batch from the input for the weight gradient.  A conv built with
input_grad=False (the network's first) skips dx, which no one reads.
Conv2d returns its output and dx C-contiguous, and BatchNormReLU keeps
that layout, so every activation of a ConvBlock, forward and backward,
is contiguous NCHW and each per-channel reduction and column pack reads
memory in order.

Inside cores.threaded() (ChangeModel's inference forward) a large 3x3
conv splits its output rows into bands and a large BatchNorm its
channels, one part per worker.  Each part computes its cells with the
same operations, in the same order, as the whole layer: a band's GEMM
starts on a tile boundary of OpenBLAS's kernel and stays above its
small-matrix size (_bands), and every BatchNorm part holds two channels
or more (_channel_parts).  So the output is bitwise equal at every
worker count.  Thresholds (CONV_SPLIT_COLUMNS, NORM_SPLIT_CELLS) keep
small layers, which lose to the hand-off, whole.

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

## inside cores.threaded(), a 3x3 conv whose images have at least this many
## column cells (C*9*H*W) splits its rows (2 vCPUs: 1.2-1.8x from 2.9e5 up,
## 0.8-1.0x at 1.5e5)
CONV_SPLIT_COLUMNS = 1 << 18
## into bands that start on a multiple of this many output pixels
BAND_ALIGN = 64
## and each do at least this many multiply-adds
BAND_MACS = 1 << 20
## and a BatchNorm over at least this many cells (B*C*H*W) splits its channels
## (1.3-1.7x from 2.6e5 up, 0.5-0.9x at 1.3e5 and below)
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


def _window(shift: int, n: int) -> tuple[slice, slice]:
    """Destination and source slices of a tap shifted by -1, 0 or +1 along n cells."""
    return slice(max(0, -shift), n - max(0, shift)), slice(max(0, shift), n + min(0, shift))


def _pack_columns(x: np.ndarray, cols: np.ndarray, y0: int = 0) -> np.ndarray:
    """Write the 3x3 patches of x (B, C, H, W) into cols (C, 3, 3, B, rows, W).

    The patches are those of output rows y0 .. y0 + rows - 1, a band of the
    image, read from input rows y0 - 1 .. y0 + rows: a band packs its own
    columns, with a one-row halo on each side.  Returns the
    (C*9, B*rows*W) view: row c*9 + 3i + j holds channel c shifted by
    (i-1, j-1), column (b*rows + y - y0)*W + x one output pixel.  Cells
    that fall in the zero padding are never written, so cols must come
    from _column_buffer; such a buffer stays valid across calls of one
    shape and band.
    """
    _, _, h, w = x.shape
    rows = cols.shape[4]
    xc = x.transpose(1, 0, 2, 3)
    for i in range(3):
        ## band row r reads input row y0 + r + i - 1, where that is inside the image
        top = y0 + i - 1
        lo, hi = max(0, -top), min(rows, h - top)
        for j in range(3):
            dst_x, src_x = _window(j - 1, w)
            cols[:, i, j, :, lo:hi, dst_x] = xc[:, :, top + lo : top + hi, src_x]
    return cols.reshape(cols.shape[0] * 9, -1)


def _column_buffer(cin: int, b: int, h: int, w: int) -> np.ndarray:
    """An empty (C, 3, 3, B, H, W) column buffer with its padding cells zeroed.

    Those are the cells _pack_columns never writes: row 0 of the taps that
    look one row up, row H-1 of those that look one row down, and likewise
    column 0 and column W-1.  A band that does not touch the image's top or
    bottom edge writes its rows 0 or H-1 over the zeros.
    """
    cols = np.empty((cin, 3, 3, b, h, w))
    cols[:, 0, :, :, 0, :] = 0.0
    cols[:, 2, :, :, -1, :] = 0.0
    cols[:, :, 0, :, :, 0] = 0.0
    cols[:, :, 2, :, :, -1] = 0.0
    return cols


def _conv_raw(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Stride-1, same-size cross-correlation of x (B, C, H, W), without bias.

    Returns a C-contiguous (B, Cout, H, W) array.  A 1x1 kernel needs no
    packing: one channels-last GEMM over the whole batch, copied into NCHW
    once.  A 3x3 kernel packs one image's columns at a time into a reused
    buffer, so at most one image's 9x copy exists, and W @ cols writes that
    image's NCHW rows in place.

    Inside cores.threaded(), an image of at least CONV_SPLIT_COLUMNS column
    cells (C*9*H*W) has its output rows split into up to one band per
    worker (_bands).  Each band packs only its rows' columns, with a
    one-row halo, into its own buffer, and its GEMM writes that band's rows
    of every image, so the bands' buffers together are one image's.  Each
    output cell is the same dot product over C*9 either way, bitwise equal
    to the unsplit one as long as OpenBLAS computes it with the same
    kernel; see _bands.
    """
    cout, cin, k, _ = weight.shape
    b, _, h, w = x.shape
    if k == 1:
        out = x.transpose(0, 2, 3, 1).reshape(b * h * w, cin) @ weight.reshape(cout, cin).T
        return np.ascontiguousarray(out.reshape(b, h, w, cout).transpose(0, 3, 1, 2))
    wmat = weight.reshape(cout, cin * 9)
    out = np.empty((b, cout, h, w))
    out_rows = out.reshape(b, cout, h * w)
    parts = cores.splitting() if cin * 9 * h * w >= CONV_SPLIT_COLUMNS else 1
    unit, bands = _bands(h, w, cout * cin * 9, parts)

    def band(i0: int, i1: int) -> None:
        y0, y1 = i0 * unit, min(i1 * unit, h)
        cols = _column_buffer(cin, 1, y1 - y0, w)
        for n in range(b):
            np.matmul(
                wmat, _pack_columns(x[n : n + 1], cols, y0), out=out_rows[n, :, y0 * w : y1 * w]
            )

    cores.run(band, -(-h // unit), bands)
    return out


def _bands(h: int, w: int, macs_per_pixel: int, parts: int) -> tuple[int, int]:
    """(unit, bands): split H rows into at most `parts` bands of whole units.

    OpenBLAS computes a GEMM's columns in tiles of a fixed width, and its
    narrower tail tile sums in another order; a unit of rows spans a
    multiple of BAND_ALIGN pixels, which the tile widths divide, so every
    band starts on a tile boundary of the whole image's GEMM.  Below
    BAND_MACS multiply-adds OpenBLAS switches to a small-matrix kernel,
    which sums a dot product longer than its K block in another order, so
    every band, the shortest included, stays above that.
    """
    unit = BAND_ALIGN // math.gcd(BAND_ALIGN, w)
    units = -(-h // unit)
    for bands in range(min(parts, units), 1, -1):
        ## the shortest band: its whole units, less the last unit's missing rows
        shortest = (units // bands) * unit - (units * unit - h)
        if shortest * w * macs_per_pixel >= BAND_MACS:
            return unit, bands
    return unit, 1


class Conv2d(Layer):
    """Same-size convolution, kernel 1 or 3, stride 1, pad kernel//2.

    Output and dx are C-contiguous NCHW whatever the layout of x and dy.
    Forward caches its input, so callers must not write to it before
    backward; a caller that rebuilds the input instead runs forward with
    keep=False and passes it to backward.  Backward re-packs the whole
    batch from it, so the weight gradient's sum over B*H*W stays one GEMM.
    With input_grad=False, backward accumulates the parameter gradients and
    returns None.
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

    def backward(self, dy: np.ndarray, x: np.ndarray | None = None) -> np.ndarray | None:
        x = self._x if x is None else x
        self._x = None
        b, cin, h, w = x.shape
        cout = self.weight.value.shape[0]
        dyf = dy.transpose(0, 2, 3, 1).reshape(-1, cout)
        if self.kernel == 1:
            cols_t = x.transpose(0, 2, 3, 1).reshape(-1, cin)
        else:
            cols_t = _pack_columns(x, _column_buffer(cin, b, h, w)).T
        self.weight.grad += (dyf.T @ cols_t).reshape(self.weight.value.shape)
        self.bias.grad += dyf.sum(axis=0)
        ## the whole-batch columns go before dx packs its own
        del cols_t, dyf
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
        x, self._x = self._x, None
        self.weight.grad += np.einsum("bchw,bdhwij->cdij", x, dyr, optimize=True)
        self.bias.grad += dy.sum(axis=(0, 2, 3))
        return np.einsum("bdhwij,cdij->bchw", dyr, self.weight.value, optimize=True)


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
        idx, self._idx = self._idx, None
        flat = np.zeros((b, c, h // 2, w // 2, 4))
        np.put_along_axis(flat, idx[..., None], dy[..., None], axis=-1)
        view = flat.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return view.reshape(b, c, h, w)


def channel_outer(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Sum over b of x[b] @ dy[b].T: the weight gradient of a channel-axis product.

    x (B, C_in, P) and dy (B, C_out, P) give (C_in, C_out).  One GEMM per
    b reads both operands in place; a batched matmul against a swapaxes
    view copies them first.
    """
    return sum(x[b] @ dy[b].T for b in range(len(x)))


class Linear(Layer):
    """y[b] = W.T @ x[b] + bias over the channel axis of (B, D_in, P) input.

    The cache is the input alone, by reference: a caller that rebuilds the
    input runs forward with keep=False and passes it to backward.
    """

    def __init__(self, d_in: int, d_out: int, rng: SeededRng):
        self.weight = Param(kaiming_uniform(rng, (d_in, d_out), d_in))
        self.bias = Param(np.zeros(d_out))
        self._x = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        self._x = x if keep else None
        y = np.matmul(self.weight.value.T, x)
        y += self.bias.value[:, None]
        return y

    def backward(self, dy: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
        x = self._x if x is None else x
        self._x = None
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
    which also gives norm1 its mask.  input_grad=False builds the first
    conv without dx: backward then returns None.
    """

    def __init__(
        self, cin: int, cout: int, use_norm: bool, rng: SeededRng, input_grad: bool = True
    ):
        self.conv1 = Conv2d(cin, cout, 3, rng, input_grad)
        self.norm1 = BatchNormReLU(cout) if use_norm else ReLU()
        self.conv2 = Conv2d(cout, cout, 3, rng)
        self.norm2 = BatchNormReLU(cout) if use_norm else ReLU()

    ## each step rebinds x or dy, so no activation outlives the layer that reads it
    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        x = self.conv1.forward(x, keep=keep)
        x = self.norm1.forward(x, keep=keep)
        x = self.conv2.forward(x, keep=False)
        return self.norm2.forward(x, keep=keep)

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        dy = self.norm2.backward(dy)
        a = self.norm1.output()
        dy = self.conv2.backward(dy, a)
        dy = self.norm1.backward(dy, a)
        del a
        return self.conv1.backward(dy)
