"""Dense tensor math: forward and backward passes for conv / relu / maxpool /
dense layers, the softmax cross-entropy loss, momentum SGD, and norms.

Everything operates on float64 numpy arrays and is a pure function of its
inputs; there is no autodiff graph. Convolution is cross-correlation (no
kernel flip), the universal deep-learning convention.

The conv forward and backward are matmuls over the im2col operands that
numpy 2.4 built when it lowered the contraction forms they replaced
(tests/test_tensor.py keeps those forms as oracles), and their results are
bit-identical to those forms, signed zeros and unit axes included
(_unit_axis_cols, _contract), with two limits. A padded x is always copied
into a C-order buffer, so F- and C-contiguous inputs give equal values and
strides, while the forms' np.pad keeps an F-contiguous x's layout: for
such an x (one image and one row, a channel-major x of 1x1 maps) a result
can differ from the form's in the last bit, and a padded input gradient's
strides differ. An unpadded x is read in its own layout, as the forms read
it. And the strides of length-1 axes, which address no memory, can differ
from the forms' (a 1x1 output map, a 1x1 kernel's weight gradient); their
values do not. The forward builds its operand for one block of whole
images at a time, so no full-batch copy of it exists, and the backward's
input gradient forms its tap products and their sums one block of whole
images at a time, so no full-batch tap or sum buffer exists either. Both
take their blocks from one rule (_image_blocks): whole column tiles, none
of them a small-matrix GEMM.
A batch that fits in one block is the lowering's single GEMM, and the tests
pin the tiled shapes. The weight gradient sums each element over all
columns in one GEMM. Where _per_tap_weight_grad holds, as at the CIFAR
net's convs 2-4 and VGG-14's, it forms one kernel tap's columns of it at a
time from that tap's slice of the operand, so no full operand exists there
either.

Both order the im2col columns (n, oh, ow) by default. On short output rows
(ow < _SHORT_ROW), where that order makes every strided copy and addition
run over only ow doubles, the backward's input gradient orders them
(oh, ow, n), batch innermost, at any channel count, and so does a forward
that is one block with more columns than rows; both need n*oh*ow to be
whole column tiles (_batch_innermost_grad, _batch_innermost_forward). Every
toy-network call and VGG-14's conv 5-13 input gradients take that order;
VGG-14's forwards and the CIFAR net's calls do not. Each GEMM column is then
the same product at another position, so every value and output stride is
unchanged. The weight gradient keeps the (n, oh, ow) order. Each kernel
has one body for both orders, which set only its buffers' layouts
(_CHANNEL_MAJOR, _BATCH_INNERMOST).

Independent halves of one conv run side by side on a helper thread (see
_side_by_side): the backward's weight and input gradients, and the first and
second halves of the forward's blocks. Each half makes the same numpy calls
on the same operands as it would alone, so no result depends on the thread
that computed it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .exceptions import GeometryError, LabelError, ShapeError


# The one bound, in bytes, on the scratch that one chunk of work allocates:
# the conv forward's im2col block and the input gradient's buffers for one
# block of images (see _image_blocks), and each buffer of one chunk of the
# Gram build in objectives.
CHUNK_BYTES = 4 * 2**20


@dataclass
class ConvParams:
    """Weights and geometry of one conv layer. weights: [out, in, kh, kw]."""

    out_channels: int
    in_channels: int
    kernel_h: int
    kernel_w: int
    stride: int
    padding: int
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.stride < 1:
            raise GeometryError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise GeometryError(f"padding must be >= 0, got {self.padding}")
        expect = (self.out_channels, self.in_channels, self.kernel_h, self.kernel_w)
        if tuple(self.weights.shape) != expect:
            raise ShapeError(
                f"conv weights shape {tuple(self.weights.shape)}, expected {expect}"
            )
        if tuple(self.bias.shape) != (self.out_channels,):
            raise ShapeError(
                f"conv bias shape {tuple(self.bias.shape)}, expected {(self.out_channels,)}"
            )


def conv_output_hw(params: ConvParams, h: int, w: int) -> tuple[int, int]:
    """Output spatial size; raises if it is not a positive integer."""
    num_h = h + 2 * params.padding - params.kernel_h
    num_w = w + 2 * params.padding - params.kernel_w
    if num_h < 0 or num_w < 0 or num_h % params.stride or num_w % params.stride:
        raise GeometryError(
            f"conv geometry does not fit: input {h}x{w}, "
            f"kernel {params.kernel_h}x{params.kernel_w}, "
            f"stride {params.stride}, padding {params.padding}"
        )
    return num_h // params.stride + 1, num_w // params.stride + 1


def _check_input(x: np.ndarray, params: ConvParams) -> None:
    if x.ndim != 4 or x.shape[1] != params.in_channels:
        raise ShapeError(
            f"conv input shape {tuple(x.shape)} incompatible with "
            f"{params.in_channels} input channels"
        )


def _new_helper() -> None:
    """Make the one helper thread of the conv kernels, which starts on the
    first submit and runs only numpy and private functions of this module."""
    global _HELPER
    _HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="smoea-conv")


_new_helper()
# a forked child has no helper thread, and the executor it inherits would
# never start one, so every split call would wait forever: give it its own
os.register_at_fork(after_in_child=_new_helper)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _side_by_side(first, second):
    """(first(), second()), with first run on the helper thread while second
    runs on this one. Returns or raises only after first has finished, so no
    work of this call outlives it; first's exception is raised when second
    succeeded, second's otherwise. A process held to one CPU runs first, then
    second, on this thread: two threads would only take turns on that CPU,
    which made fine-tuning slower than one thread does."""
    if _cpu_count() < 2:
        return first(), second()
    future = _HELPER.submit(first)
    try:
        second_result = second()
    finally:
        wait([future])
    return future.result(), second_result


def _windows(x_pad: np.ndarray, params: ConvParams) -> np.ndarray:
    # [n, c, oh, ow, kh, kw] read-only view over the padded input: the
    # windows of sliding_window_view, at a fifth of that call's cost
    n, c, h, w = x_pad.shape
    sn, sc, sh, sw = x_pad.strides
    kh, kw, s = params.kernel_h, params.kernel_w, params.stride
    shape = (n, c, (h - kh) // s + 1, (w - kw) // s + 1, kh, kw)
    return as_strided(x_pad, shape, (sn, sc, s * sh, s * sw, sh, sw), writeable=False)


# Memory layouts of a 4-D array as (order, inverse): order permutes the
# NCHW axes into the order in which the memory runs.
_NCHW = ((0, 1, 2, 3), (0, 1, 2, 3))
_CHANNELS_LAST = ((0, 2, 3, 1), (0, 3, 1, 2))


def _pad(x: np.ndarray, padding: int, layout=_NCHW) -> np.ndarray:
    """x with its spatial dims zero-padded, as an NCHW view of a new array
    laid out as `layout` (for NCHW, np.pad's result at a third of its cost
    for small inputs). An unpadded x keeps its own layout and is returned
    as it is where NCHW is asked for."""
    if padding == 0 and layout is _NCHW:
        return x
    n, c, h, w = x.shape
    shape = (n, c, h + 2 * padding, w + 2 * padding)
    order, inverse = layout
    out = np.zeros([shape[k] for k in order], dtype=x.dtype).transpose(inverse)
    out[:, :, padding : padding + h, padding : padding + w] = x
    return out


@lru_cache(maxsize=32)
def _im2col_index(c: int, h: int, w: int, kh: int, kw: int, stride: int) -> np.ndarray:
    """Flat indices into one padded [c, h, w] sample that gather its im2col
    rows: row (y, x) holds the window at (y*stride, x*stride), ordered
    (channel, kernel row, kernel col)."""
    flat = np.arange(c * h * w).reshape(c, h, w)
    win = sliding_window_view(flat, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    index = np.ascontiguousarray(win.transpose(1, 2, 0, 3, 4)).ravel()
    index.flags.writeable = False
    return index


# OpenBLAS's double GEMM (numpy 2.4's bundled build, x86-64 AVX-512 cores)
# may round a column differently when a split moves it to another column
# tile of its kernel, or to the separate small-matrix kernel that takes
# every GEMM of at most _SMALL_GEMM multiply-adds. The conv forward and
# input gradient split their GEMMs only where neither happens.
_COLUMN_TILE = 16
_SMALL_GEMM = 100**3


def _image_blocks(n: int, span: int, w: np.ndarray, image_bytes: int) -> list[int]:
    """Image counts of the blocks of a conv kernel whose GEMMs multiply
    weights w as [o, rows] by [rows, m*span] columns, for n images of span
    output positions and image_bytes of scratch each: ceil(n / k) blocks of
    near-equal size, k = max(1, CHUNK_BYTES // image_bytes), the one bound.
    Fewer blocks where a block's GEMM would drop to the small-matrix size,
    and one block where span is not a whole number of column tiles."""
    if span % _COLUMN_TILE:
        return [n]
    o, rows = w.shape
    k = max(1, CHUNK_BYTES // image_bytes)
    k_min = _SMALL_GEMM // (o * rows * span or 1) + 1
    count = max(1, min(-(-n // k), n // k_min))
    return [n // count + (i < n % count) for i in range(count)]


# Output rows shorter than this make the conv's strided copies and additions
# run over a few doubles each. There a call may order its im2col columns
# (oh, ow, n), batch innermost, so that they run over ow*n doubles; the
# GEMMs are the same products on permuted columns. On wider maps the
# (n, oh, ow) order is faster: at a 32-channel 32x32 conv with a batch of
# 32, the forward by 1.2-1.7x and the input gradient by about 20 %.
# Below it the input gradient gains at the toy network's 8x8 and 4x4 maps
# and holds at VGG-14's convs 5-13 (8x8 to 2x2, 128 to 512 channels): with
# a batch of 32 their nine backward calls took 622 -> 594 ms in all.
_SHORT_ROW = 16

# The two column orders as (order, inverse): order permutes NCHW axes into
# the channel-first layout whose columns run (n, oh, ow) or (oh, ow, n).
_CHANNEL_MAJOR = ((1, 0, 2, 3), (1, 0, 2, 3))
_BATCH_INNERMOST = ((1, 2, 3, 0), (3, 0, 1, 2))


def _batch_innermost_grad(n: int, oh: int, ow: int) -> bool:
    """Whether the conv input gradient orders its columns (oh, ow, n): on
    short rows, whatever the channel counts, and only where n*oh*ow is
    whole column tiles, so that every column, wherever the permutation puts
    it, sits in a full tile of the GEMM kernel and rounds as it did."""
    return ow < _SHORT_ROW and n * oh * ow % _COLUMN_TILE == 0


def _batch_innermost_forward(n: int, rows: int, oh: int, ow: int, blocks: list[int]) -> bool:
    """Whether the conv forward orders its columns (oh, ow, n): where the
    input gradient would, the batch is one block, and X has more columns
    than rows, as in every toy-network call. VGG-14's convs 5-13 fail the
    last two tests at every batch up to 256 (several blocks, or more rows);
    at a batch of 8 the two orders timed within 15 % of each other, and
    those calls keep the (n, oh, ow) order."""
    return len(blocks) == 1 and rows < n * oh * ow and _batch_innermost_grad(n, oh, ow)


def _per_tap_weight_grad(n: int, c: int, o: int, span: int, taps: int) -> bool:
    """Whether the conv weight gradient forms each tap's columns G @ X_ij
    in turn, where X_ij is the tap's [n*span, c] slice of X, instead of
    G @ X over the full X. Each element still sums over its whole K in one
    GEMM, so the bits hold where both GEMMs take the same kernel: c is
    whole column tiles (so X's c*taps columns are too), and each tap's GEMM
    is above the small-matrix size. It is taken there only if X has more
    than one tap and is larger than CHUNK_BYTES. At finetune-cifar's
    conv 2 (a batch of 32; one BLAS thread on a 2-vCPU Xeon) it cut the
    backward call's tracemalloc peak from 101 to 32 MB, and its time from
    58 to 53 ms; the toy network's calls all keep the full X."""
    return (
        taps > 1
        and c % _COLUMN_TILE == 0
        and o * c * n * span > _SMALL_GEMM
        and 8 * n * span * c * taps > CHUNK_BYTES
    )


def _unit_axis_cols(win: np.ndarray) -> np.ndarray:
    """X as numpy's lowering forms it before its reshape where the windows
    win (of _windows, axes in X's order) have an axis of length 1 (one
    image or channel, a 1x1 kernel or map row): win without its unit axes,
    copied in its own memory order, as the lowering's sum over them copies
    it. The reshape that follows is then a view where that layout allows
    one, not C-contiguous, and the GEMM rounds differently on it."""
    return np.squeeze(win).copy(order="K")


def _contract(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a @ b, or, where they share an axis of length 1, the lowering's
    product (a + 0.0) * (b + 0.0): its sums over unit axes turn -0.0 into
    +0.0, and a GEMM would add each product to +0.0."""
    if a.shape[1] != 1:
        return np.matmul(a, b, out=out)
    return np.multiply(a + 0.0, b + 0.0, out=out)


def conv2d_forward(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Cross-correlation plus bias, [n, c, h, w] -> [n, o, oh, ow].

    The matmul that numpy lowered the contraction "nchwij,ocij->nohw" to,
    split over blocks of whole images (_image_blocks): with W as
    [o, c*kh*kw], each block's windows are copied into a C-contiguous
    [c*kh*kw, k*oh*ow] operand X, the lowering's own layout, and W @ X fills
    that block's columns of one [o, n*oh*ow] result. A batch that fits in
    one block is the lowering's single GEMM. With two or more blocks, the
    helper thread fills the first half of them while this thread fills the
    rest, each through its own buffer.

    The columns run (n, oh, ow), from the NCHW padded input, or (oh, ow, n)
    where _batch_innermost_forward holds, from an input padded into a
    [c, h, w, n] buffer. Where the windows have a unit axis and the columns
    run (n, oh, ow), as for every 1x1 kernel, X is the lowering's own
    (_unit_axis_cols); a one-row X it multiplies (_contract). The result
    has the strides that empty_like gives the channel-major [o, n, oh, ow]
    form: in the (n, oh, ow) order the bias is added into the GEMM result
    in place, which has them unless an axis has length 1, and otherwise
    into a fresh array, NCHW-contiguous for a one-row X, as the lowering's.
    """
    _check_input(x, params)
    n, c = x.shape[:2]
    o, kh, kw = params.out_channels, params.kernel_h, params.kernel_w
    oh, ow = conv_output_hw(params, x.shape[2], x.shape[3])
    rows, span = c * kh * kw, oh * ow
    w = params.weights.reshape(o, rows)
    blocks = _image_blocks(n, span, w, 8 * rows * span)  # X's bytes per image
    if _batch_innermost_forward(n, rows, oh, ow, blocks) and kh * kw > 1:
        layout, x_pad = _BATCH_INNERMOST, _pad(x, params.padding, _BATCH_INNERMOST)
    else:
        layout, x_pad = _CHANNEL_MAJOR, _pad(x, params.padding)
    (order, nchw), win = layout, _windows(x_pad, params)
    unit = layout is _CHANNEL_MAJOR and 1 in (n, c, kh, kw, oh, ow)
    out = np.empty((o, n * span))

    def fill(blocks, start):
        # the blocks' GEMMs, starting at image `start`, through one buffer
        # the first block is the largest; the lowering's own X needs none
        buf = np.empty(0 if unit else rows * blocks[0] * span)
        for m in blocks:
            # X's rows run (c, kh, kw) and its columns in the order's layout
            block = win[start : start + m].transpose(1, 4, 5, *order[1:])
            if unit:  # the lowering's own X
                cols = _unit_axis_cols(block)
            else:
                cols = buf[: rows * m * span]
                cols.reshape(block.shape)[...] = block
            cols = cols.reshape(rows, m * span)
            _contract(w, cols, out=out[:, start * span : (start + m) * span])
            start += m

    half = len(blocks) // 2
    if half:
        _side_by_side(
            lambda: fill(blocks[:half], 0), lambda: fill(blocks[half:], sum(blocks[:half]))
        )
    else:
        fill(blocks, 0)
    y = out.reshape([(n, o, oh, ow)[k] for k in order]).transpose(nchw)
    # the lowering's result has the strides that empty_like gives the
    # channel-major form of out. In the (n, oh, ow) order y has them where
    # no axis has length 1 (empty_like sets such an axis's stride its own
    # way), and there the bias goes into out in place
    if rows == 1:  # the lowering's product is NCHW-contiguous
        result = np.empty((n, o, oh, ow))
    elif layout is _CHANNEL_MAJOR and min(n, o, oh, ow) > 1:
        result = y
    else:  # empty_like reads only the shape and strides of out in that form
        result = np.empty_like(out.reshape(o, n, oh, ow).transpose(1, 0, 2, 3))
    return np.add(y, params.bias[None, :, None, None], out=result)


def conv2d_backward(
    x: np.ndarray, params: ConvParams, grad_out: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of sum(grad_out * conv2d_forward(x, params)) wrt x, weights, bias.

    The x gradient is None when input_grad is False (a network's first layer).

    An im2col / col2im formulation with exactly the matmul operands that
    numpy's lowering of the per-tap contractions used, so every
    result is bit-identical to it. With G = grad_out as [o, n*oh*ow] and X
    the windows as a C-contiguous [n*oh*ow, c*kh*kw]: grad_w = G @ X (with a
    1x1 kernel's X and a one-column G as the lowering forms them), and
    each tap's input gradient W[:, :, i, j].T @ G is added, in row-major tap
    order, into a channel-major padded buffer acc. The input gradient runs
    over blocks of whole images (_image_blocks, sized by one image's tap and
    acc bytes), each with its own tap and acc, whose sums are then copied
    into the x gradient. The blocks are whole column tiles and none is a
    small-matrix GEMM, so every column of G keeps its tile position and
    every acc element receives its taps in the same order as in one
    full-batch GEMM per tap. Where _batch_innermost_grad holds, the input
    gradient's G is grad_out as [o, oh*ow*n] instead, its acc is
    [c, h, w, n], and the whole batch is one block. The x gradient keeps the
    padded input's NCHW layout, so the reductions taken over it downstream
    sum in the same order too.

    Where _per_tap_weight_grad holds, X is never formed: the weight gradient
    copies x once into a channel-last padded buffer and fills one reused
    [n*oh*ow, c] buffer with each tap's slice X_ij of X from it, and
    grad_w[:, :, i, j] = G @ X_ij. Each element of grad_w still sums over all
    n*oh*ow columns in one GEMM, on the kernel that G @ X takes, so its bits
    are unchanged.

    Where X is larger than CHUNK_BYTES, the helper thread computes grad_w,
    gathering what it needs, while this thread computes the x gradient; its
    buffers are freed as soon as grad_w is done. Smaller calls run the two
    halves one after the other on this thread.
    """
    _check_input(x, params)
    n, c = x.shape[:2]
    o, kh, kw = params.out_channels, params.kernel_h, params.kernel_w
    oh, ow = conv_output_hw(params, x.shape[2], x.shape[3])
    if tuple(grad_out.shape) != (n, o, oh, ow):
        raise ShapeError(
            f"grad_out shape {tuple(grad_out.shape)}, expected {(n, o, oh, ow)}"
        )
    span, rows, p = oh * ow, c * kh * kw, params.padding
    g = grad_out.transpose(1, 0, 2, 3).reshape(o, n * span)

    def weight_grad():
        if _per_tap_weight_grad(n, c, o, span, kh * kw):
            # each tap's X_ij filled from windows over a channel-last x_pad
            win = _windows(_pad(x, p, _CHANNELS_LAST), params)
            cols = np.empty((n, oh, ow, c))
            tap, grad_w = np.empty((o, c)), np.empty(params.weights.shape)
            for i in range(kh):
                for j in range(kw):
                    cols.transpose(_CHANNELS_LAST[1])[...] = win[..., i, j]
                    np.matmul(g, cols.reshape(n * span, c), out=tap)
                    grad_w[:, :, i, j] = tap
            return grad_w
        x_pad = _pad(x, p)
        if kh * kw == 1:  # the lowering's own X
            win = _windows(x_pad, params).transpose(0, 2, 3, 1, 4, 5)
            cols = _unit_axis_cols(win).reshape(n * span, c)
        else:
            index = _im2col_index(c, *x_pad.shape[2:], kh, kw, params.stride)
            # explicit sizes: a -1 cannot be inferred for an empty batch
            flat = x_pad.reshape(n, c * x_pad.shape[2] * x_pad.shape[3])
            cols = np.take(flat, index, axis=1).reshape(n * span, rows)
        return _contract(g, cols).reshape(params.weights.shape)

    def x_grad():
        w_taps = params.weights.transpose(2, 3, 1, 0)  # [kh, kw, c, o] view
        if c == 1:
            # the lowering drops the unit axis and hands matmul a contiguous row
            w_taps = np.ascontiguousarray(w_taps)
        # each block's acc and tap are laid out channel first in the columns'
        # order, and added through [m, c, h, w] views
        hp, wp = x.shape[2] + 2 * p, x.shape[3] + 2 * p
        if _batch_innermost_grad(n, oh, ow):
            order, nchw = _BATCH_INNERMOST
            g_x, blocks = grad_out.transpose(order).reshape(o, n * span), [n]
        else:
            (order, nchw), g_x = _CHANNEL_MAJOR, g
            # tap's and acc's bytes per image
            blocks = _image_blocks(n, span, w_taps[0, 0], 8 * c * (span + hp * wp))
        grad_x_pad = np.empty((n, c, hp, wp), x.dtype) if p else np.empty_like(x)
        # one buffer each for every block's tap and acc: the first block is
        # the largest
        tap_buf, acc_buf = np.empty(c * blocks[0] * span), np.empty(c * blocks[0] * hp * wp)
        s, start = params.stride, 0
        for m in blocks:
            acc = acc_buf[: c * m * hp * wp]
            acc.fill(0.0)
            acc = acc.reshape([(m, c, hp, wp)[k] for k in order]).transpose(nchw)
            tap = tap_buf[: c * m * span].reshape(c, m * span)
            tap_nchw = tap.reshape([(m, c, oh, ow)[k] for k in order]).transpose(nchw)
            g_block = g_x[:, start * span : (start + m) * span]
            for i in range(kh):
                for j in range(kw):
                    np.matmul(w_taps[i, j], g_block, out=tap)
                    acc[:, :, i : i + s * oh : s, j : j + s * ow : s] += tap_nchw
            grad_x_pad[start : start + m] = acc
            start += m
        return grad_x_pad[:, :, p:-p, p:-p] if p else grad_x_pad

    if not input_grad:
        grad_x, grad_w = None, weight_grad()
    elif 8 * n * span * rows > CHUNK_BYTES:  # X's bytes
        grad_w, grad_x = _side_by_side(weight_grad, x_grad)
    else:
        grad_w, grad_x = weight_grad(), x_grad()
    return grad_x, grad_w, grad_out.sum(axis=(0, 2, 3))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # tie at exactly 0 gets zero gradient
    return grad_out * (x > 0)


# the 2x2 window positions in row-major order, as (row, col) offsets
_QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def maxpool2x2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 max pooling, stride 2, into a C-contiguous output, and the record
    that maxpool2x2_backward reads: each window's winner, 0..3 in row-major
    order within the 2x2 window, as an int8 array of the output's shape (the
    pooled input's shape is that shape with its spatial dims doubled).

    Bit-identical to an argmax over each window: np.maximum(later, earlier)
    returns its second operand on a tie, +0.0 against -0.0 included (as
    numpy's x86-64 loops do; tests/test_tensor.py pins it), so the chain
    below keeps the first maximum in row-major window order, and the winner
    is the first slot equal to it. A NaN propagates to the output; its
    winner slot is not pinned.
    """
    _, _, h, w = x.shape
    if h % 2 or w % 2:
        raise GeometryError(f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    q = [x[:, :, di::2, dj::2] for di, dj in _QUADRANTS]
    top = np.maximum(q[1], q[0])
    bottom = np.maximum(q[3], q[2])
    out = np.maximum(bottom, top, order="C")
    not0, not1, not2 = (q[k] != out for k in range(3))
    winner = not0 * (not1 * (not2 + np.int8(1)) + np.int8(1))  # int8, 0..3
    return out, winner


def maxpool2x2_backward(winner: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    if grad_out.shape != winner.shape:
        raise ShapeError(
            f"grad_out shape {tuple(grad_out.shape)}, expected {winner.shape}"
        )
    n, c, h, w = winner.shape
    g = np.empty((n, c, 2 * h, 2 * w))
    # each window slot gets grad_out's bits masked by an all-ones (winner)
    # or all-zeros (+0.0) word, so values and signed zeros pass exactly
    bits = np.asarray(grad_out, dtype=np.float64).view(np.int64)
    for k, (di, dj) in enumerate(_QUADRANTS):
        mask = np.negative((winner == k).view(np.int8))
        np.bitwise_and(bits, mask, out=g.view(np.int64)[:, :, di::2, dj::2])
    return g


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or weights.ndim != 2 or x.shape[1] != weights.shape[0]:
        raise ShapeError(
            f"dense shapes do not compose: input {tuple(x.shape)}, "
            f"weights {tuple(weights.shape)}"
        )
    if tuple(bias.shape) != (weights.shape[1],):
        raise ShapeError(f"dense bias shape {tuple(bias.shape)}")
    return x @ weights + bias


def dense_backward(
    x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if tuple(grad_out.shape) != (x.shape[0], weights.shape[1]):
        raise ShapeError(f"grad_out shape {tuple(grad_out.shape)}")
    return grad_out @ weights.T, x.T @ grad_out, grad_out.sum(axis=0)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy with log-sum-exp stabilization.

    Returns (loss, grad_logits) with grad = (softmax - onehot) / N.
    """
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise LabelError(f"labels must lie in [0, {c})")
    z = logits - logits.max(axis=1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = float(-log_p[np.arange(n), labels].mean())
    grad = np.exp(log_p)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def sgd_update(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    lr: float,
    momentum: float,
    velocity: list[np.ndarray],
) -> None:
    """v <- momentum*v + g; p <- p - lr*v, both in place."""
    for p, g, v in zip(params, grads, velocity):
        v *= momentum
        v += g
        p -= lr * v


def frobenius_norm(t: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.asarray(t, dtype=np.float64) ** 2)))


def inner_product(a: np.ndarray, b: np.ndarray) -> float:
    if tuple(a.shape) != tuple(b.shape):
        raise ShapeError(f"inner_product shapes {tuple(a.shape)} vs {tuple(b.shape)}")
    return float(np.sum(np.asarray(a, dtype=np.float64) * np.asarray(b, dtype=np.float64)))
