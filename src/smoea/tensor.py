"""Dense tensor math: forward and backward passes for conv / relu / maxpool /
dense layers, the softmax cross-entropy loss, momentum SGD, and norms.

Everything operates on float64 numpy arrays and is a pure function of its
inputs; there is no autodiff graph. Convolution is cross-correlation (no
kernel flip), the universal deep-learning convention.

The conv forward and backward are matmuls over the im2col operands that
numpy 2.4 built when it lowered the contraction forms they replaced
(tests/test_tensor.py keeps those forms as oracles), and their results are
bit-identical to those forms. The forward builds its operand for one block
of whole images at a time, so no full-batch copy of it exists; a batch
that fits in one block is the lowering's single GEMM, and the tests pin the
tiled shapes.

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
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import GeometryError, LabelError, ShapeError


# Bound, in bytes, on a scratch buffer that one chunk of work allocates: the
# conv forward's im2col block (see _forward_bound) and each buffer of one
# chunk of the Gram build in objectives.
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
    # [N, Cin, H', W', kh, kw] strided view over the padded input
    win = sliding_window_view(x_pad, (params.kernel_h, params.kernel_w), axis=(2, 3))
    return win[:, :, :: params.stride, :: params.stride]


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the spatial dims into a new C-contiguous array (np.pad's
    result, at a third of its cost for small inputs)."""
    if padding == 0:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
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
# every GEMM of at most _SMALL_GEMM multiply-adds. The conv forward splits
# its GEMM only where neither happens.
_COLUMN_TILE = 16
_SMALL_GEMM = 100**3


def _forward_bound(weights: np.ndarray) -> int:
    """Bytes of im2col operand the conv forward aims to copy per block:
    CHUNK_BYTES, or twice the weights where those are larger, so that a wide
    layer does not re-stream its weights for every few images."""
    return max(CHUNK_BYTES, 2 * weights.nbytes)


def _forward_blocks(n: int, span: int, w: np.ndarray) -> list[int]:
    """Image counts of the conv forward's blocks, for n images of span
    output positions each and weights w as [o, rows]: ceil(n / k) blocks of
    near-equal size, k = max(1, _forward_bound(w) // (one image's
    [rows, span] operand bytes)). Fewer blocks where a block's GEMM would
    drop to the small-matrix size, and one block where span is not a whole
    number of column tiles."""
    if span % _COLUMN_TILE:
        return [n]
    o, rows = w.shape
    k = max(1, _forward_bound(w) // (8 * rows * span))
    k_min = _SMALL_GEMM // (o * rows * span or 1) + 1
    count = max(1, min(-(-n // k), n // k_min))
    return [n // count + (i < n % count) for i in range(count)]


def conv2d_forward(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Cross-correlation plus bias, [n, c, h, w] -> [n, o, oh, ow].

    The matmul that numpy lowered the contraction "nchwij,ocij->nohw" to,
    split over blocks of whole images (_forward_blocks): with W as
    [o, c*kh*kw], each block's windows are copied into a C-contiguous
    [c*kh*kw, k*oh*ow] operand X, the lowering's own layout, and W @ X fills
    that block's columns of one channel-major [o, n, oh, ow] result. A batch
    that fits in one block is the lowering's single GEMM. With two or more
    blocks, the helper thread fills the first half of them while this thread
    fills the rest, each through its own buffer.
    """
    _check_input(x, params)
    n, c = x.shape[:2]
    o, kh, kw = params.out_channels, params.kernel_h, params.kernel_w
    oh, ow = conv_output_hw(params, x.shape[2], x.shape[3])
    win = _windows(_pad(x, params.padding), params)
    rows, span = c * kh * kw, oh * ow
    w = params.weights.reshape(o, rows)
    blocks = _forward_blocks(n, span, w)
    out = np.empty((o, n, oh, ow))
    out_cols = out.reshape(o, n * span)

    def fill(blocks, start):
        # the blocks' GEMMs, starting at image `start`, through one buffer
        buf = np.empty(rows * blocks[0] * span)  # the first block is the largest
        for m in blocks:
            cols = buf[: rows * m * span].reshape(rows, m * span)
            cols.reshape(c, kh, kw, m, oh, ow)[...] = win[start : start + m].transpose(
                1, 4, 5, 0, 2, 3
            )
            np.matmul(w, cols, out=out_cols[:, start * span : (start + m) * span])
            start += m

    half = len(blocks) // 2
    if half:
        _side_by_side(
            lambda: fill(blocks[:half], 0), lambda: fill(blocks[half:], sum(blocks[:half]))
        )
    else:
        fill(blocks, 0)
    # a fresh array, not an in-place add: it takes the lowering's strides
    return out.transpose(1, 0, 2, 3) + params.bias[None, :, None, None]


def conv2d_backward(
    x: np.ndarray, params: ConvParams, grad_out: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of sum(grad_out * conv2d_forward(x, params)) wrt x, weights, bias.

    The x gradient is None when input_grad is False (a network's first layer).

    An im2col / col2im formulation with exactly the matmul operands that
    numpy's lowering of the per-tap contractions used, so every
    result is bit-identical to it. With G = grad_out as [o, n*oh*ow] and X
    the windows as a C-contiguous [n*oh*ow, c*kh*kw]: grad_w = G @ X, and
    each tap's input gradient W[:, :, i, j].T @ G is added, in row-major tap
    order, into a channel-major padded buffer. The x gradient keeps the
    padded input's NCHW layout, so the reductions taken over it downstream
    sum in the same order too.

    Where X is larger than CHUNK_BYTES, the helper thread gathers X and
    computes grad_w while this thread computes the x gradient; X is freed as
    soon as grad_w is done. Smaller calls run the two halves one after the
    other on this thread.
    """
    _check_input(x, params)
    n, c = x.shape[:2]
    o, kh, kw = params.out_channels, params.kernel_h, params.kernel_w
    oh, ow = conv_output_hw(params, x.shape[2], x.shape[3])
    if tuple(grad_out.shape) != (n, o, oh, ow):
        raise ShapeError(
            f"grad_out shape {tuple(grad_out.shape)}, expected {(n, o, oh, ow)}"
        )
    x_pad = _pad(x, params.padding)
    g = grad_out.transpose(1, 0, 2, 3).reshape(o, n * oh * ow)

    def weight_grad():
        index = _im2col_index(c, *x_pad.shape[2:], kh, kw, params.stride)
        cols = np.take(x_pad.reshape(n, -1), index, axis=1).reshape(n * oh * ow, -1)
        return np.matmul(g, cols).reshape(params.weights.shape)

    def x_grad():
        w_taps = params.weights.transpose(2, 3, 1, 0)  # [kh, kw, c, o] view
        if c == 1:
            # the lowering drops the unit axis and hands matmul a contiguous row
            w_taps = np.ascontiguousarray(w_taps)
        acc = np.zeros((c, n) + x_pad.shape[2:])
        tap = np.empty((c, n * oh * ow))
        s = params.stride
        for i in range(kh):
            for j in range(kw):
                np.matmul(w_taps[i, j], g, out=tap)
                acc[:, :, i : i + s * oh : s, j : j + s * ow : s] += tap.reshape(c, n, oh, ow)
        grad_x_pad = np.empty_like(x_pad)
        grad_x_pad[...] = acc.transpose(1, 0, 2, 3)
        p = params.padding
        return grad_x_pad[:, :, p:-p, p:-p] if p else grad_x_pad

    if not input_grad:
        grad_x, grad_w = None, weight_grad()
    elif 8 * n * oh * ow * c * kh * kw > CHUNK_BYTES:  # X's bytes
        grad_w, grad_x = _side_by_side(weight_grad, x_grad)
    else:
        grad_w, grad_x = weight_grad(), x_grad()
    return grad_x, grad_w, grad_out.sum(axis=(0, 2, 3))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # tie at exactly 0 gets zero gradient
    return grad_out * (x > 0)


@dataclass
class PoolRecord:
    """What maxpool backward needs: each window's winner, 0..3 in row-major
    order within the 2x2 window (int8), plus the pooled input's shape."""

    winner: np.ndarray
    in_shape: tuple[int, int, int, int]


# the 2x2 window positions in row-major order, as (row, col) offsets
_QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def maxpool2x2(x: np.ndarray) -> tuple[np.ndarray, PoolRecord]:
    """2x2 max pooling, stride 2, into a C-contiguous output.

    Bit-identical to an argmax over each window: np.maximum(later, earlier)
    returns its second operand on a tie, +0.0 against -0.0 included (as
    numpy's x86-64 loops do; tests/test_tensor.py pins it), so the chain
    below keeps the first maximum in row-major window order, and the winner
    is the first slot equal to it. A NaN propagates to the output; its
    winner slot is not pinned.
    """
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise GeometryError(f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    q = [x[:, :, di::2, dj::2] for di, dj in _QUADRANTS]
    top = np.maximum(q[1], q[0])
    bottom = np.maximum(q[3], q[2])
    out = np.maximum(bottom, top, order="C")
    not0, not1, not2 = (q[k] != out for k in range(3))
    winner = not0 * (not1 * (not2 + np.int8(1)) + np.int8(1))  # int8, 0..3
    return out, PoolRecord(winner, (n, c, h, w))


def maxpool2x2_backward(record: PoolRecord, grad_out: np.ndarray) -> np.ndarray:
    n, c, h, w = record.in_shape
    if tuple(grad_out.shape) != (n, c, h // 2, w // 2):
        raise ShapeError(
            f"grad_out shape {tuple(grad_out.shape)}, expected {(n, c, h // 2, w // 2)}"
        )
    # each window slot gets grad_out's bits masked by an all-ones (winner)
    # or all-zeros (+0.0) word, so values and signed zeros pass exactly
    g = np.empty((n, c, h, w))
    bits = np.asarray(grad_out, dtype=np.float64).view(np.int64)
    for k, (di, dj) in enumerate(_QUADRANTS):
        mask = np.negative((record.winner == k).view(np.int8))
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
    if not (lr > 0):
        raise ShapeError("lr must be > 0")
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
