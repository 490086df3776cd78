import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from conftest import naive_conv2d, numerical_grad, rel_err
from smoea import tensor as T
from smoea.exceptions import GeometryError, LabelError, ShapeError
from smoea.network import ReluLayer, build_toy_cnn, extract_subnetwork
from smoea.objectives import EvaluationContext
from smoea.pipeline import FineTuneConfig, finetune
from smoea.tensor import ConvParams


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Split calls hand work to the helper thread on any test machine."""
    monkeypatch.setattr(T, "_cpu_count", lambda: 2)


class NoHelper:
    """Stands in for tensor._HELPER where no work may reach it."""

    def submit(self, *args):
        raise AssertionError("work reached the helper thread")


class MeasuringHelper:
    """Stands in for tensor._HELPER: runs each half at once, on this thread,
    under tracemalloc, records the traced peak that the half added, and
    returns a done future."""

    def __init__(self):
        self.peaks = []

    def submit(self, work):
        future = Future()
        tracemalloc.start()
        try:
            future.set_result(work())
            self.peaks.append(tracemalloc.get_traced_memory()[1])
        except Exception as e:  # raised by the caller, as a real helper's
            future.set_exception(e)
        finally:
            tracemalloc.stop()
        return future


def conv_params(oc, ic, k, stride=1, padding=0, rng=None, weights=None, bias=None):
    if weights is None:
        weights = rng.normal(size=(oc, ic, k, k))
    if bias is None:
        bias = rng.normal(size=oc) if rng is not None else np.zeros(oc)
    return ConvParams(oc, ic, k, k, stride, padding, weights, bias)


class TestConvForward:
    def test_identity_kernel(self):
        x = np.ones((1, 1, 3, 3))
        p = conv_params(1, 1, 1, weights=np.ones((1, 1, 1, 1)), bias=np.zeros(1))
        assert np.array_equal(T.conv2d_forward(x, p), x)

    def test_full_window_sum(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        p = conv_params(1, 1, 2, weights=np.ones((1, 1, 2, 2)), bias=np.zeros(1))
        out = T.conv2d_forward(x, p)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == pytest.approx(10.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 8))
        p = conv_params(4, 3, 3, padding=1, rng=rng)
        np.testing.assert_allclose(T.conv2d_forward(x, p), naive_conv2d(x, p), atol=1e-6)

    def test_stride_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 7, 7))
        p = conv_params(3, 2, 3, stride=2, padding=1, rng=rng)
        np.testing.assert_allclose(T.conv2d_forward(x, p), naive_conv2d(x, p), atol=1e-6)

    def test_channel_mismatch_raises(self):
        rng = np.random.default_rng(0)
        p = conv_params(2, 3, 3, rng=rng)
        with pytest.raises(ShapeError):
            T.conv2d_forward(np.zeros((1, 4, 8, 8)), p)

    def test_non_integer_geometry_raises(self):
        rng = np.random.default_rng(0)
        p = conv_params(1, 1, 2, stride=2, rng=rng)
        with pytest.raises(GeometryError):
            T.conv2d_forward(np.zeros((1, 1, 5, 5)), p)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        p = conv_params(3, 2, 3, padding=1, rng=rng, bias=np.zeros(3))
        x, y = rng.normal(size=(2, 2, 2, 6, 6))
        a, b = 1.7, -0.4
        lhs = T.conv2d_forward(a * x + b * y, p)
        rhs = a * T.conv2d_forward(x, p) + b * T.conv2d_forward(y, p)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_zeroed_channel_gives_zero_output(self):
        rng = np.random.default_rng(3)
        p = conv_params(4, 2, 3, padding=1, rng=rng)
        p.weights[2] = 0.0
        p.bias[2] = 0.0
        out = T.conv2d_forward(rng.normal(size=(2, 2, 5, 5)), p)
        assert np.all(out[:, 2] == 0.0)


class TestConvBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 4, 4))
        p = conv_params(3, 2, 3, padding=1, rng=rng)
        gx, gw, gb = T.conv2d_backward(x, p, np.zeros((1, 3, 4, 4)))
        assert not gx.any() and not gw.any() and not gb.any()

    @pytest.mark.parametrize("input_grad", [True, False])
    def test_empty_batch(self, input_grad):
        # an empty batch gives zero gradients, as the forward gives an empty result
        rng = np.random.default_rng(0)
        x = np.zeros((0, 4, 4, 4))
        p = conv_params(3, 4, 3, padding=1, rng=rng)
        g = T.conv2d_forward(x, p)
        assert g.shape == (0, 3, 4, 4)
        gx, gw, gb = T.conv2d_backward(x, p, g, input_grad=input_grad)
        if input_grad:
            assert gx.shape == x.shape
        else:
            assert gx is None
        assert gw.shape == p.weights.shape and not gw.any()
        assert gb.shape == (3,) and not gb.any()

    def test_single_pixel_1x1_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 1, 3, 3))
        p = conv_params(1, 1, 1, rng=rng)
        g = np.zeros((1, 1, 3, 3))
        g[0, 0, 1, 2] = 1.0
        _, gw, gb = T.conv2d_backward(x, p, g)
        assert gw[0, 0, 0, 0] == pytest.approx(x[0, 0, 1, 2])
        assert gb[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("stride,padding", [(1, 1), (1, 0), (2, 1)])
    def test_finite_differences(self, stride, padding):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 2, 5, 5))
        p = conv_params(3, 2, 3, stride=stride, padding=padding, rng=rng)
        g = rng.normal(size=T.conv2d_forward(x, p).shape)

        gx, gw, gb = T.conv2d_backward(x, p, g)
        assert rel_err(gx, numerical_grad(lambda v: np.sum(g * T.conv2d_forward(v, p)), x)) < 1e-4

        def loss_w(w):
            q = ConvParams(p.out_channels, p.in_channels, p.kernel_h, p.kernel_w,
                           p.stride, p.padding, w, p.bias)
            return np.sum(g * T.conv2d_forward(x, q))

        assert rel_err(gw, numerical_grad(loss_w, p.weights.copy())) < 1e-4

        def loss_b(b):
            q = ConvParams(p.out_channels, p.in_channels, p.kernel_h, p.kernel_w,
                           p.stride, p.padding, p.weights, b)
            return np.sum(g * T.conv2d_forward(x, q))

        assert rel_err(gb, numerical_grad(loss_b, p.bias.copy())) < 1e-4

    def test_shape_mismatch_raises(self, monkeypatch):
        rng = np.random.default_rng(0)
        p = conv_params(2, 1, 3, padding=1, rng=rng)
        with pytest.raises(ShapeError):
            T.conv2d_backward(np.zeros((1, 1, 4, 4)), p, np.zeros((1, 2, 3, 3)))
        # an x that does not fit the weights is rejected before any work
        # reaches the helper thread, which every valid call here would use
        monkeypatch.setattr(T, "CHUNK_BYTES", 0)
        monkeypatch.setattr(T, "_side_by_side", None)
        q = conv_params(4, 3, 3, padding=1, rng=rng)
        with pytest.raises(ShapeError):  # 5 input channels for 3
            T.conv2d_backward(np.zeros((1, 5, 6, 6)), q, np.zeros((1, 4, 6, 6)))
        with pytest.raises(ShapeError):  # 3-D x
            T.conv2d_backward(np.zeros((3, 6, 6)), q, np.zeros((1, 4, 6, 6)))


def einsum_conv2d_backward(x, params, grad_out):
    """The per-tap einsum form of conv2d_backward that the matmul form
    replaced; every result of the fast path must equal this one bit for bit."""
    n, _, h, w = x.shape
    s, p = params.stride, params.padding
    oh = (h + 2 * p - params.kernel_h) // s + 1
    ow = (w + 2 * p - params.kernel_w) // s + 1
    x_pad = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    win = sliding_window_view(x_pad, (params.kernel_h, params.kernel_w), axis=(2, 3))
    win = win[:, :, ::s, ::s]
    grad_w = np.einsum("nchwij,nohw->ocij", win, grad_out, optimize=True)
    grad_b = grad_out.sum(axis=(0, 2, 3))
    grad_x_pad = np.zeros_like(x_pad)
    for i in range(params.kernel_h):
        for j in range(params.kernel_w):
            contrib = np.einsum(
                "nohw,oc->nchw", grad_out, params.weights[:, :, i, j], optimize=True
            )
            grad_x_pad[:, :, i : i + s * oh : s, j : j + s * ow : s] += contrib
    grad_x = grad_x_pad[:, :, p:-p, p:-p] if p else grad_x_pad
    return grad_x, grad_w, grad_b


def channel_major(a):
    """Same values, laid out [C, N, H, W] in memory, as a conv output is."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


# (n, c, h, w, o, k, stride, padding)
BITWISE_CONV_SHAPES = {
    "toy_conv1": (32, 3, 8, 8, 8, 3, 1, 1),
    "toy_conv2": (32, 8, 8, 8, 16, 3, 1, 1),
    "toy_conv3": (32, 16, 4, 4, 16, 3, 1, 1),
    "toy_conv4_last_batch": (16, 16, 4, 4, 16, 3, 1, 1),
    "toy_pruned": (32, 5, 4, 4, 3, 3, 1, 1),
    "cifar_32ch_32x32": (4, 32, 32, 32, 32, 3, 1, 1),
    "stride2": (3, 4, 9, 9, 5, 3, 2, 1),
    "padding0": (3, 4, 7, 7, 5, 3, 1, 0),
    "non_square": (2, 3, 6, 10, 4, 3, 1, 1),
    "non_square_stride2": (2, 3, 5, 9, 4, 3, 2, 1),
    "one_in_channel": (4, 1, 6, 6, 3, 3, 1, 1),
    "one_in_channel_non_square": (2, 1, 5, 7, 6, 3, 1, 1),
    "one_out_channel": (4, 5, 6, 6, 1, 3, 1, 1),
    "one_in_one_out": (4, 1, 6, 6, 1, 3, 1, 1),
    "batch1": (1, 4, 6, 6, 5, 3, 1, 1),
    "batch1_one_position": (1, 2, 3, 3, 2, 3, 1, 0),
    "kernel1": (3, 4, 5, 5, 6, 1, 1, 0),
    # 1x1 kernels whose lowering reshapes X as a view, not C-contiguous: a
    # single image, and a channel-major x at stride 2 (after its copy)
    "kernel1_batch1": (1, 6, 7, 9, 10, 1, 1, 0),
    "kernel1_stride2": (3, 24, 7, 9, 40, 1, 2, 0),
    # desk-prune's calls on the toy net: the last training batch of 16
    # images, the 64-image calibration batch, the 100-image test pass, and
    # pruned widths
    "toy_conv2_last_batch": (16, 8, 8, 8, 16, 3, 1, 1),
    "toy_conv1_calibration": (64, 3, 8, 8, 8, 3, 1, 1),
    "toy_conv2_calibration": (64, 8, 8, 8, 16, 3, 1, 1),
    "toy_conv3_calibration": (64, 16, 4, 4, 16, 3, 1, 1),
    "toy_conv1_test_pass": (100, 3, 8, 8, 8, 3, 1, 1),
    "toy_conv2_test_pass": (100, 8, 8, 8, 16, 3, 1, 1),
    "toy_conv3_test_pass": (100, 16, 4, 4, 16, 3, 1, 1),
    "toy_pruned_16_to_5": (32, 16, 4, 4, 5, 3, 1, 1),
    "toy_pruned_5_to_16": (32, 5, 4, 4, 16, 3, 1, 1),
    "toy_one_in_channel": (32, 1, 4, 4, 16, 3, 1, 1),
    "toy_one_out_channel": (32, 16, 4, 4, 1, 3, 1, 1),
    # short rows, but 13*6*6 columns are not whole column tiles: the
    # forward's bits change here if its columns are batch innermost
    "untiled_13x6x6": (13, 8, 6, 6, 16, 3, 1, 1),
}

# the shapes whose input gradient, and whose forward, order the im2col
# columns (oh, ow, n); every other shape keeps the (n, oh, ow) order
BATCH_INNERMOST = {
    "toy_conv1", "toy_conv2", "toy_conv3", "toy_conv4_last_batch", "toy_pruned",
    "one_in_channel", "one_out_channel", "one_in_one_out",
    *(name for name in BITWISE_CONV_SHAPES if name.startswith("toy_")),
}


def backward_case(shape, x_layout=np.asarray, g_layout=np.asarray):
    """Seeded x, conv parameters and output gradient for a
    BITWISE_CONV_SHAPES shape, in the given layouts."""
    n, c, h, w, o, k, stride, padding = shape
    rng = np.random.default_rng(sum(shape))
    x = x_layout(rng.normal(size=(n, c, h, w)))
    p = ConvParams(o, c, k, k, stride, padding, rng.normal(size=(o, c, k, k)), rng.normal(size=o))
    g = g_layout(rng.normal(size=T.conv2d_forward(x, p).shape))
    return x, p, g


def assert_backward_equals_einsum(x, p, g):
    want = einsum_conv2d_backward(x, p, g)
    got = T.conv2d_backward(x, p, g)
    for name, a, b in zip(("grad_x", "grad_w", "grad_b"), got, want):
        assert np.array_equal(a, b), name
    assert got[0].strides == want[0].strides


def count_side_by_side(monkeypatch):
    """Record every call of tensor._side_by_side from now on; returns the
    list of calls."""
    calls, real = [], T._side_by_side
    monkeypatch.setattr(T, "_side_by_side", lambda *args: calls.append(1) or real(*args))
    return calls


# CHUNK_BYTES that force the backward's two halves onto both threads, or
# onto this one, at every shape
HALVES = {"concurrent": 0, "serial": 2**62}


class TestConvBackwardBitwise:
    """conv2d_backward equals the einsum form exactly, with the same grad_x
    strides, for inputs and output gradients in both memory layouts."""

    @pytest.mark.parametrize("shape", BITWISE_CONV_SHAPES.values(), ids=BITWISE_CONV_SHAPES)
    @pytest.mark.parametrize("x_layout", [np.asarray, channel_major], ids=["x_nchw", "x_cnhw"])
    @pytest.mark.parametrize("g_layout", [np.asarray, channel_major], ids=["g_nchw", "g_cnhw"])
    def test_equals_einsum_form(self, shape, x_layout, g_layout):
        assert_backward_equals_einsum(*backward_case(shape, x_layout, g_layout))

    @pytest.mark.parametrize("halves", HALVES)
    @pytest.mark.parametrize("shape", BITWISE_CONV_SHAPES.values(), ids=BITWISE_CONV_SHAPES)
    @pytest.mark.parametrize("x_layout", [np.asarray, channel_major], ids=["x_nchw", "x_cnhw"])
    @pytest.mark.parametrize("g_layout", [np.asarray, channel_major], ids=["g_nchw", "g_cnhw"])
    def test_forced_halves_equal_einsum_form(self, shape, x_layout, g_layout, halves, monkeypatch):
        """The same bits whichever thread computes the weight gradient,
        with the halves forced side by side and forced one after the other
        at every shape (by default the 32-channel 32x32 shape runs them side
        by side and the others one after the other)."""
        case = backward_case(shape, x_layout, g_layout)
        monkeypatch.setattr(T, "CHUNK_BYTES", HALVES[halves])
        calls = count_side_by_side(monkeypatch)
        assert_backward_equals_einsum(*case)
        assert len(calls) == (halves == "concurrent")

    @pytest.mark.parametrize("shape", BITWISE_CONV_SHAPES.values(), ids=BITWISE_CONV_SHAPES)
    def test_no_input_grad(self, shape):
        n, c, h, w, o, k, stride, padding = shape
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=(n, c, h, w))
        p = ConvParams(o, c, k, k, stride, padding, rng.normal(size=(o, c, k, k)), rng.normal(size=o))
        g = rng.normal(size=T.conv2d_forward(x, p).shape)
        _, want_w, want_b = T.conv2d_backward(x, p, g)
        gx, gw, gb = T.conv2d_backward(x, p, g, input_grad=False)
        assert gx is None
        assert np.array_equal(gw, want_w) and np.array_equal(gb, want_b)


def einsum_conv2d_forward(x, params):
    """The einsum form of conv2d_forward that the blocked matmul form
    replaced; at the default bound every result of the fast path must equal
    this one bit for bit."""
    s, p = params.stride, params.padding
    x_pad = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    win = sliding_window_view(x_pad, (params.kernel_h, params.kernel_w), axis=(2, 3))
    out = np.einsum("nchwij,ocij->nohw", win[:, :, ::s, ::s], params.weights, optimize=True)
    return out + params.bias[None, :, None, None]


def channels_last(a):
    """Same values, laid out [N, H, W, C] in memory."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def conv_case(shape):
    """Seeded input and conv parameters for a BITWISE_CONV_SHAPES-style shape."""
    n, c, h, w, o, k, stride, padding = shape
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=(n, c, h, w))
    p = ConvParams(o, c, k, k, stride, padding, rng.normal(size=(o, c, k, k)), rng.normal(size=o))
    return x, p


def cnn_conv_shapes(name, channels, pool_after, batch):
    """The 3x3, padding-1 conv shapes of build_cnn(channels, pool_after,
    (3, 32, 32)) at a batch of `batch` images."""
    shapes, c, hw = {}, 3, 32
    for l, o in enumerate(channels, start=1):
        shapes[f"{name}_conv{l}_n{batch}"] = (batch, c, hw, hw, o, 3, 1, 1)
        c = o
        if l in pool_after:
            hw //= 2
    return shapes


VGG14_CHANNELS = [64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512]
# network shapes, most of them tiled at the default bound: VGG-14 at the
# evolve-vgg calibration batch, the finetune-cifar net (32, 32, 64, 64) at
# its training batch and at evaluate_accuracy's 100 test images, and pruned
# widths and a 30x30 map that pin the balancing, the small-GEMM floor and
# the column-tile rule of _image_blocks (six of them differ from einsum
# under plain k-image blocks)
TILED_CONV_SHAPES = {
    **cnn_conv_shapes("vgg14", VGG14_CHANNELS, {2, 4, 7, 10, 13}, 8),
    **cnn_conv_shapes("cifar", [32, 32, 64, 64], {2, 4}, 32),
    **cnn_conv_shapes("cifar", [32, 32, 64, 64], {2, 4}, 100),
    "pruned_44_to_4_16x16": (32, 44, 16, 16, 4, 3, 1, 1),
    "pruned_71_to_3_16x16": (64, 71, 16, 16, 3, 3, 1, 1),
    "pruned_93_to_10_8x8": (100, 93, 8, 8, 10, 3, 1, 1),
    "pruned_60_to_13_8x8": (32, 60, 8, 8, 13, 3, 1, 1),
    "pruned_51_to_9_12x12": (64, 51, 12, 12, 9, 3, 1, 1),
    "pruned_32_to_2_32x32": (32, 32, 32, 32, 2, 3, 1, 1),
    "pruned_32_to_1_32x32": (32, 32, 32, 32, 1, 3, 1, 1),
    # 900 output positions, not whole column tiles: one block
    "untiled_30x30": (20, 57, 30, 30, 23, 3, 1, 1),
}

# the TILED_CONV_SHAPES whose input gradient orders the im2col columns
# (oh, ow, n): every map narrower than 16; no forward among them does
TILED_GRAD_BATCH_INNERMOST = {
    *(f"vgg14_conv{l}_n8" for l in range(5, 14)),
    "pruned_93_to_10_8x8",
    "pruned_60_to_13_8x8",
    "pruned_51_to_9_12x12",
}

# VGG-14's short-row convs at the CLI's training batch of 32 and at a last
# batch of 16 (convs 7, 10, 12 and 13 repeat the shapes of 6, 9 and 11):
# their input gradients order the columns batch innermost, their forwards
# do not
VGG14_SHORT_ROW_SHAPES = {
    name: shape
    for batch in (32, 16)
    for name, shape in cnn_conv_shapes("vgg14", VGG14_CHANNELS, {2, 4, 7, 10, 13}, batch).items()
    if name.split("_")[1] in {"conv5", "conv6", "conv8", "conv9", "conv11"}
}


class TestConvForwardBitwise:
    """conv2d_forward equals the einsum form exactly, values and strides, at
    the default bound."""

    @pytest.mark.parametrize("shape", BITWISE_CONV_SHAPES.values(), ids=BITWISE_CONV_SHAPES)
    @pytest.mark.parametrize(
        "layout", [np.asarray, channel_major, channels_last], ids=["nchw", "cnhw", "nhwc"]
    )
    def test_equals_einsum_form(self, shape, layout):
        x, p = conv_case(shape)
        x = layout(x)
        got, want = T.conv2d_forward(x, p), einsum_conv2d_forward(x, p)
        assert np.array_equal(got, want) and got.strides == want.strides

    @pytest.mark.parametrize("shape", TILED_CONV_SHAPES.values(), ids=TILED_CONV_SHAPES)
    def test_tiled_shapes_equal_einsum_form(self, shape):
        x, p = conv_case(shape)
        got, want = T.conv2d_forward(x, p), einsum_conv2d_forward(x, p)
        assert np.array_equal(got, want) and got.strides == want.strides


# padded shapes whose F-contiguous x the einsum forms read in F layout: one
# image and one row with a 1x1 kernel, where a padded weight gradient of
# that layout differs from the C-order one in the last bit
F_LAYOUT_SHAPES = {
    **{name: shape for name, shape in BITWISE_CONV_SHAPES.items() if shape[-1] > 0},
    "kernel1_padded_33_to_7": (1, 33, 1, 15, 7, 1, 1, 1),
    "kernel1_padded_17_to_12": (1, 17, 1, 11, 12, 1, 1, 1),
}


class TestInputLayout:
    """A padded x is copied into C order, so an F-contiguous x gives the
    C-contiguous one's bits and strides, forward and backward."""

    @pytest.mark.parametrize("shape", F_LAYOUT_SHAPES.values(), ids=F_LAYOUT_SHAPES)
    def test_f_contiguous_equals_c_contiguous(self, shape):
        x, p, g = backward_case(shape)
        f = np.asfortranarray(x)
        assert f.flags.f_contiguous and not f.flags.c_contiguous
        got, want = T.conv2d_forward(f, p), T.conv2d_forward(x, p)
        assert np.array_equal(got, want) and got.strides == want.strides
        got, want = T.conv2d_backward(f, p, g), T.conv2d_backward(x, p, g)
        for name, a, b in zip(("grad_x", "grad_w", "grad_b"), got, want):
            assert np.array_equal(a, b), name
            assert a.strides == b.strides, name


@st.composite
def conv_geometry(draw):
    """(n, c, h, w, o, k, stride, padding) with maps of at most 12x12 that
    the kernel fits: each output size is drawn from those whose input size
    lies in 1..12."""
    k = draw(st.sampled_from([1, 3, 5]))
    stride, padding = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    sizes = []
    for _ in range(2):
        low = max(1, -((k - 1 - 2 * padding) // stride) + 1)
        out = draw(st.integers(low, (12 - k + 2 * padding) // stride + 1))
        sizes.append((out - 1) * stride + k - 2 * padding)
    n, c, o = draw(st.integers(1, 8)), draw(st.integers(1, 24)), draw(st.integers(1, 24))
    return n, c, *sizes, o, k, stride, padding


def long_axis_strides(a):
    """The strides of a's axes longer than 1, the only ones that address
    memory."""
    return [step for step, size in zip(a.strides, a.shape) if size > 1]


def either_layout(major):
    return channel_major if major else np.asarray


def signed_zero_case(shape, rng, x_layout=np.asarray, g_layout=np.asarray):
    """x, conv parameters and grad_out for a BITWISE_CONV_SHAPES-style shape,
    drawn from rng: a quarter of x's and grad_out's entries are signed zeros,
    and so, every other time, is the whole bias."""
    n, c, h, w, o, k, stride, padding = shape
    x = x_layout(with_signed_zeros(rng.normal(size=(n, c, h, w)), rng))
    bias = rng.normal(size=o) if rng.random() < 0.5 else np.where(rng.random(o) < 0.5, 0.0, -0.0)
    p = ConvParams(o, c, k, k, stride, padding, rng.normal(size=(o, c, k, k)), bias)
    g = g_layout(with_signed_zeros(rng.normal(size=T.conv2d_forward(x, p).shape), rng))
    return x, p, g


def assert_equals_einsum_forms(x, p, g):
    """The forward, grad_x, grad_w and grad_b equal the einsum forms byte
    for byte, and the forward's and grad_x's strides equal theirs on every
    axis longer than 1."""
    got, want = T.conv2d_forward(x, p), einsum_conv2d_forward(x, p)
    assert got.tobytes() == want.tobytes()
    assert long_axis_strides(got) == long_axis_strides(want)
    got, want = T.conv2d_backward(x, p, g), einsum_conv2d_backward(x, p, g)
    for name, a, b in zip(("grad_x", "grad_w", "grad_b"), got, want):
        assert a.tobytes() == b.tobytes(), name
    assert long_axis_strides(got[0]) == long_axis_strides(want[0])


# shapes on which a fuzz of the conv kernels against the einsum forms found
# them apart: windows with a unit axis whose lowering reshapes X as a view
# that is not C-contiguous, a one-row X (c = 1, 1x1 kernel) that it
# multiplies into an NCHW result, and a one-column X (one image, one output
# position) whose signed zeros it multiplies as +0.0
UNIT_AXIS_SHAPES = {
    "one_column_stride2": (6, 1, 7, 5, 8, 5, 2, 0),
    "one_position": (3, 1, 5, 5, 4, 5, 1, 0),
    "one_position_padded": (8, 13, 1, 1, 22, 3, 2, 1),
    "one_row": (4, 1, 9, 5, 17, 1, 2, 0),
    "one_column": (1, 9, 3, 3, 12, 3, 2, 0),
}


class TestConvFuzz:
    """The conv kernels against the einsum forms on drawn geometries, with x
    and grad_out NCHW or channel-major. The one input the module docstring
    excepts, a padded x that is F-contiguous only (a channel-major x of 1x1
    maps), is left out."""

    @given(
        shape=conv_geometry(),
        x_major=st.booleans(),
        g_major=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_einsum_forms(self, shape, x_major, g_major, seed):
        rng = np.random.default_rng(seed)
        x, p, g = signed_zero_case(shape, rng, either_layout(x_major), either_layout(g_major))
        assume(not (p.padding and x.flags.f_contiguous and not x.flags.c_contiguous))
        assert_equals_einsum_forms(x, p, g)

    @pytest.mark.parametrize("shape", UNIT_AXIS_SHAPES.values(), ids=UNIT_AXIS_SHAPES)
    def test_unit_axis_shapes(self, shape):
        for seed in range(10):
            assert_equals_einsum_forms(*signed_zero_case(shape, np.random.default_rng(seed)))


@st.composite
def pool_case(draw):
    """An x with many tied windows, drawn from five values with both signed
    zeros, in either layout, and a grad_out for its output."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 24)),
             2 * draw(st.integers(1, 6)), 2 * draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.array([-1.0, -0.0, 0.0, 1.0, 2.0])
    x = either_layout(draw(st.booleans()))(values[rng.integers(0, 5, size=shape)])
    out_shape = (shape[0], shape[1], shape[2] // 2, shape[3] // 2)
    g = either_layout(draw(st.booleans()))(rng.normal(size=out_shape))
    g[rng.random(out_shape) < 0.2] = -0.0
    return x, g


class TestMaxPoolFuzz:
    @given(case=pool_case())
    @settings(max_examples=100, deadline=None)
    def test_equals_argmax_forms(self, case):
        """maxpool2x2 and its backward equal the argmax forms byte for byte,
        ties and signed zeros included, into a C-contiguous output."""
        x, g = case
        out, winner = T.maxpool2x2(x)
        want, idx = argmax_maxpool2x2(x)
        assert out.tobytes() == want.tobytes() and out.flags.c_contiguous
        assert np.array_equal(winner, idx)
        got_g = T.maxpool2x2_backward(winner, g)
        assert got_g.tobytes() == argmax_maxpool2x2_backward(idx, g).tobytes()


def record_results(monkeypatch, name):
    """Record the result of every call of tensor.<name> from now on;
    returns the list of results."""
    results, real = [], getattr(T, name)
    monkeypatch.setattr(T, name, lambda *args: results.append(real(*args)) or results[-1])
    return results


class TestColumnOrder:
    """Which column order each conv call takes: batch innermost exactly on
    the BATCH_INNERMOST shapes, desk-prune's calls among them."""

    @pytest.mark.parametrize("name", BITWISE_CONV_SHAPES)
    def test_path_of_each_call(self, name, monkeypatch):
        x, p, g = backward_case(BITWISE_CONV_SHAPES[name])
        forward = record_results(monkeypatch, "_batch_innermost_forward")
        T.conv2d_forward(x, p)
        assert forward == [name in BATCH_INNERMOST]
        grad = record_results(monkeypatch, "_batch_innermost_grad")
        T.conv2d_backward(x, p, g)
        assert grad == [name in BATCH_INNERMOST]
        grad.clear()
        T.conv2d_backward(x, p, g, input_grad=False)
        assert grad == []

    @pytest.mark.parametrize("name", TILED_CONV_SHAPES)
    def test_network_shapes(self, name, monkeypatch):
        """VGG-14 and the CIFAR net, at the batches evolve-vgg and
        finetune-cifar run, keep the (n, oh, ow) order in the forward; the
        input gradient's rule holds exactly on TILED_GRAD_BATCH_INNERMOST."""
        x, p = conv_case(TILED_CONV_SHAPES[name])
        forward = record_results(monkeypatch, "_batch_innermost_forward")
        T.conv2d_forward(x, p)
        assert forward == [False]
        oh, ow = T.conv_output_hw(p, *x.shape[2:])
        assert T._batch_innermost_grad(x.shape[0], oh, ow) == (name in TILED_GRAD_BATCH_INNERMOST)

    @pytest.mark.parametrize("shape", VGG14_SHORT_ROW_SHAPES.values(), ids=VGG14_SHORT_ROW_SHAPES)
    @pytest.mark.parametrize("x_layout", [np.asarray, channel_major], ids=["x_nchw", "x_cnhw"])
    @pytest.mark.parametrize("g_layout", [np.asarray, channel_major], ids=["g_nchw", "g_cnhw"])
    def test_vgg14_short_rows_equal_einsum_form(self, shape, x_layout, g_layout, monkeypatch):
        """VGG-14's convs 5-13 as the CLI trains them: the input gradient
        takes the batch-innermost order and the forward does not, and both
        equal their einsum forms bit for bit."""
        x, p, g = backward_case(shape, x_layout, g_layout)
        forward = record_results(monkeypatch, "_batch_innermost_forward")
        got, want = T.conv2d_forward(x, p), einsum_conv2d_forward(x, p)
        assert np.array_equal(got, want) and got.strides == want.strides
        grad = record_results(monkeypatch, "_batch_innermost_grad")
        assert_backward_equals_einsum(x, p, g)
        assert forward == [False] and grad == [True]

    def test_toy_finetune_takes_batch_innermost_columns(self, monkeypatch, toy_dataset):
        """Every conv call of a toy-network fine-tune, the last short batch
        included, orders its columns batch innermost, and so does every
        input gradient; the first conv's backward has none."""
        forward = record_results(monkeypatch, "_batch_innermost_forward")
        grad = record_results(monkeypatch, "_batch_innermost_grad")
        backward, real = [], T.conv2d_backward

        def recorded(x, p, g, input_grad=True):
            grad.clear()
            result = real(x, p, g, input_grad)
            backward.append((input_grad, list(grad)))
            return result

        monkeypatch.setattr(T, "conv2d_backward", recorded)
        cfg = FineTuneConfig(lr=0.01, epochs=1, milestones=(), batch_size=32, seed=1)
        finetune(build_toy_cnn(seed=1), toy_dataset, cfg)
        steps = -(-toy_dataset.train_images.shape[0] // 32)
        assert forward == [True] * 4 * steps
        assert [input_grad for input_grad, _ in backward] == [True, True, True, False] * steps
        assert all(rule == ([True] if input_grad else []) for input_grad, rule in backward)


class TestConvForwardTiling:
    @pytest.mark.parametrize("shape", BITWISE_CONV_SHAPES.values(), ids=BITWISE_CONV_SHAPES)
    @pytest.mark.parametrize("k", [1, 3])
    def test_each_block_is_einsum_of_its_images(self, shape, k, monkeypatch):
        """Forced k-image blocks: each block's rows equal the einsum form on
        that block's images alone. Not the unblocked einsum: split this
        finely, tiny shapes (non_square, padding0, stride2) differ from it
        in the last bit, and the default blocks never split them."""
        x, p = conv_case(shape)
        n = x.shape[0]
        blocks = [min(k, n - start) for start in range(0, n, k)]
        monkeypatch.setattr(T, "_image_blocks", lambda *args: blocks)
        calls = count_side_by_side(monkeypatch)
        got = T.conv2d_forward(channel_major(x), p)
        # two or more blocks are split between the helper and this thread
        assert len(calls) == (len(blocks) > 1)
        for start in range(0, n, k):
            want = einsum_conv2d_forward(x[start : start + k], p)
            assert np.array_equal(got[start : start + k], want)

    def test_peak_memory_is_bounded(self):
        """No full-batch im2col operand and no padded copy of the batch: the
        peak is the result, and on each of the two threads one block's X
        and padded images, and slack. The einsum form peaks at about
        89 MiB here, this at about 13 MiB; a padded copy of the whole batch
        is 9.5 MB."""
        x, p = conv_case((32, 32, 32, 32, 32, 3, 1, 1))
        tracemalloc.start()
        try:
            T.conv2d_forward(x, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one padded image (the blocks are one image each) and the result
        padded, out = 32 * 34 * 34 * 8, 32 * 32 * 32 * 32 * 8
        assert peak < out + 2 * (T.CHUNK_BYTES + padded) + 2**20

    def test_channel_major_result_is_the_gemm_output(self):
        """In the (n, oh, ow) order the bias goes into the GEMM result in
        place: finetune-cifar's conv 2 at its training batch allocates one
        output-sized array, not two. Its peak is the result and, on each of
        the two threads, one block's X and padded image (a block is one
        image here); a fresh bias-added copy would add 8.4 MB."""
        x, p = conv_case(TILED_CONV_SHAPES["cifar_conv2_n32"])
        tracemalloc.start()
        try:
            got = T.conv2d_forward(x, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        padded, cols, out = 32 * 34 * 34 * 8, 288 * 32 * 32 * 8, 32 * 32 * 32 * 32 * 8
        assert peak < out + 2 * (cols + padded) + 2**20
        want = einsum_conv2d_forward(x, p)
        assert np.array_equal(got, want) and got.strides == want.strides

    def test_batch_innermost_peak_memory_is_bounded(self):
        """The toy net's conv 2 at a training batch, one block with its
        columns batch innermost: the peak is that block's padded images
        (the whole batch), X and the GEMM result; the bias-added result is
        made after X is freed."""
        x, p = conv_case(BITWISE_CONV_SHAPES["toy_conv2"])
        tracemalloc.start()
        try:
            T.conv2d_forward(x, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        padded, cols, out = 32 * 8 * 10 * 10 * 8, 72 * 32 * 8 * 8 * 8, 16 * 32 * 8 * 8 * 8
        assert peak < padded + cols + out + 2**16


class TestConvInputGradTiling:
    @pytest.mark.parametrize("shape", BITWISE_CONV_SHAPES.values(), ids=BITWISE_CONV_SHAPES)
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("g_layout", [np.asarray, channel_major], ids=["g_nchw", "g_cnhw"])
    def test_each_block_is_einsum_of_its_images(self, shape, k, g_layout, monkeypatch):
        """Forced k-image input-gradient blocks, with the (n, oh, ow) column
        order forced at every shape: each block's rows of the x gradient
        equal the einsum form on that block's images alone, and the x
        gradient has the einsum form's strides. The weight and bias
        gradients equal the unblocked einsum form."""
        x, p, g = backward_case(shape, channel_major, g_layout)
        n = x.shape[0]
        blocks = [min(k, n - start) for start in range(0, n, k)]
        calls = []
        monkeypatch.setattr(T, "_batch_innermost_grad", lambda *args: False)
        monkeypatch.setattr(T, "_image_blocks", lambda *args: calls.append(1) or blocks)
        got, want = T.conv2d_backward(x, p, g), einsum_conv2d_backward(x, p, g)
        assert calls == [1]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
        assert got[0].strides == want[0].strides
        for start in range(0, n, k):
            part = einsum_conv2d_backward(x[start : start + k], p, g[start : start + k])
            assert np.array_equal(got[0][start : start + k], part[0])

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_cifar_training_call_equals_einsum_form(self, cpus, monkeypatch):
        """finetune-cifar's conv 2 backward at its training batch of 32
        splits its input gradient into several blocks by default, and every
        result equals the unblocked einsum form, with the backward's halves
        run in turn (one CPU) and side by side (two)."""
        x, p, g = backward_case(TILED_CONV_SHAPES["cifar_conv2_n32"], channel_major)
        blocks = record_results(monkeypatch, "_image_blocks")
        monkeypatch.setattr(T, "_cpu_count", lambda: cpus)
        assert_backward_equals_einsum(x, p, g)
        assert len(blocks) == 1 and len(blocks[0]) > 1

    def test_peak_memory_is_bounded(self, monkeypatch):
        """finetune-cifar's conv 2 backward on one CPU, where the input
        gradient runs after the weight gradient has freed its X: from the
        moment it picks its blocks, it adds the padded x gradient and one
        block's tap and acc (at most CHUNK_BYTES) to what the call holds. A
        full-batch tap and acc would add 17.9 MB instead of 3.9 MB."""
        x, p, g = backward_case(TILED_CONV_SHAPES["cifar_conv2_n32"], channel_major)
        monkeypatch.setattr(T, "_cpu_count", lambda: 1)
        held, real = [], T._image_blocks

        def blocks_from_here(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return real(*args)

        monkeypatch.setattr(T, "_image_blocks", blocks_from_here)
        tracemalloc.start()
        try:
            T.conv2d_backward(x, p, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grad_x_pad = 32 * 32 * 34 * 34 * 8
        assert len(held) == 1
        assert peak - held[0] < grad_x_pad + T.CHUNK_BYTES + 2**16


def rule_conditions(shape):
    """Whether a shape's tap GEMMs take the kernel that its full-X GEMM
    takes: c is whole column tiles and each tap's GEMM is above the
    small-matrix size."""
    n, c, h, w, o, k, stride, padding = shape
    oh, ow = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    return c % T._COLUMN_TILE == 0 and o * c * n * oh * ow > T._SMALL_GEMM


# VGG-14's convs 2, 9 and 13 at the CLI's training batch of 32
VGG14_N32_SHAPES = {
    name: shape
    for name, shape in cnn_conv_shapes("vgg14", VGG14_CHANNELS, {2, 4, 7, 10, 13}, 32).items()
    if name.split("_")[1] in {"conv2", "conv9", "conv13"}
}
# the shapes whose two weight-gradient forms must agree bit for bit; the
# others (toy shapes, pruned widths that are not whole column tiles) differ
# in the last bit when the per-tap form is forced, and the rule keeps them
# on the full X
EXACT_TAP_SHAPES = {
    name: shape
    for name, shape in {**BITWISE_CONV_SHAPES, **TILED_CONV_SHAPES, **VGG14_N32_SHAPES}.items()
    if rule_conditions(shape)
}


def forced_weight_grad(case, per_tap, monkeypatch):
    monkeypatch.setattr(T, "_per_tap_weight_grad", lambda *args: per_tap)
    return T.conv2d_backward(*case, input_grad=False)[1]


class TestConvWeightGradTaps:
    @pytest.mark.parametrize("shape", EXACT_TAP_SHAPES.values(), ids=EXACT_TAP_SHAPES)
    def test_forced_forms_are_bitwise(self, shape, monkeypatch):
        """The per-tap and the full-X weight gradient, each forced, agree in
        bytes and strides wherever the tap GEMMs take the full GEMM's kernel."""
        case = backward_case(shape, channel_major, channel_major)
        per_tap = forced_weight_grad(case, True, monkeypatch)
        full = forced_weight_grad(case, False, monkeypatch)
        assert per_tap.tobytes() == full.tobytes() and per_tap.strides == full.strides

    def test_exact_shapes_cover_the_networks(self):
        assert {"cifar_32ch_32x32", "vgg14_conv2_n32", "vgg14_conv9_n32", "vgg14_conv13_n32",
                "cifar_conv2_n32", "cifar_conv4_n100"} <= EXACT_TAP_SHAPES.keys()

    @pytest.mark.parametrize(
        "shapes", [BITWISE_CONV_SHAPES, TILED_CONV_SHAPES, VGG14_N32_SHAPES],
        ids=["bitwise", "tiled", "vgg14_n32"],
    )
    def test_rule_takes_taps_only_where_they_are_exact(self, shapes, monkeypatch):
        picks = record_results(monkeypatch, "_per_tap_weight_grad")
        for name, shape in shapes.items():
            x, p = conv_case(shape)
            n, c, h, w, o, k, stride, padding = shape
            oh, ow = T.conv_output_hw(p, h, w)
            picks.clear()
            T.conv2d_backward(x, p, np.zeros((n, o, oh, ow)), input_grad=False)
            assert len(picks) == 1
            assert not picks[0] or name in EXACT_TAP_SHAPES, name

    @pytest.mark.parametrize("batch", [32, 16, 100])
    def test_rule_at_the_network_convs(self, batch):
        """The CIFAR net's conv 1 (3 channels) keeps the full X and its
        convs 2-4 take the taps; every toy-network conv keeps the full X."""
        cifar = cnn_conv_shapes("cifar", [32, 32, 64, 64], {2, 4}, batch)
        toy = {
            f"toy_conv{l}": (batch, c, hw, hw, o, 3, 1, 1)
            for l, (c, o, hw) in enumerate([(3, 8, 8), (8, 16, 8), (16, 16, 4), (16, 16, 4)], 1)
        }
        for shapes, want in ((cifar, [False, True, True, True]), (toy, [False] * 4)):
            # 3x3 kernels at stride 1 and padding 1 keep the map's size
            picks = [
                T._per_tap_weight_grad(n, c, o, h * w, 9) for n, c, h, w, o, *_ in shapes.values()
            ]
            assert picks == want

    def test_peak_memory_is_bounded(self, monkeypatch):
        """finetune-cifar's conv 2 at its training batch: from the moment it
        picks its form, the weight gradient adds the channel-last padded x,
        one tap's columns and grad_w to what the call holds (18 MB). The
        NCHW padded x and the full X, which the same call took before, add
        90 MB and break the bound."""
        case = backward_case(TILED_CONV_SHAPES["cifar_conv2_n32"], channel_major)
        n, c, h, w, o, k, stride, padding = TILED_CONV_SHAPES["cifar_conv2_n32"]
        held, real = [], T._per_tap_weight_grad

        def picked_from_here(per_tap):
            def rule(*args):
                held.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
                return real(*args) if per_tap is None else per_tap
            return rule

        peaks = {}
        for form, per_tap in (("default", None), ("full_x", False)):
            monkeypatch.setattr(T, "_per_tap_weight_grad", picked_from_here(per_tap))
            held.clear()
            tracemalloc.start()
            try:
                T.conv2d_backward(*case, input_grad=False)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(held) == 1
            peaks[form] = peak - held[0]
        bound = 8 * n * c * ((h + 2) * (w + 2) + h * w) + 8 * o * c * k * k + 2**16
        assert peaks["default"] < bound < peaks["full_x"]


class TestHelperThread:
    # each weight-gradient form, with a call that only its work makes here:
    # _windows in the per-tap form, and in the full-X form the product that
    # _contraction makes for it (_im2col_index runs on this thread)
    @pytest.mark.parametrize("per_tap", [True, False], ids=["per_tap", "full_x"])
    def test_helper_error_is_raised_and_the_next_call_works(self, per_tap, monkeypatch):
        """A fault inside the helper half, in either form of the weight
        gradient, is raised to the caller, and the next call is exact."""
        x, p, g = backward_case(BITWISE_CONV_SHAPES["cifar_32ch_32x32"])
        threads = []

        def broken(*args, **kwargs):
            threads.append(threading.current_thread())
            raise RuntimeError("weight gradient failed")

        with monkeypatch.context() as m:
            m.setattr(T, "_per_tap_weight_grad", lambda *args: per_tap)
            if per_tap:
                m.setattr(T, "_windows", broken)
            else:
                m.setattr(T, "_contraction", lambda a: broken)
            with pytest.raises(RuntimeError, match="weight gradient failed"):
                T.conv2d_backward(x, p, g)
        assert threads and threads[0] is not threading.main_thread()
        assert_backward_equals_einsum(x, p, g)

    def test_returns_or_raises_only_after_the_helper_half(self):
        done = []

        def slow():
            time.sleep(0.05)
            done.append(1)

        def failing():
            raise ValueError("inline half failed")

        with pytest.raises(ValueError, match="inline half failed"):
            T._side_by_side(lambda: slow, lambda: failing)
        assert done == [1]
        assert T._side_by_side(lambda: lambda: 1, lambda: lambda: 2) == (1, 2)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_its_own_helper(self):
        """A child forked after the helper thread started still finishes a
        split backward, with the parent's bits."""
        x, p, g = backward_case(BITWISE_CONV_SHAPES["cifar_32ch_32x32"])
        want = T.conv2d_backward(x, p, g)  # the helper thread is running now
        pid = os.fork()
        if pid == 0:  # the child reports through its exit code only
            code = 1
            try:
                got = T.conv2d_backward(x, p, g)
                code = 0 if all(np.array_equal(a, b) for a, b in zip(got, want)) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                assert os.waitstatus_to_exitcode(status) == 0
                return
            time.sleep(0.05)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's backward did not finish")

    def test_one_cpu_runs_both_halves_here(self, monkeypatch):
        x, p, g = backward_case(BITWISE_CONV_SHAPES["cifar_32ch_32x32"])
        monkeypatch.setattr(T, "_cpu_count", lambda: 1)
        monkeypatch.setattr(T, "_HELPER", NoHelper())
        calls = count_side_by_side(monkeypatch)
        assert_backward_equals_einsum(x, p, g)
        got, want = T.conv2d_forward(x, p), einsum_conv2d_forward(x, p)
        assert np.array_equal(got, want) and got.strides == want.strides
        assert len(calls) == 2  # both calls split, on this thread alone

    def test_toy_finetune_hands_nothing_to_the_helper(self, monkeypatch, toy_dataset):
        monkeypatch.setattr(T, "_HELPER", NoHelper())
        cfg = FineTuneConfig(lr=0.01, epochs=1, milestones=(), batch_size=32, seed=1)
        finetune(build_toy_cnn(seed=1), toy_dataset, cfg)

    def test_concurrent_callers_get_their_own_results(self, monkeypatch):
        """More callers than cores share the one helper thread, every call
        split, with a short switch interval: each caller still gets the
        bits a lone call gives."""
        monkeypatch.setattr(T, "CHUNK_BYTES", 0)
        cases = [
            backward_case(BITWISE_CONV_SHAPES[name])
            for name in ("toy_conv2", "stride2", "non_square", "one_in_channel")
        ]
        lone = [(T.conv2d_forward(x, p), T.conv2d_backward(x, p, g)) for x, p, g in cases]
        failures = []

        def caller(case, want):
            x, p, g = case
            try:
                for _ in range(20):
                    got = (T.conv2d_forward(x, p), T.conv2d_backward(x, p, g))
                    flat_got, flat_want = [got[0], *got[1]], [want[0], *want[1]]
                    if not all(np.array_equal(a, b) for a, b in zip(flat_got, flat_want)):
                        failures.append("results differ")
            except Exception as e:  # reported below, with the caller's error
                failures.append(repr(e))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller, args=cw) for cw in zip(cases, lone)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert failures == []


# what a helper half may add to the traced memory: views and Python
# objects, no array
HELPER_BYTES = 2**16


class TestHelperAllocatesNothing:
    """The calling thread makes every buffer that a helper half writes, so
    the helper thread's malloc arena holds no array: each half adds at most
    HELPER_BYTES."""

    @pytest.fixture
    def helper(self, monkeypatch):
        helper = MeasuringHelper()
        monkeypatch.setattr(T, "_HELPER", helper)
        return helper

    def test_split_forward(self, helper):
        """finetune-cifar's conv 2 at its training batch: each half's X is
        2.4 MB and its padded image 0.3 MB."""
        x, p = conv_case(TILED_CONV_SHAPES["cifar_conv2_n32"])
        T.conv2d_forward(x, p)
        assert len(helper.peaks) == 1 and helper.peaks[0] < HELPER_BYTES

    # c = 32 takes the per-tap weight gradient, c = 24 the full X
    @pytest.mark.parametrize("c, per_tap", [(32, True), (24, False)], ids=["per_tap", "full_x"])
    def test_split_backward(self, c, per_tap, helper, monkeypatch):
        x, p, g = backward_case((4, c, 16, 16, 32, 3, 1, 1), channel_major)
        monkeypatch.setattr(T, "CHUNK_BYTES", 2**20)  # below X's 1.8 and 2.4 MB
        picks = record_results(monkeypatch, "_per_tap_weight_grad")
        T.conv2d_backward(x, p, g)
        assert picks == [per_tap]
        assert len(helper.peaks) == 1 and helper.peaks[0] < HELPER_BYTES

    @pytest.mark.parametrize("shape", BITWISE_CONV_SHAPES.values(), ids=BITWISE_CONV_SHAPES)
    def test_every_split_shape(self, shape, helper, monkeypatch):
        """Every backward split, and every forward of two or more blocks,
        the lowering's own X and one-column products (1x1 kernels, one image
        or channel, one output position) included."""
        x, p, g = backward_case(shape, channel_major)
        monkeypatch.setattr(T, "CHUNK_BYTES", 0)
        T.conv2d_forward(x, p)
        T.conv2d_backward(x, p, g)
        assert helper.peaks and max(helper.peaks) < HELPER_BYTES

    def test_paired_gram_build(self, helper, monkeypatch):
        monkeypatch.setattr(T, "CHUNK_BYTES", 4096)  # 48 chunks
        sub = extract_subnetwork(build_toy_cnn(seed=3), 1)
        EvaluationContext.build(sub, np.random.default_rng(1).normal(size=(6, 3, 8, 8)))
        assert len(helper.peaks) == 24 and max(helper.peaks) < HELPER_BYTES


def overflow_on_the_helper(call, monkeypatch):
    """x, params and grad_out of a toy_conv2 call that splits, scaled so
    that a product overflows only on the helper thread: in image 0, the
    first block of the forward's first half, and in the backward's weight
    gradient. All values are non-negative, so every overflow is +inf."""
    x, p, g = backward_case(BITWISE_CONV_SHAPES["toy_conv2"])
    x, g = abs(x), abs(g)
    p.weights[...] = abs(p.weights)
    monkeypatch.setattr(T, "CHUNK_BYTES", 0)
    if call == "forward":
        x[0] *= 1e200
        p.weights[...] *= 1e200
    else:
        x *= 1e200
        g *= 1e200
    return x, p, g


class TestHelperUnderCallersErrorState:
    """np.errstate is a context variable, which a new thread does not
    inherit: the helper's half of a split call runs in a copy of the
    caller's context, so it ignores or raises as the caller asked."""

    @pytest.mark.parametrize("call", ["forward", "backward"])
    def test_ignore_emits_no_warning(self, call, monkeypatch):
        x, p, g = overflow_on_the_helper(call, monkeypatch)
        calls = count_side_by_side(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                if call == "forward":
                    y = T.conv2d_forward(x, p)
                    assert np.isinf(y[0]).all() and np.isfinite(y[1:]).all()
                else:
                    gx, gw, gb = T.conv2d_backward(x, p, g)
                    assert np.isinf(gw).all() and np.isfinite(gx).all()
                    assert np.isfinite(gb).all()
        assert len(calls) == 1

    @pytest.mark.parametrize("call", ["forward", "backward"])
    def test_raise_raises_from_the_helper(self, call, monkeypatch):
        x, p, g = overflow_on_the_helper(call, monkeypatch)
        calls = count_side_by_side(monkeypatch)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            if call == "forward":
                T.conv2d_forward(x, p)
            else:
                T.conv2d_backward(x, p, g)
        assert len(calls) == 1


class TestForwardBlocks:
    # (n, span, weights as [o, c*kh*kw]) -> block sizes
    CASES = {
        # VGG-14 conv 9 at batch 32: 0.6 MB per image, k = 7 images, however
        # large the weights
        "wide_layer_one_block": ((32, 16, (512, 4608)), [7, 7, 6, 6, 6]),
        # 2.4 MB per image against the 4 MiB chunk: one image per block
        "cifar_32ch_32x32": ((32, 1024, (32, 288)), [1] * 32),
        # k = 7 images: five near-equal blocks, not 4 x 7 + 4
        "balanced": ((32, 256, (64, 288)), [7, 7, 6, 6, 6]),
        # one image is a GEMM of 589,824 multiply-adds: two per block
        "small_gemm_floor": ((32, 1024, (2, 288)), [2] * 16),
        # 30x30 outputs are not whole column tiles: never split
        "span_not_tiled": ((32, 900, (32, 288)), [32]),
        "empty_batch": ((0, 1024, (32, 288)), [0]),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES)
    def test_block_sizes(self, case):
        (n, span, w_shape), want = case
        assert T._image_blocks(n, span, np.zeros(w_shape), 8 * w_shape[1] * span) == want

    @given(
        n=st.integers(1, 300),
        c=st.integers(1, 600),
        hw=st.sampled_from([2, 4, 8, 16, 32]),
        o=st.integers(1, 600),
    )
    @settings(max_examples=200, deadline=None)
    def test_blocks_cover_the_batch(self, n, c, hw, o):
        """Near-equal blocks, largest first, covering all n images: each
        within k images of the bound, or under twice the small-GEMM floor
        k_min where that binds, and none below k_min unless it is the only
        block."""
        rows, span = 9 * c, hw * hw
        w = np.zeros((o, rows))
        blocks = T._image_blocks(n, span, w, 8 * rows * span)
        assert sum(blocks) == n and blocks == sorted(blocks, reverse=True)
        assert blocks[0] - blocks[-1] <= 1
        k = max(1, T.CHUNK_BYTES // (8 * rows * span))
        k_min = T._SMALL_GEMM // (o * rows * span) + 1
        assert blocks[0] <= max(k, 2 * k_min - 1) or len(blocks) == 1
        assert len(blocks) == 1 or blocks[-1] >= k_min


class TestRelu:
    def test_examples(self):
        np.testing.assert_array_equal(
            T.relu(np.array([-1.0, 0.0, 2.0])), np.array([0.0, 0.0, 2.0])
        )

    @given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-10, 10)))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, x):
        np.testing.assert_array_equal(T.relu(T.relu(x)), T.relu(x))

    def test_backward_finite_differences_away_from_zero(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 4))
        x[np.abs(x) < 0.1] += 0.2  # keep away from the kink
        g = rng.normal(size=(4, 4))
        got = T.relu_backward(x, g)
        num = numerical_grad(lambda v: np.sum(g * T.relu(v)), x.copy())
        assert rel_err(got, num) < 1e-4

    def test_tie_at_zero_gets_zero_gradient(self):
        x = np.array([0.0, 1.0, -1.0])
        g = np.ones(3)
        np.testing.assert_array_equal(T.relu_backward(x, g), [0.0, 1.0, 0.0])

    def test_mask_in_place_of_x_is_bitwise(self):
        """A relu layer's backward on the bool mask x > 0 that its forward
        keeps equals relu_backward on x, bit for bit and stride for stride,
        with signed zeros, NaNs and infinities in x and g, in the layouts of
        a training step: x a channel-major conv output, g an NCHW view of the
        next conv's padded x gradient."""
        rng = np.random.default_rng(5)
        special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
        x = rng.normal(size=(4, 3, 6, 6))
        g_pad = rng.normal(size=(4, 3, 8, 8))
        for a in (x, g_pad):
            a.flat[rng.choice(a.size, 100, replace=False)] = np.resize(special, 100)
        x, g = channel_major(x), g_pad[:, :, 1:-1, 1:-1]
        with np.errstate(invalid="ignore"):  # an infinite g times 0
            want, (got, _) = T.relu_backward(x, g), ReluLayer().backward(x > 0, g)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got.strides == want.strides


class TestMaxPool:
    def test_window_maximum(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out, _ = T.maxpool2x2(x)
        assert out[0, 0, 0, 0] == 4.0

    def test_constant_input_routes_to_top_left(self):
        x = np.ones((1, 1, 4, 4))
        out, winner = T.maxpool2x2(x)
        assert np.all(out == 1.0)
        gx = T.maxpool2x2_backward(winner, np.ones((1, 1, 2, 2)))
        expect = np.zeros((1, 1, 4, 4))
        expect[0, 0, ::2, ::2] = 1.0
        np.testing.assert_array_equal(gx, expect)

    def test_matches_window_scan_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 4, 4))
        out, _ = T.maxpool2x2(x)
        for c in range(2):
            for i in range(2):
                for j in range(2):
                    window = x[0, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                    assert out[0, c, i, j] == window.max()

    def test_odd_dims_raise(self):
        with pytest.raises(GeometryError):
            T.maxpool2x2(np.zeros((1, 1, 3, 4)))

    def test_backward_routes_to_argmax(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 6, 6))
        _, winner = T.maxpool2x2(x)
        g = rng.normal(size=(2, 3, 3, 3))
        gx = T.maxpool2x2_backward(winner, g)
        # each window's gradient lands entirely on its maximum
        for b in range(2):
            for c in range(3):
                for i in range(3):
                    for j in range(3):
                        win_x = x[b, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                        win_g = gx[b, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                        flat = win_g.ravel()
                        k = win_x.ravel().argmax()
                        assert flat[k] == g[b, c, i, j]
                        assert np.all(np.delete(flat, k) == 0.0)


def argmax_maxpool2x2(x):
    """The reshape + argmax form of maxpool2x2 that the quadrant form
    replaced: (output, per-window winner 0..3)."""
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)
    return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0], idx


def argmax_maxpool2x2_backward(idx, grad_out):
    n, c, h2, w2 = idx.shape
    g = np.zeros((n, c, h2, w2, 4))
    np.put_along_axis(g, idx[..., None], grad_out[..., None], axis=-1)
    return g.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, 2 * h2, 2 * w2)


class TestMaxPoolBitwise:
    """maxpool2x2 and its backward equal the argmax form bit for bit."""

    @pytest.mark.parametrize("subset", range(1, 16))
    def test_tie_routes_to_first_in_row_major_order(self, subset):
        # the window's maximum sits at every slot whose bit is set in subset
        slots = [k for k in range(4) if subset >> k & 1]
        x = np.where([subset >> k & 1 for k in range(4)], 2.0, -1.0).reshape(1, 1, 2, 2)
        out, winner = T.maxpool2x2(x)
        assert out[0, 0, 0, 0] == 2.0
        assert winner[0, 0, 0, 0] == slots[0]
        gx = T.maxpool2x2_backward(winner, np.full((1, 1, 1, 1), 3.0))
        expect = np.zeros(4)
        expect[slots[0]] = 3.0
        np.testing.assert_array_equal(gx.ravel(), expect)

    def test_signed_zero_ties_match_argmax_bitwise(self):
        # every window over {-0.0, +0.0, -1.0, 1.0}, one window per channel
        vals = np.array([-0.0, 0.0, -1.0, 1.0])
        grid = np.stack(np.meshgrid(*[np.arange(4)] * 4, indexing="ij"), -1).reshape(-1, 4)
        x = vals[grid].reshape(1, -1, 2, 2)
        out, winner = T.maxpool2x2(x)
        want, idx = argmax_maxpool2x2(x)
        assert np.array_equal(out, want)
        assert np.array_equal(np.signbit(out), np.signbit(want))
        assert np.array_equal(winner, idx)
        g = np.where(np.arange(x.shape[1]) % 2, -0.0, -1.5).reshape(out.shape)
        got_g = T.maxpool2x2_backward(winner, g)
        want_g = argmax_maxpool2x2_backward(idx, g)
        assert np.array_equal(got_g, want_g)
        assert np.array_equal(np.signbit(got_g), np.signbit(want_g))

    @pytest.mark.parametrize("shape", [(32, 16, 8, 8), (4, 32, 32, 32), (1, 1, 2, 2), (3, 5, 6, 10)])
    @pytest.mark.parametrize("layout", [np.asarray, channel_major], ids=["nchw", "cnhw"])
    def test_equals_argmax_form(self, shape, layout):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape)
        x[x < 0] = 0.0  # relu output: many all-zero ties
        x = layout(x)
        out, winner = T.maxpool2x2(x)
        want, idx = argmax_maxpool2x2(x)
        assert np.array_equal(out, want) and out.strides == want.strides
        assert out.flags.c_contiguous
        assert np.array_equal(winner, idx)
        g = layout(rng.normal(size=out.shape))
        got_g = T.maxpool2x2_backward(winner, g)
        want_g = argmax_maxpool2x2_backward(idx, g)
        assert np.array_equal(got_g, want_g) and got_g.strides == want_g.strides


class TestDense:
    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = T.dense_forward(x, np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(out, x)

    def test_zero_weights_broadcast_bias(self):
        b = np.array([1.0, -2.0])
        out = T.dense_forward(np.ones((3, 4)), np.zeros((4, 2)), b)
        np.testing.assert_array_equal(out, np.tile(b, (3, 1)))

    def test_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        g = rng.normal(size=(3, 2))
        gx, gw, gb = T.dense_backward(x, w, g)
        assert rel_err(gx, numerical_grad(lambda v: np.sum(g * T.dense_forward(v, w, b)), x.copy())) < 1e-4
        assert rel_err(gw, numerical_grad(lambda v: np.sum(g * T.dense_forward(x, v, b)), w.copy())) < 1e-4
        assert rel_err(gb, numerical_grad(lambda v: np.sum(g * T.dense_forward(x, w, v)), b.copy())) < 1e-4

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.dense_forward(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = T.softmax_cross_entropy(np.zeros((4, 10)), np.array([0, 3, 5, 9]))
        assert loss == pytest.approx(np.log(10.0), rel=1e-12)

    def test_huge_margin(self):
        logits = np.full((2, 5), -100.0)
        logits[0, 1] = 100.0
        logits[1, 4] = 100.0
        loss, _ = T.softmax_cross_entropy(logits, np.array([1, 4]))
        assert loss < 1e-12

    def test_finite_differences(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(4, 6))
        labels = np.array([0, 5, 2, 2])
        _, grad = T.softmax_cross_entropy(logits, labels)
        num = numerical_grad(lambda v: T.softmax_cross_entropy(v, labels)[0], logits.copy())
        assert rel_err(grad, num) < 1e-4

    def test_out_of_range_label_raises(self):
        with pytest.raises(LabelError):
            T.softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))


def new_list_sgd_update(params, grads, lr, momentum, velocity):
    """The new-list form of momentum SGD that the in-place sgd_update
    replaced, kept as its oracle: (new params, new velocity)."""
    new_v = [momentum * v + g for v, g in zip(velocity, grads)]
    new_p = [p - lr * v for p, v in zip(params, new_v)]
    return new_p, new_v


def with_signed_zeros(a, rng):
    """`a` with a random quarter of its entries set to +0.0 or -0.0."""
    a = a.copy()
    zero = rng.random(a.shape) < 0.25
    a[zero] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[zero]
    return a


class TestSgd:
    def test_plain_step(self):
        p = [np.zeros(1)]
        assert T.sgd_update(p, [np.ones(1)], 0.01, 0.0, [np.zeros(1)]) is None
        assert p[0][0] == pytest.approx(-0.01)

    def test_zero_gradient_no_change(self):
        p = [np.full(3, 2.0)]
        T.sgd_update(p, [np.zeros(3)], 0.1, 0.9, [np.zeros(3)])
        np.testing.assert_array_equal(p[0], np.full(3, 2.0))

    def test_momentum_recurrence(self):
        lr = 0.1
        p, v = [np.zeros(1)], [np.zeros(1)]
        for _ in range(2):
            T.sgd_update(p, [np.ones(1)], lr, 0.9, v)
        assert p[0][0] == pytest.approx(-lr * (1 + 1.9))

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_in_place_steps_equal_new_list_form(self, momentum):
        rng = np.random.default_rng(5)
        shapes = [(4, 3, 3, 3), (4,), (16, 10)]
        params = [with_signed_zeros(rng.normal(size=s), rng) for s in shapes]
        velocity = [with_signed_zeros(np.zeros(s), rng) for s in shapes]
        want_p = [a.copy() for a in params]
        want_v = [a.copy() for a in velocity]
        arrays = params + velocity
        for _ in range(6):
            grads = [with_signed_zeros(rng.normal(size=s), rng) for s in shapes]
            T.sgd_update(params, grads, 0.05, momentum, velocity)
            want_p, want_v = new_list_sgd_update(want_p, grads, 0.05, momentum, want_v)
            assert all(a is b for a, b in zip(params + velocity, arrays))
            for got, want in zip(params + velocity, want_p + want_v):
                assert got.tobytes() == want.tobytes()  # bit for bit, signs of zeros too


class TestNorms:
    def test_three_four_five(self):
        assert T.frobenius_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)

    @given(hnp.arrays(np.float64, (5,), elements=st.floats(-100, 100)))
    @settings(max_examples=30, deadline=None)
    def test_inner_product_consistent_with_norm(self, x):
        assert T.inner_product(x, x) == pytest.approx(T.frobenius_norm(x) ** 2, abs=1e-8)

    def test_orthogonal(self):
        assert T.inner_product(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.inner_product(np.zeros(2), np.zeros(3))
