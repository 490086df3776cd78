import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from conftest import naive_conv2d, numerical_grad, rel_err
from smoea import tensor as T
from smoea.exceptions import GeometryError, LabelError, ShapeError
from smoea.network import build_toy_cnn
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
# the column-tile rule of _forward_blocks (six of them differ from einsum
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
        monkeypatch.setattr(T, "_forward_blocks", lambda *args: blocks)
        calls = count_side_by_side(monkeypatch)
        got = T.conv2d_forward(channel_major(x), p)
        # two or more blocks are split between the helper and this thread
        assert len(calls) == (len(blocks) > 1)
        for start in range(0, n, k):
            want = einsum_conv2d_forward(x[start : start + k], p)
            assert np.array_equal(got[start : start + k], want)

    def test_peak_memory_is_bounded(self):
        """No full-batch im2col operand: the peak is the padded input, the
        channel-major result and its bias-added copy, one block, and slack.
        The einsum form peaks at about 89 MiB here, this at about 27 MiB."""
        x, p = conv_case((32, 32, 32, 32, 32, 3, 1, 1))
        tracemalloc.start()
        try:
            T.conv2d_forward(x, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        padded, out = 32 * 32 * 34 * 34 * 8, 32 * 32 * 32 * 32 * 8
        assert peak < padded + 2 * out + T._forward_bound(p.weights) + 2**20


class TestHelperThread:
    def test_helper_error_is_raised_and_the_next_call_works(self, monkeypatch):
        x, p, g = backward_case(BITWISE_CONV_SHAPES["cifar_32ch_32x32"])
        threads = []

        def broken_index(*args):
            threads.append(threading.current_thread())
            raise RuntimeError("im2col index failed")

        with monkeypatch.context() as m:
            m.setattr(T, "_im2col_index", broken_index)
            with pytest.raises(RuntimeError, match="im2col index failed"):
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
            T._side_by_side(slow, failing)
        assert done == [1]
        assert T._side_by_side(lambda: 1, lambda: 2) == (1, 2)

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


class TestForwardBlocks:
    # (n, span, weights as [o, c*kh*kw]) -> block sizes
    CASES = {
        # VGG-14 conv 9 at batch 32: twice the weights (37.7 MB) holds it all
        "wide_layer_one_block": ((32, 16, (512, 4608)), [32]),
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
        assert T._forward_blocks(n, span, np.zeros(w_shape)) == want

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
        blocks = T._forward_blocks(n, span, w)
        assert sum(blocks) == n and blocks == sorted(blocks, reverse=True)
        assert blocks[0] - blocks[-1] <= 1
        k = max(1, T._forward_bound(w) // (8 * rows * span))
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


class TestMaxPool:
    def test_window_maximum(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out, _ = T.maxpool2x2(x)
        assert out[0, 0, 0, 0] == 4.0

    def test_constant_input_routes_to_top_left(self):
        x = np.ones((1, 1, 4, 4))
        out, rec = T.maxpool2x2(x)
        assert np.all(out == 1.0)
        gx = T.maxpool2x2_backward(rec, np.ones((1, 1, 2, 2)))
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
        _, rec = T.maxpool2x2(x)
        g = rng.normal(size=(2, 3, 3, 3))
        gx = T.maxpool2x2_backward(rec, g)
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
        out, rec = T.maxpool2x2(x)
        assert out[0, 0, 0, 0] == 2.0
        assert rec.winner[0, 0, 0, 0] == slots[0]
        gx = T.maxpool2x2_backward(rec, np.full((1, 1, 1, 1), 3.0))
        expect = np.zeros(4)
        expect[slots[0]] = 3.0
        np.testing.assert_array_equal(gx.ravel(), expect)

    def test_signed_zero_ties_match_argmax_bitwise(self):
        # every window over {-0.0, +0.0, -1.0, 1.0}, one window per channel
        vals = np.array([-0.0, 0.0, -1.0, 1.0])
        grid = np.stack(np.meshgrid(*[np.arange(4)] * 4, indexing="ij"), -1).reshape(-1, 4)
        x = vals[grid].reshape(1, -1, 2, 2)
        out, rec = T.maxpool2x2(x)
        want, idx = argmax_maxpool2x2(x)
        assert np.array_equal(out, want)
        assert np.array_equal(np.signbit(out), np.signbit(want))
        assert np.array_equal(rec.winner, idx)
        g = np.where(np.arange(x.shape[1]) % 2, -0.0, -1.5).reshape(out.shape)
        got_g = T.maxpool2x2_backward(rec, g)
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
        out, rec = T.maxpool2x2(x)
        want, idx = argmax_maxpool2x2(x)
        assert np.array_equal(out, want) and out.strides == want.strides
        assert out.flags.c_contiguous
        assert np.array_equal(rec.winner, idx)
        g = layout(rng.normal(size=out.shape))
        got_g = T.maxpool2x2_backward(rec, g)
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
