import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smoea import objectives as O
from smoea import tensor as T
from smoea.exceptions import ArgumentError, EvolutionError, NonFiniteError, ShapeError
from smoea.network import (
    ConvLayer,
    DenseLayer,
    FilterMask,
    FlattenLayer,
    PoolLayer,
    ReluLayer,
    SubNetwork,
    build_toy_cnn,
    extract_subnetwork,
    subnetwork_forward,
    subnetwork_tail_forward,
)
from smoea.objectives import (
    ALPHA_MODES,
    EvaluationContext,
    optimal_alpha,
    reconstruction_error,
)


@pytest.fixture(scope="module")
def toy():
    """(sub, map_l): toy conv 2's sub-network and a random calibration input."""
    net = build_toy_cnn(seed=7)
    map_l = np.random.default_rng(7).normal(size=(4, 8, 8, 8))
    return extract_subnetwork(net, 2), map_l


@pytest.fixture(scope="module")
def ctx(toy):
    return EvaluationContext.build(*toy)


@pytest.fixture(scope="module")
def reference(toy):
    return subnetwork_forward(*toy)


def mask_of(bits):
    return FilterMask(np.asarray(bits, dtype=np.uint8), 2)


def score_row(ctx, bits, mode="optimized"):
    """A mask's (filter_pct, error): its row of a one-row score_genomes call."""
    genes = np.asarray(bits, dtype=np.uint8)[None]
    return O.score_genomes(ctx, genes, alpha_mode=mode)[0]


def pct_column(bits):
    """The filter_pct column that score_genomes gives a [P, C] genome matrix,
    on a context of C uncoupled unit responses."""
    genes = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    c = genes.shape[1]
    ctx = EvaluationContext(np.eye(c), np.zeros(c), 0.0, 1.0)
    return O.score_genomes(ctx, genes)[:, 0]


class TestFilterPct:
    def test_half(self):
        assert pct_column([1, 1, 0, 0]).tolist() == [0.5]

    def test_all_ones(self):
        assert pct_column([1] * 8).tolist() == [1.0]

    def test_lower_bound(self):
        bits = np.zeros(10, dtype=np.uint8)
        bits[:2] = 1
        assert pct_column(bits)[0] == pytest.approx(0.2)

    def test_clearing_bits_strictly_decreases(self):
        bits = np.ones(8, dtype=np.uint8)
        prev = pct_column(bits)[0]
        for i in range(7):
            bits = bits.copy()
            bits[i] = 0
            cur = pct_column(bits)[0]
            assert cur < prev
            prev = cur


class TestOptimalAlpha:
    def test_identical_tensors(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        assert optimal_alpha(x, x) == pytest.approx(1.0, abs=1e-15)

    def test_halved_approx(self):
        x = np.random.default_rng(1).normal(size=(5,))
        assert optimal_alpha(x, x / 2) == pytest.approx(2.0, abs=1e-12)

    def test_zero_approx(self):
        assert optimal_alpha(np.ones(4), np.zeros(4)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            optimal_alpha(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("seed", range(10))
    def test_grid_scan_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ref = rng.normal(size=(4, 4))
        approx = 0.5 * ref + 0.3 * rng.normal(size=(4, 4))
        alphas = np.arange(0.0, 5.0001, 1e-4)
        errors = np.sqrt(
            ((ref[None] - alphas[:, None, None] * approx[None]) ** 2).sum(axis=(1, 2))
        )
        a_star = optimal_alpha(ref, approx)
        assert abs(a_star - alphas[errors.argmin()]) <= 1e-3
        assert T.frobenius_norm(ref - a_star * approx) <= errors.min() + 1e-12


class TestReconstructionError:
    def test_exact_match_both_modes(self, reference):
        assert reconstruction_error(reference, reference) == pytest.approx(0.0, abs=1e-9)
        assert reconstruction_error(reference, reference, "fixed_one") == pytest.approx(
            0.0, abs=1e-9
        )

    def test_halved_approx(self, reference):
        half = 0.5 * reference
        assert reconstruction_error(reference, half) == pytest.approx(0.0, abs=1e-9)
        assert reconstruction_error(reference, half, "fixed_one") == pytest.approx(
            0.5 * T.frobenius_norm(reference)
        )

    @pytest.mark.parametrize("seed", range(25))
    def test_optimized_never_worse_than_fixed(self, seed, reference):
        rng = np.random.default_rng(seed)
        approx = reference + rng.normal(size=reference.shape)
        assert (
            reconstruction_error(reference, approx)
            <= reconstruction_error(reference, approx, "fixed_one") + 1e-12
        )

    def test_shape_mismatch(self, reference):
        with pytest.raises(ShapeError):
            reconstruction_error(reference, np.zeros(3))


class TestScoreRow:
    def test_full_mask(self, ctx, reference):
        pct, error = score_row(ctx, [1] * 16)
        assert pct == 1.0
        assert error == pytest.approx(0.0, abs=1e-12)
        assert optimal_alpha(reference, reference) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_fast_path_equals_slow_path(self, seed, toy, ctx, reference):
        rng = np.random.default_rng(seed)
        bits = np.zeros(16, dtype=np.uint8)
        bits[rng.choice(16, size=rng.integers(1, 16), replace=False)] = 1
        fast_pct, fast_err = score_row(ctx, bits)
        # slow path: mask the first layer's weights and run the whole block
        slow_out = subnetwork_forward(*toy, mask_of(bits))
        slow_err = reconstruction_error(reference, slow_out)
        assert fast_pct == bits.sum() / 16
        assert fast_err == pytest.approx(slow_err, abs=1e-9)

    def test_dead_channel_costs_nothing(self):
        net = build_toy_cnn(seed=9)
        sub = extract_subnetwork(net, 2)
        sub.second.params.weights[:, 5, :, :] = 0.0  # second layer ignores channel 5
        map_l = np.random.default_rng(0).normal(size=(2, 8, 8, 8))
        ctx = EvaluationContext.build(sub, map_l)
        bits = np.ones(16, dtype=np.uint8)
        bits[5] = 0
        assert score_row(ctx, bits)[1] == pytest.approx(0.0, abs=1e-9)

    def test_deterministic_bit_for_bit(self, ctx):
        a = score_row(ctx, [1, 0] * 8)
        b = score_row(ctx, [1, 0] * 8)
        assert a[0] == b[0] and a[1] == b[1]


class TestDenseSecondLayer:
    def test_fast_path_through_flatten(self):
        net = build_toy_cnn(seed=11)
        sub = extract_subnetwork(net, 4)  # second layer is the classifier
        map_l = np.random.default_rng(1).normal(size=(3, 16, 4, 4))
        ctx = EvaluationContext.build(sub, map_l)
        bits = np.ones(16, dtype=np.uint8)
        bits[[0, 9]] = 0
        mask = FilterMask(bits, 4)
        fast = score_row(ctx, bits)[1]
        slow = reconstruction_error(
            subnetwork_forward(sub, map_l), subnetwork_forward(sub, map_l, mask)
        )
        assert fast == pytest.approx(slow, abs=1e-9)


# ---------------------------------------------------------------------------
# the Gram-form evaluation against the direct tail forward

# the benchmark's bound on |fast - slow|: RTOL * slow + ATOL * ||reference||
RTOL = 1e-7
ATOL = 1e-10


def biased_toy_subnetwork(ordinal, seed=3):
    """Toy sub-network with random biases, so the bias terms of the Gram
    form are exercised (He init leaves them at zero)."""
    net = build_toy_cnn(seed=seed)
    rng = np.random.default_rng(seed)
    for lay in net.layers:
        if lay.parametric:
            bias = lay.arrays()[1]
            bias[:] = rng.normal(0.0, 0.5, size=bias.shape)
    return extract_subnetwork(net, ordinal)


def conv9_shaped_subnetwork(seed=0):
    """VGG-14 conv 9's sub-network shape: 512 filters at 4x4, relu, then a
    512 -> 512 3x3 conv."""
    rng = np.random.default_rng(seed)

    def conv():
        std = np.sqrt(2.0 / (512 * 9))
        return ConvLayer(
            T.ConvParams(512, 512, 3, 3, 1, 1, rng.normal(0.0, std, (512, 512, 3, 3)),
                         rng.normal(0.0, 0.1, 512))
        )

    return SubNetwork(conv(), [ReluLayer()], conv()), rng.normal(size=(2, 512, 4, 4))


# tail kind -> (toy conv ordinal, input shape of that conv)
TOY_TAILS = {
    "relu-conv": (1, (6, 3, 8, 8)),
    "relu-pool-conv": (2, (6, 8, 8, 8)),
    "relu-pool-flatten-dense": (4, (6, 16, 4, 4)),
}


@pytest.fixture(scope="module")
def toy_contexts():
    """{tail kind: (sub, map_l, context)} over random calibration inputs."""
    contexts = {}
    for kind, (l, shape) in TOY_TAILS.items():
        sub = biased_toy_subnetwork(l)
        map_l = np.random.default_rng(l).normal(size=shape)
        contexts[kind] = (sub, map_l, EvaluationContext.build(sub, map_l))
    return contexts


@pytest.fixture(scope="module")
def conv9_context():
    """(sub, map_l, context) of the conv-9-shaped sub-network."""
    sub, map_l = conv9_shaped_subnetwork()
    return sub, map_l, EvaluationContext.build(sub, map_l)


def assert_matches_slow_path(sub, map_l, ctx, bits, mode="optimized", fast=None):
    """`fast`, by default the error of the mask's one-row score_genomes
    call, is within the bound of the direct forward's error."""
    mask = FilterMask(np.asarray(bits, dtype=np.uint8), 0)
    if fast is None:
        fast = score_row(ctx, bits, mode)[1]
    reference = subnetwork_forward(sub, map_l)
    slow = reconstruction_error(reference, subnetwork_forward(sub, map_l, mask), mode)
    bound = RTOL * slow + ATOL * T.frobenius_norm(reference)
    assert abs(fast - slow) <= bound, (fast, slow)


def silent_kept_channels():
    """(sub, map_l, ctx, bits) of toy conv 2 whose second layer reads
    channels 0-2 with zero weight and has a zero bias, and the mask that
    keeps only those channels."""
    sub = extract_subnetwork(build_toy_cnn(seed=4), 2)
    sub.second.params.weights[:, :3] = 0.0
    sub.second.params.bias[:] = 0.0
    map_l = np.random.default_rng(4).normal(size=(3, 8, 8, 8))
    bits = np.zeros(16, dtype=np.uint8)
    bits[:3] = 1
    return sub, map_l, EvaluationContext.build(sub, map_l), bits


def random_masks(c, count, seed):
    rng = np.random.default_rng(seed)
    masks = [np.eye(c, dtype=np.uint8)[0], 1 - np.eye(c, dtype=np.uint8)[c - 1]]
    for _ in range(count):
        bits = np.zeros(c, dtype=np.uint8)
        bits[rng.choice(c, size=rng.integers(1, c + 1), replace=False)] = 1
        masks.append(bits)
    return masks


class TestGramForm:
    @pytest.mark.parametrize("mode", ALPHA_MODES)
    @pytest.mark.parametrize("kind", TOY_TAILS)
    def test_every_tail_matches_slow_path(self, toy_contexts, kind, mode):
        sub, map_l, ctx = toy_contexts[kind]
        for bits in random_masks(ctx.num_filters, 12, seed=len(kind)):
            assert_matches_slow_path(sub, map_l, ctx, bits, mode)

    @pytest.mark.parametrize("mode", ALPHA_MODES)
    def test_conv9_shaped_layer_matches_slow_path(self, conv9_context, mode):
        sub, map_l, ctx = conv9_context
        for bits in random_masks(512, 3, seed=9):
            assert_matches_slow_path(sub, map_l, ctx, bits, mode)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_masks_property(self, toy_contexts, data):
        kind = data.draw(st.sampled_from(sorted(toy_contexts)))
        mode = data.draw(st.sampled_from(ALPHA_MODES))
        sub, map_l, ctx = toy_contexts[kind]
        c = ctx.num_filters
        index = st.integers(0, c - 1)
        bits = data.draw(
            st.one_of(
                index.map(lambda i: np.eye(c, dtype=np.uint8)[i]),  # one filter kept
                index.map(lambda i: 1 - np.eye(c, dtype=np.uint8)[i]),  # one pruned
                st.lists(st.booleans(), min_size=c, max_size=c).filter(any),
            )
        )
        assert_matches_slow_path(sub, map_l, ctx, bits, mode)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_drawn_subnetworks_property(self, data):
        """On a drawn sub-network, a conv with a relu-conv, relu-pool-conv
        or relu-pool-flatten-dense tail, every score_genomes row is within
        the slow path's bound in both alpha modes, and filter_pct is
        retained / C exactly. In half the draws a shrunk CHUNK_BYTES makes
        the Gram build run in chunks, paired on the helper thread. An output
        of one number is refused (test_one_number_output)."""
        draw = data.draw
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        tail = draw(st.sampled_from(sorted(TOY_TAILS)))
        pooled = "pool" in tail
        c_in, c = draw(st.integers(1, 4)), draw(st.integers(2, 12))
        n, k = draw(st.integers(1, 4)), draw(st.sampled_from([1, 3]))
        padding = draw(st.integers(0, k // 2))
        # the first conv's output map, even where a pool follows
        out_h, out_w = (2 * draw(st.integers(1, 4)) if pooled else draw(st.integers(1, 8))
                        for _ in range(2))

        def conv(o, i, k, padding):
            weights = rng.normal(0.0, np.sqrt(2.0 / (i * k * k)), (o, i, k, k))
            return ConvLayer(T.ConvParams(o, i, k, k, 1, padding, weights,
                                          rng.normal(0.0, 0.5, o)))

        first = conv(c, c_in, k, padding)
        interstitial = [ReluLayer(), PoolLayer()] if pooled else [ReluLayer()]
        h, w = (out_h // 2, out_w // 2) if pooled else (out_h, out_w)
        outs = draw(st.integers(1, 6))
        if tail.endswith("dense"):
            interstitial.append(FlattenLayer())
            weights = rng.normal(0.0, 0.5, (c * h * w, outs))
            second = DenseLayer(weights, rng.normal(0.0, 0.5, outs))
        else:
            k2 = draw(st.sampled_from([1, 3]))
            padding2 = draw(st.integers(0 if min(h, w) >= k2 else k2 // 2, k2 // 2))
            second = conv(outs, c, k2, padding2)
        sub = SubNetwork(first, interstitial, second)
        shrink = k - 1 - 2 * padding  # of the map, by the first conv
        map_l = rng.normal(size=(n, c_in, out_h + shrink, out_w + shrink))
        assume(subnetwork_forward(sub, map_l).size > 1)
        mask = st.lists(st.booleans(), min_size=c, max_size=c).filter(any)
        genes = np.array(draw(st.lists(mask, min_size=1, max_size=6)))
        chunked = draw(st.booleans())
        chunk_bytes = draw(st.sampled_from([64, 1024]))
        with pytest.MonkeyPatch.context() as mp:
            if chunked:
                mp.setattr(T, "CHUNK_BYTES", chunk_bytes)
                mp.setattr(T, "_cpu_count", lambda: 2)
            ctx = EvaluationContext.build(sub, map_l)
        for mode in ALPHA_MODES:
            points = O.score_genomes(ctx, genes, alpha_mode=mode)
            assert points[:, 0].tolist() == [r / c for r in genes.sum(axis=1).tolist()]
            for bits, error in zip(genes, points[:, 1]):
                assert_matches_slow_path(sub, map_l, ctx, bits, mode, fast=error)

    def test_one_number_output(self):
        """A sub-network whose output over the calibration batch is one
        number: the fitted alpha reconstructs it exactly under every mask
        that leaves a != 0, so the error ranks no mask, and the Gram form
        would return only the rounding of ||d||^2 - <a, d>^2 / ||a||^2. The
        build refuses it."""
        rng = np.random.default_rng(0)
        first = ConvLayer(T.ConvParams(8, 2, 1, 1, 1, 0, rng.normal(size=(8, 2, 1, 1)),
                                       rng.normal(0.0, 0.5, 8)))
        dense = DenseLayer(rng.normal(0.0, 0.5, (8, 1)), rng.normal(0.0, 0.5, 1))
        sub = SubNetwork(first, [ReluLayer(), PoolLayer(), FlattenLayer()], dense)
        map_l = rng.normal(size=(1, 2, 2, 2))
        assert subnetwork_forward(sub, map_l).size == 1
        with pytest.raises(EvolutionError, match="one number") as err:
            EvaluationContext.build(sub, map_l)
        assert err.value.exit_code == 7

    @pytest.mark.parametrize("kind", TOY_TAILS)
    def test_terms_equal_per_channel_responses(self, toy_contexts, kind):
        """G, h and beta against Y_c taken from the tail forward of channel c
        alone, minus the tail forward of all-zero channels (the bias B)."""
        sub, map_l, ctx = toy_contexts[kind]
        first = T.conv2d_forward(map_l, sub.first.params)
        bias_out = subnetwork_tail_forward(sub, np.zeros_like(first))
        ys = []
        for c in range(ctx.num_filters):
            alone = np.zeros_like(first)
            alone[:, c] = first[:, c]
            ys.append((subnetwork_tail_forward(sub, alone) - bias_out).ravel())
        y = np.array(ys)
        scale = np.abs(y @ y.T).max()
        np.testing.assert_allclose(ctx.gram, y @ y.T, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(
            ctx.bias_cross, y @ bias_out.ravel(), rtol=1e-12, atol=1e-12 * scale
        )
        assert ctx.bias_sq == pytest.approx(T.inner_product(bias_out, bias_out), rel=1e-12)

    @pytest.mark.parametrize("kind", TOY_TAILS)
    def test_chunked_build_equals_unchunked(self, toy_contexts, kind, monkeypatch):
        sub, map_l, _ = toy_contexts[kind]
        x = T.conv2d_forward(map_l, sub.first.params)
        for lay in sub.interstitial:
            x, _ = lay.forward(x)
        monkeypatch.setattr(T, "CHUNK_BYTES", 2**40)
        gram, cross, beta = O._gram_terms(sub, x)
        monkeypatch.setattr(T, "CHUNK_BYTES", 64)  # one position and output at a time
        chunked_gram, chunked_cross, chunked_beta = O._gram_terms(sub, x)
        scale = np.abs(gram).max()
        np.testing.assert_allclose(chunked_gram, gram, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(chunked_cross, cross, rtol=0, atol=1e-12 * scale)
        assert chunked_beta == beta

    @pytest.mark.parametrize("kind", [*TOY_TAILS, "conv9-shaped"])
    def test_ref_norm_is_reference_norm(self, toy_contexts, conv9_context, kind):
        """The stored ||r|| is bit for bit the norm of the direct forward."""
        if kind == "conv9-shaped":
            sub, map_l, ctx = conv9_context
        else:
            sub, map_l, ctx = toy_contexts[kind]
        assert ctx.ref_norm == T.frobenius_norm(subnetwork_forward(sub, map_l))

    @pytest.mark.parametrize("kind", TOY_TAILS)
    def test_build_runs_interstitial_layers_once(self, kind, monkeypatch):
        sub = biased_toy_subnetwork(TOY_TAILS[kind][0])
        calls = []
        for lay in sub.interstitial:
            forward = lay.forward
            monkeypatch.setattr(
                lay, "forward", lambda x, f=forward, k=lay.kind: calls.append(k) or f(x)
            )
        map_l = np.random.default_rng(0).normal(size=TOY_TAILS[kind][1])
        EvaluationContext.build(sub, map_l)
        assert calls == [lay.kind for lay in sub.interstitial]

    def test_silent_kept_channels_give_reference_norm(self):
        """A mask whose kept channels reach the output with zero weight and a
        zero bias leaves a = 0, where optimal_alpha takes alpha = 0."""
        sub, map_l, ctx, bits = silent_kept_channels()
        assert score_row(ctx, bits)[1] == T.frobenius_norm(
            subnetwork_forward(sub, map_l)
        )
        assert_matches_slow_path(sub, map_l, ctx, bits)

    @pytest.mark.parametrize("mode", ALPHA_MODES)
    def test_score_genomes_mixed_batch(self, mode):
        """One call scores a batch of a silent mask, the full mask, every
        one-filter mask and random masks: each row within the slow path's
        bound, the silent row at ||r|| exactly where alpha is fitted."""
        sub, map_l, ctx, silent = silent_kept_channels()
        c = ctx.num_filters
        genes = np.vstack(
            [silent, np.ones(c, dtype=np.uint8), np.eye(c, dtype=np.uint8),
             *random_masks(c, 12, seed=5)]
        ).astype(bool)
        points = O.score_genomes(ctx, genes, alpha_mode=mode)
        assert points.shape == (len(genes), 2)
        assert points[:, 0].tolist() == [k / c for k in genes.sum(axis=1).tolist()]
        if mode == "optimized":
            assert points[0, 1] == ctx.ref_norm
        for bits, error in zip(genes, points[:, 1]):
            assert_matches_slow_path(sub, map_l, ctx, bits, mode, fast=error)

    def test_one_context_serves_both_modes(self, toy_contexts, monkeypatch):
        """evolve_subnetwork scores in its config's alpha mode on the one
        context, whose terms are not built again."""
        from smoea.evolution import EvolutionConfig, evolve_subnetwork

        def rebuild(*args):
            raise AssertionError("Gram terms built again")

        monkeypatch.setattr(O, "_gram_terms", rebuild)
        sub, map_l, ctx = toy_contexts["relu-conv"]
        for mode in ALPHA_MODES:
            cfg = EvolutionConfig(
                population_size=12, elite_size=4, generations=3, seed=2, alpha_mode=mode
            )
            for ind in evolve_subnetwork(ctx, cfg).front:
                assert tuple(score_row(ctx, ind.genes, mode)) == ind.objectives.as_tuple()
                assert_matches_slow_path(sub, map_l, ctx, ind.genes, mode)

    def test_unknown_alpha_mode(self, ctx, reference):
        with pytest.raises(ArgumentError):
            score_row(ctx, [1] * 16, "nonsense")
        with pytest.raises(ArgumentError):
            reconstruction_error(reference, reference, "nonsense")

    def test_alpha_mode_is_keyword_only(self, ctx):
        with pytest.raises(TypeError):
            O.score_genomes(ctx, np.ones((1, 16), dtype=bool), "fixed_one")

def second_layer_input(sub, map_l):
    """What EvaluationContext.build feeds _gram_terms: map_l through the
    first conv and the interstitial layers."""
    x = T.conv2d_forward(map_l, sub.first.params)
    for lay in sub.interstitial:
        x, _ = lay.forward(x)
    return x


def sequential_gram_terms(sub, x):
    """(G, h, beta, chunk count): the Gram build with one ``gram += y @ y.T``
    per chunk, in chunk order, all on this thread."""
    n, c = x.shape[0], sub.first.params.out_channels
    weights, bias = sub.second.arrays()
    if sub.second.kind == "conv":
        params = sub.second.params
        p = params.padding
        patches = T._windows(np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x, params)
        w = weights.transpose(1, 2, 3, 0).reshape(c, -1, params.out_channels)
    else:
        patches = x.reshape(n, c, 1, 1, -1)
        w = weights.reshape(c, -1, weights.shape[1])
    w = np.ascontiguousarray(w)
    _, taps, outs = w.shape
    out_h, out_w = patches.shape[2:4]
    budget = T.CHUNK_BYTES // 8
    out_step = min(outs, max(1, budget // c))
    rows = max(1, budget // (c * max(out_step, taps)))
    gram = np.zeros((c, c))
    patch_sums = np.zeros((c, taps))
    chunks = 0
    for images, out_rows in O._position_blocks(n, out_h, out_w, rows):
        block = patches[images, :, out_rows].swapaxes(0, 1).reshape(c, -1, taps)
        patch_sums += block.sum(axis=1)
        for o in range(0, outs, out_step):
            y = np.matmul(block, w[:, :, o : o + out_step]).reshape(c, -1)
            gram += y @ y.T
            chunks += 1
    cross = (patch_sums * (w @ bias)).sum(axis=1)
    return gram, cross, n * out_h * out_w * float(bias @ bias), chunks


def assert_terms_equal(got, expect):
    gram, cross, beta = got
    assert np.array_equal(gram, expect[0])
    assert np.array_equal(cross, expect[1])
    assert beta == expect[2]


def count_side_by_side(monkeypatch):
    """Pass every tensor._side_by_side call through and count it."""
    calls = []
    side_by_side = T._side_by_side

    def counted(first, second):
        calls.append(1)
        return side_by_side(first, second)

    monkeypatch.setattr(T, "_side_by_side", counted)
    return calls


# id -> (tail kind, calibration images, CHUNK_BYTES, chunks of the build)
CHUNKINGS = {
    "one-chunk": ("relu-conv", 6, T.CHUNK_BYTES, 1),
    "even-conv": ("relu-conv", 6, 4096, 48),
    "odd-conv": ("relu-conv", 5, 24576, 15),
    "even-dense": ("relu-pool-flatten-dense", 6, 2048, 6),
    "odd-dense": ("relu-pool-flatten-dense", 5, 2048, 5),
}


class TestPairedGramBuild:
    """The chunk products run two at a time, one on the conv helper thread;
    G, h and beta must equal the one-chunk-at-a-time build bit for bit."""

    @pytest.mark.parametrize("cpus", [2, 1])
    @pytest.mark.parametrize("chunk_bytes", [T.CHUNK_BYTES, 1024])
    @pytest.mark.parametrize("kind", TOY_TAILS)
    def test_every_tail_equals_sequential_build(self, kind, chunk_bytes, cpus, monkeypatch):
        monkeypatch.setattr(T, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(T, "CHUNK_BYTES", chunk_bytes)
        l, shape = TOY_TAILS[kind]
        sub = biased_toy_subnetwork(l)
        x = second_layer_input(sub, np.random.default_rng(l).normal(size=shape))
        assert_terms_equal(O._gram_terms(sub, x), sequential_gram_terms(sub, x))

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_conv9_shaped_layer_equals_sequential_build(self, conv9_context, cpus, monkeypatch):
        monkeypatch.setattr(T, "_cpu_count", lambda: cpus)
        sub, map_l, ctx = conv9_context
        x = second_layer_input(sub, map_l)
        expect = sequential_gram_terms(sub, x)
        assert expect[3] == 8  # a 4-position output row per chunk, 2 images
        calls = count_side_by_side(monkeypatch)
        assert_terms_equal(O._gram_terms(sub, x), expect)
        assert len(calls) == 4
        assert_terms_equal((ctx.gram, ctx.bias_cross, ctx.bias_sq), expect)

    @pytest.mark.parametrize("cpus", [2, 1])
    @pytest.mark.parametrize("case", CHUNKINGS)
    def test_pairs_chunks_on_the_helper(self, case, cpus, monkeypatch):
        """floor(chunks / 2) helper hand-offs, none for a one-chunk build;
        an odd last chunk runs on this thread."""
        kind, images, chunk_bytes, chunks = CHUNKINGS[case]
        monkeypatch.setattr(T, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(T, "CHUNK_BYTES", chunk_bytes)
        l, shape = TOY_TAILS[kind]
        sub = biased_toy_subnetwork(l)
        map_l = np.random.default_rng(l).normal(size=(images, *shape[1:]))
        x = second_layer_input(sub, map_l)
        expect = sequential_gram_terms(sub, x)
        assert expect[3] == chunks
        calls = count_side_by_side(monkeypatch)
        assert_terms_equal(O._gram_terms(sub, x), expect)
        assert len(calls) == (0 if chunks == 1 else chunks // 2)

    @pytest.mark.parametrize("mode", ["ignore", "raise"])
    def test_helper_runs_under_callers_error_state(self, mode, monkeypatch):
        """Chunk 0, image 0's, is the first of the first pair, so its
        product runs on the helper thread; only it overflows. The helper
        runs in a copy of the caller's context, np.errstate's included."""
        monkeypatch.setattr(T, "_cpu_count", lambda: 2)
        monkeypatch.setattr(T, "CHUNK_BYTES", 2048)  # one chunk per image
        l, shape = TOY_TAILS["relu-pool-flatten-dense"]
        sub = biased_toy_subnetwork(l)
        x = second_layer_input(sub, np.random.default_rng(l).normal(size=shape))
        x[0] *= 1e200
        calls = count_side_by_side(monkeypatch)
        if mode == "raise":
            with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
                O._gram_terms(sub, x)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(all="ignore"):
                    gram = O._gram_terms(sub, x)[0]
            assert not np.isfinite(gram).all()
        assert len(calls) == {"raise": 1, "ignore": 3}[mode]  # raised in the first pair

    def test_error_on_the_helper_propagates_from_build(self, monkeypatch):
        monkeypatch.setattr(T, "_cpu_count", lambda: 2)
        monkeypatch.setattr(T, "CHUNK_BYTES", 4096)
        sub = biased_toy_subnetwork(1)
        map_l = np.random.default_rng(1).normal(size=TOY_TAILS["relu-conv"][1])
        expect = EvaluationContext.build(sub, map_l)
        product = O._chunk_product
        helper_calls = []

        def fails_on_helper(block, w, y, out):
            if threading.current_thread() is not threading.main_thread():
                helper_calls.append(1)
                raise RuntimeError("chunk product failed on the helper")
            return product(block, w, y, out)

        monkeypatch.setattr(O, "_chunk_product", fails_on_helper)
        with pytest.raises(RuntimeError, match="failed on the helper"):
            EvaluationContext.build(sub, map_l)
        assert helper_calls == [1]
        monkeypatch.setattr(O, "_chunk_product", product)
        again = EvaluationContext.build(sub, map_l)  # the helper still serves
        assert_terms_equal((again.gram, again.bias_cross, again.bias_sq),
                           (expect.gram, expect.bias_cross, expect.bias_sq))


def _nan_first_weight(sub, map_l):
    sub.first.params.weights[0, 0, 0, 0] = np.nan


def _nan_second_weight(sub, map_l):
    sub.second.arrays()[0].flat[0] = np.nan


def _inf_second_bias(sub, map_l):
    sub.second.arrays()[1][0] = np.inf


def _inf_input(sub, map_l):
    map_l[0, 0, 0, 0] = np.inf


class TestNonFiniteContext:
    @pytest.mark.parametrize(
        "poison", [_nan_first_weight, _nan_second_weight, _inf_second_bias, _inf_input]
    )
    @pytest.mark.parametrize("kind", TOY_TAILS)
    def test_build_rejects_non_finite_terms(self, kind, poison):
        l, shape = TOY_TAILS[kind]
        sub = biased_toy_subnetwork(l)
        map_l = np.random.default_rng(l).normal(size=shape)
        poison(sub, map_l)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
            EvaluationContext.build(sub, map_l)
