import json
import tracemalloc
import weakref

import numpy as np
import pytest

from smoea import network as N
from smoea import tensor as T
from smoea.exceptions import GeometryError, MaskError, ModelFormatError, UnknownLayerError
from smoea.network import (
    FilterMask,
    activation_shapes,
    build_cnn,
    build_toy_cnn,
    build_vgg14,
    compact,
    count_flops,
    count_params,
    extract_subnetwork,
    forward,
    forward_cached,
    load_model,
    save_model,
    subnetwork_forward,
)


@pytest.fixture(scope="module")
def vgg():
    return build_vgg14(seed=0)


@pytest.fixture()
def toy():
    return build_toy_cnn(seed=3)


def random_mask(net, ordinal, rng, keep_fraction=0.5):
    n = net.conv(ordinal).params.out_channels
    keep = max(1, round(keep_fraction * n))
    bits = np.zeros(n, dtype=np.uint8)
    bits[rng.choice(n, size=keep, replace=False)] = 1
    return FilterMask(bits, ordinal)


class TestVgg14:
    def test_layer_census(self, vgg):
        kinds = [lay.kind for lay in vgg.layers]
        assert kinds.count("conv") == 13
        assert kinds.count("dense") == 1
        assert kinds.count("maxpool") == 5

    def test_forward_shape(self, vgg):
        x = np.random.default_rng(0).normal(size=(1, 3, 32, 32))
        logits, _ = forward(vgg, x)
        assert logits.shape == (1, 10)
        assert np.all(np.isfinite(logits))

    def test_classifier_width(self, vgg):
        dense = vgg.layers[-1]
        assert dense.weights.shape == (512, 10)
        assert count_params(N.Network([dense], (512, 1, 1))) == 5130

    def test_flops_near_paper_total(self, vgg):
        assert 6.20e8 <= count_flops(vgg) <= 6.33e8


class TestHeInit:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("build", [build_vgg14, build_toy_cnn], ids=["vgg14", "toy"])
    def test_weights_are_rng_normal_draws(self, build, seed):
        """Each parametric layer's weights, in layer order from one seeded
        stream, are the bytes of rng.normal(0.0, sqrt(2 / fan_in), size),
        signed zeros included, and the biases are zero: a rewrite of the
        draws must keep every digest that starts from a built network."""
        net = build(seed=seed)
        rng = np.random.default_rng(seed)
        for lay in net.layers:
            if lay.parametric:
                w, b = lay.arrays()
                fan_in = w.shape[0] if lay.kind == "dense" else w[0].size
                want = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=w.shape)
                assert w.tobytes() == want.tobytes()
                assert b.tobytes() == np.zeros_like(b).tobytes()


class TestBuildGeometry:
    def test_odd_map_before_pool(self):
        """build_cnn walks its layers' out_shape, so a maxpool that gets odd
        spatial dims is named after the conv it follows."""
        with pytest.raises(GeometryError) as e:
            build_cnn([8, 16], {1, 2}, (3, 6, 6))
        assert str(e.value) == (
            "after conv 2: 2x2 maxpool needs even spatial dims, gets (16, 3, 3)"
        )
        assert e.value.exit_code == 7


class TestTrainingCache:
    def test_cache_holds_only_what_backward_reads(self):
        """forward_cached on finetune-cifar's net at its training batch of 32
        keeps each conv's and the dense layer's input (8 bytes an element), a
        relu's mask (1 byte) and a maxpool's winners (1 byte an output), and
        the logits: about 19 MB. Keeping every layer's input, the conv
        outputs the relus read and the relu outputs the maxpools read among
        them, held about 54 MB."""
        net = build_cnn([32, 32, 64, 64], {2, 4}, (3, 32, 32), seed=1)
        batch = np.random.default_rng(0).normal(size=(32, 3, 32, 32))
        tracemalloc.start()
        try:
            cache = forward_cached(net, batch)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 2**16
        for lay, shape in zip(net.layers, activation_shapes(net)):
            elements = 32 * int(np.prod(shape))
            bound += {"conv": 8, "dense": 8, "relu": 1}.get(lay.kind, 0) * elements
            bound += elements // 4 if lay.kind == "maxpool" else 0
        assert held < bound
        assert cache[0].shape == (32, 10)


    def test_backward_frees_each_entry_once_read(self, monkeypatch):
        """backward takes the cache over: when a layer's backward runs, the
        entries of the layers after it have been freed, and the list is
        empty when it returns. The gradients are those of a backward that
        reads a copy of the cache."""
        net = build_toy_cnn(seed=1)
        batch = np.random.default_rng(0).normal(size=(8, 3, 8, 8))
        grad = np.random.default_rng(1).normal(size=(8, 10))
        want = N.backward(net, list(forward_cached(net, batch)[1]), grad)
        _, saved = forward_cached(net, batch)
        refs = {i: weakref.ref(e) for i, e in enumerate(saved) if isinstance(e, np.ndarray)}
        live = {}
        for i, lay in enumerate(net.layers):

            def recorded(entry, g, input_grad=True, i=i, real=lay.backward):
                live[i] = {j for j, ref in refs.items() if ref() is not None}
                return real(entry, g, input_grad)

            monkeypatch.setattr(lay, "backward", recorded)
        got = N.backward(net, saved, grad)
        assert saved == []
        assert live == {i: {j for j in refs if j <= i} for i in range(len(net.layers))}
        assert got.keys() == want.keys()
        for pos in want:
            assert all(np.array_equal(a, b) for a, b in zip(got[pos], want[pos]))


class TestInferenceForward:
    def test_peak_memory_is_bounded(self):
        """forward on finetune-cifar's net over its 100 test images drops
        each layer's saved entry as the layer returns and pads each conv's
        images one block at a time: it peaks below the input, two of the
        largest activation (a layer's input and output), one block's
        scratch on each of the conv's two threads, and slack, about 64 MB.
        Keeping each conv's input through the next layer and padding the
        whole batch peaked at about 90 MB. The logits are those of a
        hand-chained Layer.forward that keeps every saved entry."""
        net = build_cnn([32, 32, 64, 64], {2, 4}, (3, 32, 32), seed=1)
        batch = np.random.default_rng(0).normal(size=(100, 3, 32, 32))
        tracemalloc.start()
        try:
            logits, _ = forward(net, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        largest = 100 * 8 * max(int(np.prod(shape)) for shape in activation_shapes(net))
        assert peak < batch.nbytes + 2 * largest + 2 * T.CHUNK_BYTES + 2**20
        want, saved = batch, []
        for lay in net.layers:
            want, keep = lay.forward(want)
            saved.append(keep)
        assert logits.tobytes() == want.tobytes()


class TestForwardCapture:
    def test_first_capture_is_raw_input(self, toy):
        x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
        _, cap = forward(toy, x, capture={1})
        np.testing.assert_array_equal(cap[1], x)

    def test_empty_capture(self, toy):
        x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
        logits, cap = forward(toy, x)
        assert cap == {} and logits.shape == (2, 10)

    @pytest.mark.parametrize("ordinal", [1, 2, 3])
    def test_capture_consistent_with_subnetwork(self, toy, ordinal):
        # sub-network output on the captured map equals the next conv's
        # output recomputed directly from its own captured input
        x = np.random.default_rng(2).normal(size=(2, 3, 8, 8))
        _, cap = forward(toy, x, capture={ordinal, ordinal + 1})
        sub = extract_subnetwork(toy, ordinal)
        got = subnetwork_forward(sub, cap[ordinal])
        expect = T.conv2d_forward(cap[ordinal + 1], toy.conv(ordinal + 1).params)
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_capture_consistent_at_last_conv(self, toy):
        x = np.random.default_rng(2).normal(size=(2, 3, 8, 8))
        logits, cap = forward(toy, x, capture={4})
        sub = extract_subnetwork(toy, 4)
        np.testing.assert_allclose(subnetwork_forward(sub, cap[4]), logits, atol=1e-12)

    def test_bad_capture_ordinal(self, toy):
        with pytest.raises(UnknownLayerError):
            forward(toy, np.zeros((1, 3, 8, 8)), capture={9})


class TestApplyMask:
    def test_all_ones_identity(self, toy):
        mask = FilterMask(np.ones(8, dtype=np.uint8), 1)
        masked = N.apply_mask(toy, mask)
        np.testing.assert_array_equal(
            masked.conv(1).params.weights, toy.conv(1).params.weights
        )

    def test_cleared_bit_zeroes_activation_channel(self, toy):
        bits = np.ones(8, dtype=np.uint8)
        bits[5] = 0
        masked = N.apply_mask(toy, FilterMask(bits, 1))
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        out = T.conv2d_forward(x, masked.conv(1).params)
        assert np.all(out[:, 5] == 0.0)
        assert np.any(out[:, 4] != 0.0)

    def test_l0_preserved_on_kept_filters(self, toy):
        bits = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=np.uint8)
        masked = N.apply_mask(toy, FilterMask(bits, 1))
        orig = toy.conv(1).params.weights
        got = masked.conv(1).params.weights
        kept = np.flatnonzero(bits)
        assert np.count_nonzero(got) == np.count_nonzero(orig[kept])

    def test_original_untouched(self, toy):
        before = toy.conv(1).params.weights.copy()
        bits = np.zeros(8, dtype=np.uint8)
        bits[0] = 1
        N.apply_mask(toy, FilterMask(bits, 1))
        np.testing.assert_array_equal(toy.conv(1).params.weights, before)

    def test_length_mismatch_raises(self, toy):
        with pytest.raises(MaskError):
            N.apply_mask(toy, FilterMask(np.ones(5, dtype=np.uint8), 1))

    def test_all_zero_mask_rejected(self):
        with pytest.raises(MaskError):
            FilterMask(np.zeros(4, dtype=np.uint8), 1)


class TestExtractSubnetwork:
    def test_adjacent_convs(self, vgg):
        sub = extract_subnetwork(vgg, 1)
        assert [lay.kind for lay in sub.interstitial] == ["relu"]
        assert sub.second.kind == "conv"

    def test_block_boundary_includes_pool(self, vgg):
        sub = extract_subnetwork(vgg, 2)
        assert [lay.kind for lay in sub.interstitial] == ["relu", "maxpool"]

    def test_last_conv_pairs_with_classifier(self, vgg):
        sub = extract_subnetwork(vgg, 13)
        assert [lay.kind for lay in sub.interstitial] == ["relu", "maxpool", "flatten"]
        assert sub.second.kind == "dense"

    def test_out_of_range(self, vgg):
        with pytest.raises(UnknownLayerError):
            extract_subnetwork(vgg, 14)


class TestSubnetworkForward:
    def test_all_ones_mask_matches_unmasked(self, toy):
        sub = extract_subnetwork(toy, 2)
        x = np.random.default_rng(0).normal(size=(2, 8, 8, 8))
        mask = FilterMask(np.ones(16, dtype=np.uint8), 2)
        np.testing.assert_array_equal(
            subnetwork_forward(sub, x, mask), subnetwork_forward(sub, x)
        )

    def test_mask_equals_channel_zeroing(self, toy):
        sub = extract_subnetwork(toy, 2)
        x = np.random.default_rng(0).normal(size=(2, 8, 8, 8))
        bits = np.ones(16, dtype=np.uint8)
        bits[[3, 7]] = 0
        first_out = T.conv2d_forward(x, sub.first.params)
        first_out[:, [3, 7]] = 0.0
        expect = N.subnetwork_tail_forward(sub, first_out)
        np.testing.assert_allclose(
            subnetwork_forward(sub, x, FilterMask(bits, 2)), expect, atol=1e-12
        )

    def test_zero_input_gives_bias_forward(self, toy):
        sub = extract_subnetwork(toy, 1)
        x = np.zeros((1, 3, 8, 8))
        got = subnetwork_forward(sub, x)
        bias_out = np.zeros((1, 8, 8, 8)) + sub.first.params.bias[None, :, None, None]
        np.testing.assert_allclose(got, N.subnetwork_tail_forward(sub, bias_out))


class TestCompact:
    def test_all_ones_masks_noop(self, toy):
        masks = {
            l: FilterMask(np.ones(toy.conv(l).params.out_channels, dtype=np.uint8), l)
            for l in range(1, 5)
        }
        out = compact(toy, masks)
        assert count_params(out) == count_params(toy)
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        np.testing.assert_array_equal(forward(out, x)[0], forward(toy, x)[0])

    @pytest.mark.parametrize("seed", range(5))
    def test_masked_vs_compact_logits(self, seed):
        rng = np.random.default_rng(seed)
        net = build_toy_cnn(seed=seed)
        masked = net
        masks = {}
        for l in range(1, 5):
            m = random_mask(net, l, rng, keep_fraction=rng.uniform(0.3, 0.9))
            masked = N.apply_mask(masked, m)
            masks[l] = m
        small = compact(masked, masks)
        x = rng.normal(size=(3, 3, 8, 8))
        np.testing.assert_allclose(
            forward(small, x)[0], forward(masked, x)[0], atol=1e-9
        )
        assert count_params(small) < count_params(net)

    def test_subset_of_layers(self, toy):
        rng = np.random.default_rng(0)
        m = random_mask(toy, 2, rng)
        masked = N.apply_mask(toy, m)
        small = compact(masked, {2: m})
        x = rng.normal(size=(2, 3, 8, 8))
        np.testing.assert_allclose(forward(small, x)[0], forward(masked, x)[0], atol=1e-9)

    def test_params_decrease_monotonically(self, toy):
        counts = []
        for cleared in range(0, 7):
            bits = np.ones(8, dtype=np.uint8)
            bits[:cleared] = 0
            counts.append(count_params(compact(toy, {1: FilterMask(bits, 1)})))
        assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_bad_mask_rejected(self, toy):
        with pytest.raises(MaskError):
            compact(toy, {1: FilterMask(np.ones(3, dtype=np.uint8), 1)})
        with pytest.raises(MaskError):
            compact(toy, {9: FilterMask(np.ones(8, dtype=np.uint8), 9)})


class TestCounting:
    def test_single_conv_formula(self):
        p = T.ConvParams(1, 1, 3, 3, 1, 1, np.zeros((1, 1, 3, 3)), np.zeros(1))
        net = N.Network([N.ConvLayer(p)], (1, 4, 4))
        assert count_flops(net) == 2 * 9 * 16

    def test_dense_params(self):
        net = N.Network(
            [N.DenseLayer(np.zeros((512, 10)), np.zeros(10))], (512, 1, 1)
        )
        assert count_params(net) == 5130


class TestSerialization:
    def test_round_trip_identical(self, tmp_path, toy):
        save_model(toy, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert back.input_shape == toy.input_shape
        for a, b in zip(toy.layers, back.layers):
            assert a.kind == b.kind
            if a.kind == "conv":
                np.testing.assert_array_equal(a.params.weights, b.params.weights)
                np.testing.assert_array_equal(a.params.bias, b.params.bias)
            elif a.kind == "dense":
                np.testing.assert_array_equal(a.weights, b.weights)

    def test_vgg_round_trip(self, tmp_path, vgg):
        assert {lay.kind for lay in vgg.layers} == set(N.LAYER_CLASSES)
        save_model(vgg, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert back.input_shape == vgg.input_shape
        assert [type(lay) for lay in back.layers] == [type(lay) for lay in vgg.layers]
        for a, b in zip(vgg.layers, back.layers):
            assert a.fields() == b.fields()
            if a.parametric:
                for x, y in zip(a.arrays(), b.arrays()):
                    np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize(
        "kind, field, value",
        [("conv", f, None) for f in (
            "out_channels", "in_channels", "kernel_h", "kernel_w", "stride",
            "padding", "blob",
        )]
        + [("dense", f, None) for f in ("in_features", "out_features", "blob")]
        + [
            ("conv", "stride", 0),
            ("conv", "padding", -1),
            ("conv", "kernel_h", True),
            ("conv", "blob", "../layer_00.bin"),
            ("dense", "out_features", "10"),
            ("manifest", "input_shape", [3, 8]),
            ("manifest", "input_shape", [3, 8, 0]),
            ("manifest", "dtype", "float32"),
            ("manifest", "layers", {}),
            ("manifest", "input_shape", [4, 8, 8]),  # conv 1 takes 3 channels
            ("manifest", "input_shape", [3, 16, 16]),  # dense takes 16*2*2 features
            ("manifest", "input_shape", [3, 8, 6]),  # second maxpool gets odd width
        ],
    )
    def test_invalid_field(self, tmp_path, toy, kind, field, value):
        """A missing (None) or invalid manifest field is a model-format error."""
        save_model(toy, tmp_path / "m")
        path = tmp_path / "m" / "manifest.json"
        manifest = json.loads(path.read_text())
        entry = (
            manifest
            if kind == "manifest"
            else next(e for e in manifest["layers"] if e["kind"] == kind)
        )
        if value is None:
            del entry[field]
        else:
            entry[field] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m["layers"][0].pop("out_channels"),
             "layers[0].out_channels must be an integer >= 1, got None"),
            (lambda m: m["layers"][0].update(padding=-1),
             "layers[0].padding must be an integer >= 0, got -1"),
            (lambda m: m["layers"][-1].update(in_features="10"),
             "layers[11].in_features must be an integer >= 1, got '10'"),
            (lambda m: m["layers"][1].update(kind="lstm"),
             "layers[1].kind must be 'conv' or 'relu' or 'maxpool' or 'flatten' or "
             "'dense', got 'lstm'"),
            (lambda m: m["layers"].__setitem__(1, 5), "layers[1] must be an object, got 5"),
            (lambda m: m.pop("format"), "format must be 'smoea-model', got None"),
            (lambda m: m.update(dtype="float32"), "dtype must be 'float64', got 'float32'"),
            (lambda m: m.update(input_shape=[3, 8]),
             "input_shape must be a list of 3 integers >= 1, got [3, 8]"),
            (lambda m: m.update(layers={}), "layers must be a list, got {}"),
            (lambda m: m.update(num_layers=True), "num_layers must be an integer, got True"),
            (lambda m: m.update(num_layers=3), "num_layers must be 12, got 3"),
        ],
        ids=["missing", "below_minimum", "string", "kind", "entry", "format", "dtype",
             "input_shape", "layers", "bool_count", "count"],
    )
    def test_field_message(self, tmp_path, toy, edit, message):
        """A rejected manifest field's message names its dotted path and
        quotes its value."""
        save_model(toy, tmp_path / "m")
        path = tmp_path / "m" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ModelFormatError) as e:
            load_model(tmp_path / "m")
        assert str(e.value) == message

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.update(input_shape=[4, 8, 8]),
             "layers[0] (conv): conv with 3 input channels gets (4, 8, 8)"),
            (lambda m: m.update(input_shape=[3, 6, 6]),
             "layers[9] (maxpool): 2x2 maxpool needs even spatial dims, gets (16, 3, 3)"),
            (lambda m: m.update(input_shape=[3, 16, 16]),
             "layers[11] (dense): dense with 64 input features gets (256,)"),
            (lambda m: m["layers"][0].update(stride=2, padding=0),
             "layers[0] (conv): conv geometry does not fit: input 8x8, kernel 3x3, "
             "stride 2, padding 0"),
        ],
        ids=["conv_channels", "maxpool_odd", "dense_features", "conv_geometry"],
    )
    def test_geometry_message(self, tmp_path, toy, edit, message):
        """A layer that cannot take the shape the layers before it give is
        named by its index and kind, with its own out_shape's reason."""
        save_model(toy, tmp_path / "m")
        path = tmp_path / "m" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ModelFormatError) as e:
            load_model(tmp_path / "m")
        assert str(e.value) == message
        assert e.value.exit_code == 4

    @pytest.mark.parametrize("kind", ["conv", "dense"])
    def test_layer_takes_wrong_width(self, tmp_path, toy, kind):
        """A parametric layer whose input width differs from what the layers
        before it produce is a model-format error at load, not a shape error
        at the first forward."""
        i = max(i for i, lay in enumerate(toy.layers) if lay.kind == kind)
        bits = np.ones(16, dtype=np.uint8)
        bits[0] = 0
        layers = list(toy.layers)
        layers[i] = layers[i].compacted(bits, None)  # drops one input channel
        save_model(N.Network(layers, toy.input_shape), tmp_path / "m")
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "m")

    def test_layer_count_mismatch(self, tmp_path, toy):
        save_model(toy, tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        manifest["num_layers"] += 1
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "m")

    def test_empty_manifest(self, tmp_path):
        (tmp_path / "m").mkdir()
        (tmp_path / "m" / "manifest.json").write_text("")
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "m")

    def test_truncated_blob(self, tmp_path, toy):
        save_model(toy, tmp_path / "m")
        blob = tmp_path / "m" / "layer_00.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("blob_name", ["layer_00.bin", "layer_04.bin"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_blob_value(self, tmp_path, toy, blob_name, value):
        """A NaN or infinite weight or bias, in a conv or the dense layer, is
        a model-format error."""
        save_model(toy, tmp_path / "m")
        blob = tmp_path / "m" / blob_name
        values = np.frombuffer(blob.read_bytes(), dtype="<f8").copy()
        values[-1] = value  # the last bias
        blob.write_bytes(values.tobytes())
        with pytest.raises(ModelFormatError, match="NaN or infinite"):
            load_model(tmp_path / "m")

    def test_missing_model(self, tmp_path):
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "nope")
