"""Tests for 8-bit quantization, batchnorm folding, and int8 inference."""

import math

import numpy as np
import pytest

from ascpipe.errors import DataError, GraphError, NumericError
from ascpipe.nn import (
    LayerSpec,
    ModelGraph,
    ScheduleConfig,
    forward,
    initialize,
    one_hot,
    predict,
    save_checkpoint,
    train,
)
from ascpipe.nn.engine import per_item
from ascpipe.nn.ops import OPS
from ascpipe.quant import (
    BLOCK_ELEMS,
    F32_EXACT_MACS,
    MAX_MACS_PER_OUTPUT,
    QuantizedModel,
    _int_accumulate,
    _quantize_activation,
    check_mac_budget,
    fold_batchnorm,
    load_quantized,
    quantize_model,
    quantize_tensor,
    quantized_forward,
    save_quantized,
    weight_blob_ratio,
)
from ascpipe.synthetic import spectro_corpus
from ascpipe.zoo import ARCH_NAMES, ArchConfig, build
from test_nn_core import _traced_peak_mib


def conv_bn_net(use_bias=False, attention=False, seed=0):
    layers = [
        LayerSpec(
            "conv2d", "conv1", ("input",),
            {"filters": 5, "kernel": (3, 3), "use_bias": use_bias},
        ),
        LayerSpec("batchnorm", "bn1", ("conv1",)),
        LayerSpec("relu", "relu1", ("bn1",)),
    ]
    tail = "relu1"
    if attention:
        layers.append(LayerSpec("channel_attention", "attn", (tail,)))
        tail = "attn"
    layers += [
        LayerSpec("global_avg_pool", "gap", (tail,)),
        LayerSpec("dense", "fc", ("gap",), {"units": 3}),
        LayerSpec("softmax", "probs", ("fc",)),
    ]
    return initialize(ModelGraph("convnet", (8, 8, 2), layers), seed=seed)


def depthwise_bn_net(seed=0):
    layers = [
        LayerSpec(
            "depthwise_conv2d", "dw1", ("input",),
            {"kernel": (3, 3), "multiplier": 2},
        ),
        LayerSpec("batchnorm", "bn1", ("dw1",)),
        LayerSpec("relu", "relu1", ("bn1",)),
        LayerSpec("global_avg_pool", "gap", ("relu1",)),
        LayerSpec("dense", "fc", ("gap",), {"units": 3}),
        LayerSpec("softmax", "probs", ("fc",)),
    ]
    return initialize(ModelGraph("dwnet", (8, 8, 3), layers), seed=seed)


def dense_bn_net(seed=0):
    layers = [
        LayerSpec("global_avg_pool", "gap", ("input",)),
        LayerSpec("dense", "fc1", ("gap",), {"units": 6}),
        LayerSpec("batchnorm", "bn1", ("fc1",)),
        LayerSpec("relu", "relu1", ("bn1",)),
        LayerSpec("dense", "fc2", ("relu1",), {"units": 3}),
        LayerSpec("softmax", "probs", ("fc2",)),
    ]
    return initialize(ModelGraph("densenet", (4, 4, 5), layers), seed=seed)


def randomize_bn(graph, rng):
    for spec in graph.layers:
        if spec.kind != "batchnorm":
            continue
        store = graph.params[spec.name]
        c = store["gamma"].shape[0]
        store["gamma"] = rng.uniform(0.5, 1.5, c).astype(np.float32)
        store["beta"] = rng.normal(0.0, 0.3, c).astype(np.float32)
        store["running_mean"] = rng.normal(0.0, 0.5, c).astype(np.float32)
        store["running_var"] = rng.uniform(0.3, 2.0, c).astype(np.float32)


class TestQuantizeTensor:
    def test_unit_endpoints(self):
        qt = quantize_tensor(np.array([-1.0, 0.0, 1.0]))
        assert qt.scale == pytest.approx(1.0 / 127)
        assert np.array_equal(qt.values, [-127, 0, 127])
        assert qt.values.dtype == np.int8

    def test_round_trip_error_within_half_scale(self, rng):
        for shape in [(40,), (3, 3, 4, 8), (64, 10)]:
            w = rng.normal(0.0, 2.0, shape)
            qt = quantize_tensor(w)
            err = np.abs(qt.values.astype(np.float64) * qt.scale - w)
            assert err.max() <= qt.scale / 2 + 1e-12

    def test_all_zero_degenerate_rule(self):
        qt = quantize_tensor(np.zeros((4, 4)))
        assert qt.scale == 1.0
        assert not qt.values.any()
        assert not (qt.values * qt.scale).any()

    def test_rounds_half_away_from_zero(self):
        # scale is 1.0, driven by the 127.0 entry
        qt = quantize_tensor(np.array([127.0, 2.5, -2.5, 0.4999, -0.5]))
        assert np.array_equal(qt.values, [127, 3, -3, 0, -1])

    def test_max_element_hits_endpoint_exactly(self, rng):
        for _ in range(20):
            w = rng.normal(0.0, 1.0, 30)
            qt = quantize_tensor(w)
            assert np.abs(qt.values).max() == 127

    def test_quantize_is_idempotent(self, rng):
        w = rng.normal(0.0, 1.0, (5, 7))
        first = quantize_tensor(w)
        second = quantize_tensor(first.values.astype(np.float32) * np.float32(first.scale))
        assert np.array_equal(first.values, second.values)
        assert second.scale == pytest.approx(first.scale, rel=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            quantize_tensor(np.zeros((0, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            quantize_tensor(np.array([1.0, np.nan]))

    def test_a_subnormal_scale_still_clips_to_127(self):
        # 190 / 127 steps of 2**-149 round to a scale of one step
        w = np.array([190.0, -3.0, 0.0]) * 2.0**-149
        qt = quantize_tensor(w)
        assert qt.scale == 2.0**-149
        assert np.array_equal(qt.values, [127, -3, 0])


def _six_step_rounding(x, scale):
    """Rounding as one float64 array: floor(|x / scale| + 0.5), clipped to
    127 and given x's sign, then cast to float32."""
    q = np.divide(x, scale, dtype=np.float64)
    np.abs(q, out=q)
    q += 0.5
    np.floor(q, out=q)
    np.minimum(q, 127, out=q)
    return np.copysign(q, x, out=q).astype(np.float32)


# +-0.0, +-1016 and each tie (k + 1/2) * 8, and their integers: with
# max|x| = 1016 the scale is 1016 / 127 = 8, so a tie divides to k + 1/2
# exactly and rounds away from zero
_K = np.arange(-127, 127)
PLANTED = np.array([0.0, -0.0, 1016.0, -1016.0, *((_K + 0.5) * 8)], dtype=np.float32)
ROUNDED = np.array([0.0, -0.0, 127.0, -127.0, *np.where(_K >= 0, _K + 1, _K)], dtype=np.float32)


class TestBlockRounding:
    """Rounding in blocks of BLOCK_ELEMS against the whole-array rounding,
    bit for bit, so -0.0 must stay -0.0."""

    def signed(self, rng, shape):
        """Magnitudes 1e-6 to 1e3 of either sign, with PLANTED spread evenly
        over the flat array, and the planted positions."""
        n = math.prod(shape)
        x = 10.0 ** rng.uniform(-6, 3, n) * rng.choice([-1.0, 1.0], n)
        at = np.linspace(0, n - 1, len(PLANTED)).astype(int)
        x[at] = PLANTED
        return x.astype(np.float32).reshape(shape), at

    def assert_bits_equal(self, x):
        qa, scale = _quantize_activation(x)
        assert scale == float(np.abs(x).max()) / 127
        assert qa.dtype == np.float32
        assert np.array_equal(qa.view(np.uint32), _six_step_rounding(x, scale).view(np.uint32))
        return qa

    def test_activations_of_several_blocks(self, rng):
        x, at = self.signed(rng, (1, 61, 64, 56))
        assert BLOCK_ELEMS * 3 < x.size < BLOCK_ELEMS * 4
        qa = self.assert_bits_equal(x).reshape(-1)
        assert np.array_equal(qa[at].view(np.uint32), ROUNDED.view(np.uint32))

    def test_a_strided_half_of_several_blocks(self, rng):
        # the upper frequency half of freq_split, a view
        x = self.signed(rng, (1, 61, 128, 56))[0][:, :, 64:]
        assert not x.flags.c_contiguous and x.size > BLOCK_ELEMS
        self.assert_bits_equal(x)

    def test_weights_of_several_blocks(self, rng):
        w = rng.normal(0.0, 0.1, (3, 3, 90, 179)).astype(np.float32)
        assert w.size > 2 * BLOCK_ELEMS
        qt = quantize_tensor(w)
        assert np.array_equal(qt.values, _six_step_rounding(w, qt.scale).astype(np.int8))


class TestFoldBatchnorm:
    def test_identity_bn_preserves_function(self, rng):
        g = conv_bn_net()
        folded = fold_batchnorm(g)
        x = rng.normal(0.0, 1.0, (4, 8, 8, 2)).astype(np.float32)
        assert np.allclose(forward(folded, x), forward(g, x), atol=1e-6)

    @pytest.mark.parametrize(
        "maker", [conv_bn_net, depthwise_bn_net, dense_bn_net]
    )
    def test_random_bn_dual_path(self, maker, rng):
        g = maker(seed=3)
        randomize_bn(g, rng)
        folded = fold_batchnorm(g)
        shape = (6,) + g.input_shape
        x = rng.normal(0.0, 1.0, shape).astype(np.float32)
        assert np.allclose(forward(folded, x), forward(g, x), atol=1e-5)

    def test_conv_with_existing_bias(self, rng):
        g = conv_bn_net(use_bias=True)
        g.params["conv1"]["b"] = rng.normal(0.0, 0.5, 5).astype(np.float32)
        randomize_bn(g, rng)
        folded = fold_batchnorm(g)
        x = rng.normal(0.0, 1.0, (4, 8, 8, 2)).astype(np.float32)
        assert np.allclose(forward(folded, x), forward(g, x), atol=1e-5)

    def test_layer_count_drops_by_bn_count(self):
        g = conv_bn_net()
        n_bn = sum(1 for s in g.layers if s.kind == "batchnorm")
        folded = fold_batchnorm(g)
        assert n_bn == 1
        assert len(folded.layers) == len(g.layers) - n_bn
        assert all(s.kind != "batchnorm" for s in folded.layers)

    def test_folded_layer_gains_bias(self):
        folded = fold_batchnorm(conv_bn_net())
        assert "b" in folded.params["conv1"]
        assert folded.params["conv1"]["b"].dtype == np.float32

    def test_original_graph_untouched(self, rng):
        g = conv_bn_net()
        w_before = g.params["conv1"]["w"].copy()
        fold_batchnorm(g)
        assert np.array_equal(g.params["conv1"]["w"], w_before)
        assert any(s.kind == "batchnorm" for s in g.layers)

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_zoo_model_dual_path(self, arch, rng):
        g = build(ArchConfig(arch, width_mult=0.25, n_classes=3,
                             input_shape=(16, 32, 3)), seed=5)
        randomize_bn(g, rng)
        folded = fold_batchnorm(g)
        x = rng.normal(0.0, 0.5, (2, 16, 32, 3)).astype(np.float32)
        assert np.allclose(forward(folded, x), forward(g, x), atol=1e-4)

    def test_bn_after_relu_rejected(self):
        layers = [
            LayerSpec("conv2d", "conv1", ("input",), {"filters": 4}),
            LayerSpec("relu", "relu1", ("conv1",)),
            LayerSpec("batchnorm", "bn1", ("relu1",)),
            LayerSpec("global_avg_pool", "gap", ("bn1",)),
            LayerSpec("dense", "fc", ("gap",), {"units": 2}),
            LayerSpec("softmax", "probs", ("fc",)),
        ]
        g = initialize(ModelGraph("bad", (6, 6, 2), layers))
        with pytest.raises(DataError, match="foldable"):
            fold_batchnorm(g)

    def test_shared_producer_rejected(self):
        layers = [
            LayerSpec("conv2d", "conv1", ("input",), {"filters": 3}),
            LayerSpec("batchnorm", "bn1", ("conv1",)),
            LayerSpec("relu", "relu1", ("bn1",)),
            LayerSpec("residual_add", "add", ("relu1", "conv1")),
            LayerSpec("global_avg_pool", "gap", ("add",)),
            LayerSpec("dense", "fc", ("gap",), {"units": 2}),
            LayerSpec("softmax", "probs", ("fc",)),
        ]
        g = initialize(ModelGraph("shared", (6, 6, 3), layers))
        with pytest.raises(DataError, match="feeds other layers"):
            fold_batchnorm(g)

    def test_uninitialized_rejected(self):
        g = conv_bn_net()
        g.params = {}
        with pytest.raises(DataError, match="no parameters"):
            fold_batchnorm(g)

    def test_no_bn_is_a_plain_copy(self, rng):
        layers = [
            LayerSpec("conv2d", "conv1", ("input",), {"filters": 4}),
            LayerSpec("relu", "relu1", ("conv1",)),
            LayerSpec("global_avg_pool", "gap", ("relu1",)),
            LayerSpec("dense", "fc", ("gap",), {"units": 2}),
            LayerSpec("softmax", "probs", ("fc",)),
        ]
        g = initialize(ModelGraph("plain", (6, 6, 2), layers))
        folded = fold_batchnorm(g)
        assert len(folded.layers) == len(g.layers)
        x = rng.normal(0.0, 1.0, (3, 6, 6, 2)).astype(np.float32)
        assert np.array_equal(forward(folded, x), forward(g, x))


class TestQuantizeModel:
    def test_quantizes_exactly_the_matmul_weights(self, rng):
        g = conv_bn_net(attention=True)
        randomize_bn(g, rng)
        qm = quantize_model(g)
        assert set(qm.weights) == {"conv1", "fc"}
        assert "w" not in qm.graph.params["conv1"]
        assert "b" in qm.graph.params["conv1"]
        attn = qm.graph.params["attn"]
        assert set(attn) == {"w1", "b1", "w2", "b2"}
        assert all(v.dtype == np.float32 for v in attn.values())

    def test_uninitialized_rejected(self):
        g = conv_bn_net()
        g.params = {}
        with pytest.raises(DataError, match="no parameters"):
            quantize_model(g)

    def test_weight_blob_ratio_near_one_quarter(self):
        from ascpipe.zoo import ArchConfig, build

        g = build(ArchConfig("small_fcnn", width_mult=0.5, n_classes=3,
                             input_shape=(16, 32, 3)), seed=0)
        qm = quantize_model(g)
        assert 0.24 <= weight_blob_ratio(qm) <= 0.26

    def test_mac_budget_enforced(self):
        layers = [
            LayerSpec("conv2d", "wide", ("input",),
                      {"filters": 1, "kernel": (1, 1)}),
            LayerSpec("global_avg_pool", "gap", ("wide",)),
            LayerSpec("dense", "fc", ("gap",), {"units": 2}),
            LayerSpec("softmax", "probs", ("fc",)),
        ]
        over = ModelGraph("over", (1, 1, MAX_MACS_PER_OUTPUT + 1), layers)
        with pytest.raises(GraphError, match="accumulator budget"):
            check_mac_budget(over)
        at_limit = ModelGraph("at", (1, 1, MAX_MACS_PER_OUTPUT), layers)
        check_mac_budget(at_limit)

    @pytest.mark.parametrize("kind", ["conv2d", "depthwise_conv2d"])
    def test_kernel_taps_beyond_one_exact_block_rejected(self, kind):
        # a channel group holds at least one channel's taps, so a kernel of
        # more than F32_EXACT_MACS taps has no exact float32 block
        def graph(kernel):
            attrs = {"kernel": kernel, **({"filters": 2} if kind == "conv2d" else {})}
            layers = [
                LayerSpec(kind, "big", ("input",), attrs),
                LayerSpec("global_avg_pool", "gap", ("big",)),
            ]
            return ModelGraph("taps", (8, 8, 1), layers)

        assert F32_EXACT_MACS == 1040
        check_mac_budget(graph((40, 26)))
        with pytest.raises(GraphError, match="kernel of 1089 taps exceeds the 1040"):
            check_mac_budget(graph((33, 33)))


class TestQuantizedForward:
    def test_hand_integer_oracle_for_dense(self):
        layers = [
            LayerSpec("global_avg_pool", "gap", ("input",)),
            LayerSpec("dense", "fc", ("gap",), {"units": 2}),
        ]
        g = initialize(ModelGraph("tiny", (1, 1, 3), layers))
        g.params["fc"]["w"] = np.array(
            [[0.63, -2.0], [0.21, 0.1], [-0.77, 0.44]], dtype=np.float32
        )
        g.params["fc"]["b"] = np.array([0.1, -0.2], dtype=np.float32)
        qm = quantize_model(g)

        qt = qm.weights["fc"]
        assert qt.scale == pytest.approx(2.0 / 127)
        assert np.array_equal(
            qt.values, [[40, -127], [13, 6], [-49, 28]]
        )

        x = np.array([0.3, -0.8, 0.25], dtype=np.float32).reshape(1, 1, 1, 3)
        out = quantized_forward(qm, x)
        # activation integers: round([0.3, -0.8, 0.25] / (0.8 / 127))
        acc = np.array([
            48 * 40 + (-127) * 13 + 40 * (-49),
            48 * (-127) + (-127) * 6 + 40 * 28,
        ])
        a_scale = float(np.float32(0.8)) / 127
        expected = acc * (a_scale * qt.scale) + np.array([0.1, -0.2],
                                                         dtype=np.float32)
        assert np.allclose(out[0], expected, atol=1e-6)

    def test_all_zero_input_gives_bias_only_path_conv(self, rng):
        layers = [
            LayerSpec("conv2d", "conv1", ("input",),
                      {"filters": 5, "use_bias": True}),
            LayerSpec("batchnorm", "bn1", ("conv1",)),
            LayerSpec("relu", "relu1", ("bn1",)),
            LayerSpec("global_avg_pool", "gap", ("relu1",)),
        ]
        g = initialize(ModelGraph("convonly", (8, 8, 2), layers))
        g.params["conv1"]["b"] = rng.normal(0.0, 0.5, 5).astype(np.float32)
        randomize_bn(g, rng)
        qm = quantize_model(g)
        folded = fold_batchnorm(g)
        x = np.zeros((2, 8, 8, 2), dtype=np.float32)
        assert np.allclose(quantized_forward(qm, x), forward(folded, x),
                           atol=1e-6)

    def test_all_zero_input_gives_bias_only_path_dense(self, rng):
        layers = [
            LayerSpec("global_avg_pool", "gap", ("input",)),
            LayerSpec("dense", "fc", ("gap",), {"units": 4}),
            LayerSpec("softmax", "probs", ("fc",)),
        ]
        g = initialize(ModelGraph("denseonly", (4, 4, 3), layers))
        g.params["fc"]["b"] = rng.normal(0.0, 0.5, 4).astype(np.float32)
        qm = quantize_model(g)
        x = np.zeros((3, 4, 4, 3), dtype=np.float32)
        assert np.allclose(quantized_forward(qm, x), forward(g, x),
                           atol=1e-6)

    def test_output_is_distribution(self, rng):
        g = conv_bn_net(attention=True)
        randomize_bn(g, rng)
        qm = quantize_model(g)
        x = rng.normal(0.0, 1.0, (5, 8, 8, 2)).astype(np.float32)
        probs = quantized_forward(qm, x)
        assert probs.shape == (5, 3)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_wrong_input_shape_rejected(self, rng):
        qm = quantize_model(conv_bn_net())
        with pytest.raises(DataError, match="expects input"):
            quantized_forward(qm, rng.normal(0.0, 1.0, (2, 8, 9, 2)))

    def test_non_finite_activation_raises_numeric_error(self, rng):
        qm = quantize_model(conv_bn_net())
        qm.graph.params["fc"]["b"][1] = np.inf
        with pytest.raises(NumericError, match=r"layer 'fc' in batch rows \[0\]"):
            quantized_forward(qm, rng.normal(0.0, 1.0, (1, 8, 8, 2)))

    @pytest.mark.parametrize("arch", ["small_fcnn", "mobnet", "resnet"])
    def test_item_scores_do_not_depend_on_the_batch(self, arch, rng):
        from ascpipe.zoo import ArchConfig, build

        g = build(ArchConfig(arch, width_mult=0.25, n_classes=3, input_shape=(16, 32, 3)), seed=2)
        qm = quantize_model(g)
        x = rng.normal(0.0, 1.0, (3, 16, 32, 3)).astype(np.float32)
        x[1] *= 3.0  # a louder item shares the batch
        batch = quantized_forward(qm, x)
        for i in range(len(x)):
            assert np.allclose(quantized_forward(qm, x[i : i + 1])[0], batch[i], rtol=0, atol=1e-6)

    def test_agreement_with_float_on_trained_model(self):
        xs, ys = spectro_corpus(150, n_classes=3, shape=(16, 16, 1), seed=4)
        layers = [
            LayerSpec("conv2d", "conv1", ("input",), {"filters": 8}),
            LayerSpec("batchnorm", "bn1", ("conv1",)),
            LayerSpec("relu", "relu1", ("bn1",)),
            LayerSpec("maxpool", "pool1", ("relu1",), {"pool": (2, 2)}),
            LayerSpec("conv2d", "conv2", ("pool1",), {"filters": 16}),
            LayerSpec("batchnorm", "bn2", ("conv2",)),
            LayerSpec("relu", "relu2", ("bn2",)),
            LayerSpec("global_avg_pool", "gap", ("relu2",)),
            LayerSpec("dense", "fc", ("gap",), {"units": 3}),
            LayerSpec("softmax", "probs", ("fc",)),
        ]
        g = initialize(ModelGraph("toy", (16, 16, 1), layers), seed=1)
        schedule = ScheduleConfig(first_cycle_len=1000, lr_max=0.05)
        train(g, xs, one_hot(ys, 3), schedule, epochs=8, seed=1)
        qm = quantize_model(g)
        ex, _ = spectro_corpus(200, n_classes=3, shape=(16, 16, 1), seed=77)
        float_top1 = np.argmax(predict(g, ex), axis=1)
        quant_top1 = np.argmax(quantized_forward(qm, ex), axis=1)
        agreement = np.mean(float_top1 == quant_top1)
        assert agreement >= 0.95


def _signed_127(rng, shape):
    return np.where(rng.random(shape) < 0.5, -127.0, 127.0).astype(np.float32)


class TestExactBlocks:
    """The int8 accumulators at the float32 block boundary: 1040 products of
    127 * 127 stay below 2**24, 1041 do not."""

    def accumulators(self, spec, w, qa, macs):
        acc = _int_accumulate(spec, w, qa)
        # one float32 block is the op's own output; group sums add in float64
        assert acc.dtype == (np.float32 if macs <= F32_EXACT_MACS else np.float64)
        return acc

    @pytest.mark.parametrize("macs", [F32_EXACT_MACS, F32_EXACT_MACS + 1])
    def test_conv2d_accumulators_equal_the_int64_oracle(self, macs, rng):
        spec = LayerSpec("conv2d", "conv", ("input",), {"filters": 3, "kernel": (1, 1)})
        qa = _signed_127(rng, (1, 2, 3, macs))
        w = _signed_127(rng, (1, 1, macs, 3))
        w[0, 0, :, 0] = qa[0, 0, 0]  # filter 0 meets item (0, 0) with +127**2 per MAC
        acc = self.accumulators(spec, w, qa, macs)
        oracle = qa.astype(np.int64).reshape(-1, macs) @ w.astype(np.int64).reshape(macs, 3)
        assert oracle[0, 0] == macs * 127**2
        assert np.array_equal(acc.reshape(-1, 3), oracle)

    @pytest.mark.parametrize("macs", [F32_EXACT_MACS, F32_EXACT_MACS + 1])
    def test_dense_accumulators_equal_the_int64_oracle(self, macs, rng):
        spec = LayerSpec("dense", "fc", ("input",), {"units": 2})
        qa = _signed_127(rng, (1, macs))
        w = _signed_127(rng, (macs, 2))
        w[:, 0] = qa[0]
        acc = self.accumulators(spec, w, qa, macs)
        oracle = qa.astype(np.int64) @ w.astype(np.int64)
        assert oracle[0, 0] == macs * 127**2
        assert np.array_equal(acc, oracle)

    def test_one_float32_contraction_of_1041_macs_is_not_exact(self):
        # the odd accumulator 1041 * 16129 = 16 790 289 lies above 2**24,
        # where float32 steps by 2, so no float32 sum can hold it
        ones = np.full(F32_EXACT_MACS + 1, 127.0, dtype=np.float32)
        assert int(ones @ ones) != 16_790_289
        assert int(ones[:-1] @ ones[:-1]) == F32_EXACT_MACS * 127**2


def _float64_reference(qm, x):
    """The int8 forward as one float64 contraction per layer: activations
    rounded in float64 from one scale per tensor, the op table's forward on
    float64 integer weights and activations, then the rescale and bias."""

    def layer(spec, params, ins, mode, seed):
        op = OPS[spec.kind]
        if not op.macs:
            return op.forward(spec, params, ins, mode, seed)[0], None
        qt = qm.weights[spec.name]
        amax = float(np.abs(ins[0]).max())
        a_scale = amax / 127 if amax > 0 else 1.0
        q = ins[0].astype(np.float64) / a_scale
        qa = np.clip(np.sign(q) * np.floor(np.abs(q) + 0.5), -127, 127)
        acc = op.forward(spec, {"w": qt.values.astype(np.float64)}, [qa], mode, None)[0]
        acc *= a_scale * qt.scale
        if "b" in params:
            acc += params["b"]
        return acc.astype(np.float32), None

    return per_item(qm.graph, x, layer)


# the archs whose trunk has a layer above F32_EXACT_MACS at width 0.75
BLOCKED_ARCHS = {"fcnn", "fsfcnn", "fsfcnn_s", "small_fcnn"}


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_scores_equal_the_float64_reference_bit_for_bit(arch, rng):
    g = build(ArchConfig(arch, width_mult=0.75, n_classes=3, input_shape=(16, 32, 3)), seed=3)
    randomize_bn(g, rng)
    qm = quantize_model(g)
    macs = max(OPS[s.kind].macs(s, qm.graph.in_shape(s)) for s in qm.graph.layers if s.name in qm.weights)
    assert (macs > F32_EXACT_MACS) == (arch in BLOCKED_ARCHS)
    x = rng.normal(0.0, 1.0, (2, 16, 32, 3)).astype(np.float32)
    assert np.array_equal(quantized_forward(qm, x), _float64_reference(qm, x))


@pytest.mark.parametrize("arch", ["mobnet", "resnet"])
def test_scores_of_inputs_of_several_blocks_equal_the_float64_reference(arch, rng):
    # here the signed graph input, and mobnet's conv inputs after a
    # projection batchnorm, span more than one rounding block
    g = build(ArchConfig(arch, width_mult=0.75, n_classes=3, input_shape=(256, 128, 3)), seed=3)
    randomize_bn(g, rng)
    qm = quantize_model(g)
    x = rng.normal(0.0, 1.0, (2, 256, 128, 3)).astype(np.float32)
    assert np.array_equal(quantized_forward(qm, x), _float64_reference(qm, x))


# (arch, width, traced peak in MiB, rounded up, of one item's int8 forward
# at the benchmark's 400 x 128 x 3). Rounding and rescaling whole arrays in
# float64 read 21.52, 24.24 and 12.53; float32 accumulators and blocks of
# float64 bring them to 13.98, 15.43 and 10.43.
INT8_MEMORY_CASES = [("small_fcnn", 1.0, 13.98), ("mobnet", 0.5, 15.43), ("resnet", 0.5, 10.43)]


@pytest.mark.parametrize("arch,width,peak", INT8_MEMORY_CASES, ids=[c[0] for c in INT8_MEMORY_CASES])
def test_int8_forward_memory_stays_bounded(arch, width, peak):
    shape = (400, 128, 3)
    qm = quantize_model(build(ArchConfig(arch, width, 10, shape), seed=0))
    x = np.random.default_rng(0).standard_normal((1, *shape)).astype(np.float32)
    assert _traced_peak_mib(lambda: quantized_forward(qm, x)) <= 1.05 * peak


class TestSerialization:
    def make_model(self, rng):
        g = conv_bn_net(use_bias=True, attention=True, seed=9)
        g.params["conv1"]["b"] = rng.normal(0.0, 0.5, 5).astype(np.float32)
        randomize_bn(g, rng)
        return quantize_model(g)

    def test_round_trip(self, tmp_path, rng):
        qm = self.make_model(rng)
        path = tmp_path / "model.ascq"
        save_quantized(path, qm)
        loaded = load_quantized(path)
        assert [s.name for s in loaded.graph.layers] == [
            s.name for s in qm.graph.layers
        ]
        for name, qt in qm.weights.items():
            assert np.array_equal(loaded.weights[name].values, qt.values)
            assert loaded.weights[name].scale == pytest.approx(qt.scale)
        for name, store in qm.graph.params.items():
            for key, arr in store.items():
                assert np.allclose(loaded.graph.params[name][key], arr,
                                   atol=1e-7)
        x = rng.normal(0.0, 1.0, (3, 8, 8, 2)).astype(np.float32)
        assert np.array_equal(quantized_forward(loaded, x),
                              quantized_forward(qm, x))

    def test_reloaded_model_scores_like_the_one_in_memory(self, tmp_path):
        path = tmp_path / "model.ascq"
        for seed in range(8):
            rng = np.random.default_rng(seed)
            qm = self.make_model(rng)
            save_quantized(path, qm)
            x = rng.normal(0.0, 1.0, (3, 8, 8, 2)).astype(np.float32)
            assert np.array_equal(quantized_forward(load_quantized(path), x),
                                  quantized_forward(qm, x)), seed

    def test_save_load_save_is_byte_identical(self, tmp_path, rng):
        qm = self.make_model(rng)
        p1 = tmp_path / "a.ascq"
        p2 = tmp_path / "b.ascq"
        save_quantized(p1, qm)
        save_quantized(p2, load_quantized(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_corruption_checks(self, tmp_path, rng):
        qm = self.make_model(rng)
        path = tmp_path / "model.ascq"
        save_quantized(path, qm)
        blob = path.read_bytes()
        assert blob[:4] == b"ASCQ"

        bad_magic = tmp_path / "magic.ascq"
        bad_magic.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(DataError, match="not a quantized model"):
            load_quantized(bad_magic)

        truncated = tmp_path / "short.ascq"
        truncated.write_bytes(blob[:-5])
        with pytest.raises(DataError, match="truncated"):
            load_quantized(truncated)

        padded = tmp_path / "padded.ascq"
        padded.write_bytes(blob + b"\0\0")
        with pytest.raises(DataError, match="trailing"):
            load_quantized(padded)

    def test_missing_weights_detected(self, tmp_path, rng):
        qm = self.make_model(rng)
        broken = QuantizedModel(qm.graph, dict(qm.weights))
        del broken.weights["conv1"]
        path = tmp_path / "broken.ascq"
        save_quantized(path, broken)
        with pytest.raises(DataError, match="missing quantized weights"):
            load_quantized(path)

    def test_size_report_matches_file(self, tmp_path, rng):
        qm = self.make_model(rng)
        path = tmp_path / "model.ascq"
        report = save_quantized(path, qm)
        assert report.total_bytes == path.stat().st_size
        assert report.int8_payload_bytes == sum(
            qt.values.size for qt in qm.weights.values()
        )
        assert report.scale_bytes == 4 * len(qm.weights)

    def test_full_file_ratio_for_zoo_model(self, tmp_path):
        from ascpipe.zoo import ArchConfig, build

        g = build(ArchConfig("small_fcnn", width_mult=0.5, n_classes=3,
                             input_shape=(16, 32, 3)), seed=0)
        float_path = tmp_path / "model.ascm"
        save_checkpoint(float_path, g)
        quant_path = tmp_path / "model.ascq"
        save_quantized(quant_path, quantize_model(g))
        ratio = quant_path.stat().st_size / float_path.stat().st_size
        assert ratio <= 0.30
