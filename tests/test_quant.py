"""Tests for 8-bit quantization, batchnorm folding, and int8 inference."""

import numpy as np
import pytest

from ascpipe.errors import DataError, GraphError
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
from ascpipe.quant import (
    MAX_MACS_PER_OUTPUT,
    QuantizedModel,
    check_mac_budget,
    dequantize_model,
    fold_batchnorm,
    load_quantized,
    quantize_model,
    quantize_tensor,
    quantized_forward,
    save_quantized,
    size_report,
    weight_blob_ratio,
)
from ascpipe.synthetic import spectro_corpus


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
        assert not qt.dequantize().any()

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
        second = quantize_tensor(first.dequantize())
        assert np.array_equal(first.values, second.values)
        assert second.scale == pytest.approx(first.scale, rel=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            quantize_tensor(np.zeros((0, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            quantize_tensor(np.array([1.0, np.nan]))

    def test_dequantize_dtype(self):
        qt = quantize_tensor(np.array([0.5, -0.25]))
        assert qt.dequantize().dtype == np.float32


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

    def test_zoo_model_dual_path(self, rng):
        from ascpipe.zoo import ArchConfig, build

        g = build(ArchConfig("fcnn", width_mult=0.25, n_classes=3,
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

    def test_requantization_is_idempotent(self, rng):
        g = conv_bn_net()
        randomize_bn(g, rng)
        first = quantize_model(g)
        second = quantize_model(dequantize_model(first))
        for name, qt in first.weights.items():
            assert np.array_equal(qt.values, second.weights[name].values)
            assert second.weights[name].scale == pytest.approx(
                qt.scale, rel=1e-6
            )

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
        result = train(g, xs, one_hot(ys, 3), schedule, epochs=8, seed=1)
        qm = quantize_model(result.graph)
        ex, _ = spectro_corpus(200, n_classes=3, shape=(16, 16, 1), seed=77)
        float_top1 = np.argmax(predict(result.graph, ex), axis=1)
        quant_top1 = np.argmax(quantized_forward(qm, ex), axis=1)
        agreement = np.mean(float_top1 == quant_top1)
        assert agreement >= 0.95


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
        assert report == size_report(qm)
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
