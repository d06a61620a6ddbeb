"""Architecture audits: layer counts, pool schedules, splits, budgets."""

import numpy as np
import pytest

from ascpipe.errors import ConfigError, GraphError
from ascpipe.nn import NON_TRAINABLE, forward, save_checkpoint
from ascpipe.zoo import ArchConfig, build

MONO = (423, 128, 3)
STEREO = (461, 128, 6)
CROPPED = (400, 128, 3)


def _kinds(graph, kind):
    return [s for s in graph.layers if s.kind == kind]


def _param_count(graph, trainable_only=False):
    return sum(
        arr.size
        for store in graph.params.values()
        for key, arr in store.items()
        if not (trainable_only and key in NON_TRAINABLE)
    )


def _float_ckpt_bytes(tmp_path, graph):
    path = tmp_path / f"{graph.name}.ascm"
    save_checkpoint(path, graph)
    return path.stat().st_size


class TestFcnn:
    def test_conv_and_pool_audit(self):
        g = build(ArchConfig("fcnn", input_shape=CROPPED))
        assert len(_kinds(g, "conv2d")) == 9
        pools = _kinds(g, "maxpool")
        assert len(pools) == 3
        assert all(tuple(p.attrs["pool"]) == (2, 2) for p in pools)
        assert [p.name for p in pools] == ["pool2", "pool4", "pool8"]

    def test_three_halvings_before_head(self):
        g = build(ArchConfig("fcnn", input_shape=CROPPED))
        assert g.shapes["pool8"][:2] == (50, 16)

    def test_dropout_on_late_convs_only(self):
        g = build(ArchConfig("fcnn", input_shape=CROPPED))
        drops = [s.name for s in _kinds(g, "dropout")]
        assert drops == ["drop5", "drop6", "drop7", "drop8", "drop9"]

    def test_attention_then_pool_then_softmax_head(self):
        g = build(ArchConfig("fcnn", input_shape=CROPPED))
        tail = [s.kind for s in g.layers[-4:]]
        assert tail == ["channel_attention", "global_avg_pool", "dense", "softmax"]

    def test_output_length_matches_classes(self):
        for k in (3, 4, 10):
            g = build(ArchConfig("fcnn", n_classes=k, input_shape=CROPPED))
            assert g.output_shape == (k,)

    def test_too_small_input_rejected(self):
        with pytest.raises(Exception):
            build(ArchConfig("fcnn", input_shape=(6, 6, 3)))


class TestFsfcnn:
    def test_conv_count_and_pool_schedule(self):
        g = build(ArchConfig("fsfcnn", input_shape=CROPPED))
        assert len(_kinds(g, "conv2d")) == 11
        pools = {p.name: tuple(p.attrs["pool"]) for p in _kinds(g, "maxpool")}
        assert pools == {
            "pool2": (2, 2),
            "pool4": (2, 2),
            "pool6": (1, 2),
            "pool8": (1, 2),
        }

    def test_frequency_pooled_twice_more_than_time(self):
        g = build(ArchConfig("fsfcnn", input_shape=CROPPED))
        last_conv_shape = g.shapes["relu11"]
        assert last_conv_shape[:2] == (100, 8)

    def test_fewer_time_poolings_than_fcnn(self):
        fs = build(ArchConfig("fsfcnn", input_shape=CROPPED))
        fc = build(ArchConfig("fcnn", input_shape=CROPPED))
        def time_pools(g):
            return sum(1 for p in _kinds(g, "maxpool") if p.attrs["pool"][0] > 1)
        assert time_pools(fs) == 2
        assert time_pools(fc) == 3


class TestFsfcnnSplit:
    def test_split_concat_structure(self):
        g = build(ArchConfig("fsfcnn_s", input_shape=CROPPED))
        splits = _kinds(g, "freq_split")
        assert len(splits) == 2
        assert {s.attrs["part"] for s in splits} == {0, 1}
        assert g.shapes["band_lo"][1] == 64
        (merge,) = _kinds(g, "concat")
        assert merge.attrs["axis"] == "channel"

    def test_two_post_concat_convs(self):
        g = build(ArchConfig("fsfcnn_s", input_shape=CROPPED))
        names = [s.name for s in g.layers]
        after = names[names.index("merge") :]
        assert sum(1 for n in after if n.startswith("conv")) == 2

    def test_branches_have_independent_weights(self):
        g = build(ArchConfig("fsfcnn_s", width_mult=0.1, input_shape=CROPPED))
        assert not np.array_equal(g.params["convlo1"]["w"], g.params["convhi1"]["w"])

    def test_odd_frequency_rejected(self):
        with pytest.raises(GraphError, match="'band_lo': cannot halve odd frequency extent 127"):
            build(ArchConfig("fsfcnn_s", input_shape=(400, 127, 3)))


class TestResnet:
    def test_seventeen_convs(self):
        g = build(ArchConfig("resnet", input_shape=CROPPED))
        assert len(_kinds(g, "conv2d")) == 17

    def test_no_layer_subsamples_frequency(self):
        g = build(ArchConfig("resnet", input_shape=CROPPED))
        assert not _kinds(g, "maxpool")
        for s in _kinds(g, "conv2d"):
            sh, sw = np.broadcast_to(s.attrs.get("stride", (1, 1)), (2,))
            assert (sh, sw) == (1, 1)

    def test_branches_merge_to_full_band(self):
        g = build(ArchConfig("resnet", width_mult=0.25, input_shape=CROPPED))
        assert g.shapes["merge"][1] == 128

    def test_identity_shortcuts_pair_up(self):
        g = build(ArchConfig("resnet", input_shape=CROPPED))
        assert len(_kinds(g, "residual_add")) == 8

    def test_doubled_filters_quadruple_params(self):
        base = build(ArchConfig("resnet", width_mult=0.5, input_shape=CROPPED))
        dbl = build(ArchConfig("resnet_d", width_mult=0.5, input_shape=CROPPED))
        ratio = _param_count(dbl, trainable_only=True) / _param_count(base, trainable_only=True)
        assert 3.5 <= ratio <= 4.05

    def test_registry_names(self):
        assert build(ArchConfig("resnet_d", width_mult=0.25, input_shape=CROPPED)).name == "resnet_d"


class TestMobnet:
    def test_depthwise_blocks_present(self):
        g = build(ArchConfig("mobnet", input_shape=MONO))
        assert len(_kinds(g, "depthwise_conv2d")) == 8

    def test_depthwise_param_count_is_kkc(self):
        g = build(ArchConfig("mobnet", input_shape=MONO))
        dw = _kinds(g, "depthwise_conv2d")[0]
        w = g.params[dw.name]["w"]
        c_in = g.shapes[dw.inputs[0]][2]
        assert w.shape == (3, 3, c_in, 1)
        assert w.size == 9 * c_in

    def test_residuals_only_on_matching_stride1_blocks(self):
        g = build(ArchConfig("mobnet", input_shape=MONO))
        adds = [s.name for s in _kinds(g, "residual_add")]
        assert adds == ["addb1", "addb3", "addb5", "addb7"]

    def test_stem_halves_both_axes(self):
        g = build(ArchConfig("mobnet", input_shape=MONO))
        assert g.shapes["relu_stem"][:2] == (212, 64)

    def test_float_checkpoint_under_budget(self, tmp_path):
        g = build(ArchConfig("mobnet", input_shape=MONO))
        assert _float_ckpt_bytes(tmp_path, g) < 3.3 * 1024 * 1024

    def test_eval_scores_do_not_depend_on_the_batch(self):
        g = build(ArchConfig("mobnet", width_mult=0.25, n_classes=3, input_shape=(16, 32, 3)), seed=2)
        x = np.random.default_rng(20200701).normal(0.0, 1.0, (3, 16, 32, 3)).astype(np.float32)
        x[1] *= 3.0  # a louder item shares the batch
        batch = forward(g, x, "eval")
        for i in range(len(x)):
            assert np.allclose(forward(g, x[i : i + 1], "eval")[0], batch[i], rtol=0, atol=1e-6)


class TestSmallFcnn:
    def test_float_checkpoint_under_budget(self, tmp_path):
        g = build(ArchConfig("small_fcnn", input_shape=CROPPED))
        assert _float_ckpt_bytes(tmp_path, g) < 2.9 * 1024 * 1024

    def test_same_topology_as_fcnn_fewer_params(self):
        small = build(ArchConfig("small_fcnn", input_shape=CROPPED))
        full = build(ArchConfig("fcnn", input_shape=CROPPED))
        assert [s.kind for s in small.layers] == [s.kind for s in full.layers]
        assert _param_count(small) < _param_count(full)


class TestAllBuilders:
    @pytest.mark.parametrize("arch", ["fcnn", "fsfcnn", "fsfcnn_s", "resnet", "resnet_d", "mobnet", "small_fcnn"])
    def test_validates_on_full_clip_input_dims(self, arch):
        for shape in (MONO, CROPPED, STEREO):
            g = build(ArchConfig(arch, width_mult=0.25, input_shape=shape))
            assert g.output_shape == (10,)

    @pytest.mark.parametrize("arch", ["fcnn", "fsfcnn_s", "resnet", "mobnet"])
    def test_tiny_forward_produces_distribution(self, arch):
        shape = (16, 32, 3)
        g = build(ArchConfig(arch, width_mult=0.25, input_shape=shape), seed=1)
        x = np.random.default_rng(0).standard_normal((2, *shape)).astype(np.float32)
        out = forward(g, x)
        assert out.shape == (2, 10)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_same_config_same_structure_and_params(self):
        a = build(ArchConfig("fcnn", width_mult=0.25, input_shape=CROPPED), seed=5)
        b = build(ArchConfig("fcnn", width_mult=0.25, input_shape=CROPPED), seed=5)
        assert [s.name for s in a.layers] == [s.name for s in b.layers]
        assert np.array_equal(a.params["conv1"]["w"], b.params["conv1"]["w"])

    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigError):
            ArchConfig("vgg")
        with pytest.raises(ConfigError):
            ArchConfig("fcnn", width_mult=0.0)
        with pytest.raises(ConfigError):
            ArchConfig("fcnn", n_classes=1)
