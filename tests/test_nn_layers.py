"""Per-layer unit tests plus a light gradient-check sweep.

The full 20-trial finite-difference sweep lives in the acceptance
suite; here each layer kind gets two seeds as a fast regression guard.
"""

import zlib

import numpy as np
import pytest

from ascpipe.errors import GraphError, NumericError
from ascpipe.nn import LayerSpec, ModelGraph, forward, initialize, run_forward
from ascpipe.nn.engine import backward, check_finite, cross_entropy

from gradcheck import LAYER_CASES, TOL, max_rel_error, max_rel_error_cross_entropy


def _spec(kind, name, inputs, **attrs):
    return LayerSpec(kind, name, inputs, attrs)


@pytest.mark.parametrize("label,case", LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
@pytest.mark.parametrize("trial", [0, 1])
def test_gradients_match_finite_differences(label, case, trial):
    rng = np.random.default_rng([zlib.crc32(label.encode()), trial])
    graph, x, mode = case(rng, seed=trial)
    assert max_rel_error(graph, x, rng, mode=mode) <= TOL


def test_fused_cross_entropy_gradients():
    rng = np.random.default_rng(77)
    graph = initialize(
        ModelGraph(
            "t_ce",
            (4, 4, 2),
            [
                _spec("conv2d", "conv", ("input",), filters=3, use_bias=True),
                _spec("batchnorm", "bn", ("conv",)),
                _spec("relu", "relu", ("bn",)),
                _spec("global_avg_pool", "gap", ("relu",)),
                _spec("dense", "fc", ("gap",), units=4),
                _spec("softmax", "probs", ("fc",)),
            ],
        ),
        seed=3,
    )
    x = rng.standard_normal((3, 4, 4, 2))
    targets = np.eye(4)[rng.integers(0, 4, 3)]
    assert max_rel_error_cross_entropy(graph, x, targets) <= TOL


class TestForwardContracts:
    def _head_graph(self, k=10):
        return initialize(
            ModelGraph(
                "head",
                (2, 2, 3),
                [
                    _spec("global_avg_pool", "gap", ("input",)),
                    _spec("dense", "fc", ("gap",), units=k),
                    _spec("softmax", "probs", ("fc",)),
                ],
            ),
            seed=0,
        )

    def test_zero_weights_give_uniform_output(self):
        g = self._head_graph(k=10)
        g.params["fc"]["w"][:] = 0.0
        g.params["fc"]["b"][:] = 0.0
        out = forward(g, np.random.default_rng(0).standard_normal((4, 2, 2, 3)))
        assert np.allclose(out, 0.1, atol=1e-7)

    def test_identical_inputs_identical_rows(self):
        g = self._head_graph()
        x = np.tile(np.random.default_rng(1).standard_normal((1, 2, 2, 3)), (5, 1, 1, 1))
        out = forward(g, x, "eval")
        assert np.all(out == out[0])

    def test_dense_softmax_matches_hand_computation(self):
        g = self._head_graph(k=3)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 2, 2, 3)).astype(np.float32)
        out = forward(g, x)
        feats = x.mean(axis=(1, 2))
        logits = feats @ g.params["fc"]["w"] + g.params["fc"]["b"]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        want = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(out, want, atol=1e-6)

    def test_softmax_rows_are_distributions(self):
        g = self._head_graph()
        out = forward(g, np.random.default_rng(3).standard_normal((6, 2, 2, 3)))
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_wrong_input_shape_reports_graph_name(self):
        g = self._head_graph()
        with pytest.raises(GraphError, match="head"):
            forward(g, np.zeros((2, 3, 2, 3)))

    def test_nan_activation_raises_numeric_error(self):
        g = self._head_graph()
        g.params["fc"]["w"][0, 0] = np.inf
        with pytest.raises(NumericError, match=r"layer 'fc' in batch rows \[0\]"):
            forward(g, np.ones((1, 2, 2, 3)))

    def test_finite_check_names_the_bad_rows(self):
        out = np.zeros((4, 2, 3))
        out[1, 0, 2] = np.nan
        out[3, 1, 0] = -np.inf
        with pytest.raises(NumericError, match=r"layer 'conv' in batch rows \[1, 3\]"):
            check_finite("conv", out)


class TestCrossEntropy:
    def test_uniform_prediction_loss_is_log_k(self):
        p = np.full((8, 10), 0.1)
        t = np.eye(10)[np.arange(8)]
        assert abs(cross_entropy(p, t) - np.log(10)) < 1e-9

    def test_confident_correct_prediction_near_zero(self):
        p = np.full((1, 4), 1e-9)
        p[0, 2] = 1.0 - 3e-9
        t = np.zeros((1, 4))
        t[0, 2] = 1.0
        assert cross_entropy(p, t) < 1e-6


class TestBatchnorm:
    def _graph(self):
        return initialize(
            ModelGraph("bn", (3, 2, 2), [_spec("batchnorm", "bn", ("input",))]), 0
        )

    def test_train_stats_match_hand_computation(self):
        g = self._graph()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3, 2, 2))
        out, _ = run_forward(g, x, "train")
        mean = x.mean(axis=(0, 1, 2))
        var = x.var(axis=(0, 1, 2))
        want = (x - mean) / np.sqrt(var + 1e-5)
        assert np.allclose(out, want, atol=1e-6)
        assert np.allclose(out.mean(axis=(0, 1, 2)), 0.0, atol=1e-6)

    def test_running_stats_updated_with_momentum(self):
        g = self._graph()
        x = np.random.default_rng(6).standard_normal((4, 3, 2, 2))
        run_forward(g, x, "train")
        want_mean = 0.1 * x.mean(axis=(0, 1, 2))
        assert np.allclose(g.params["bn"]["running_mean"], want_mean, atol=1e-6)

    def test_eval_is_deterministic_affine(self):
        g = self._graph()
        g.params["bn"]["running_mean"] = np.array([1.0, -1.0], dtype=np.float32)
        g.params["bn"]["running_var"] = np.array([4.0, 0.25], dtype=np.float32)
        g.params["bn"]["gamma"] = np.array([2.0, 3.0], dtype=np.float32)
        g.params["bn"]["beta"] = np.array([0.5, -0.5], dtype=np.float32)
        x = np.zeros((1, 3, 2, 2))
        out = forward(g, x, "eval")
        want0 = 2.0 * (0.0 - 1.0) / np.sqrt(4.0 + 1e-5) + 0.5
        want1 = 3.0 * (0.0 + 1.0) / np.sqrt(0.25 + 1e-5) - 0.5
        assert np.allclose(out[..., 0], want0, atol=1e-6)
        assert np.allclose(out[..., 1], want1, atol=1e-6)


class TestPoolShapes:
    def test_2x2_halves_both_axes_1x2_only_freq(self):
        g = ModelGraph(
            "pools",
            (8, 8, 1),
            [
                _spec("maxpool", "p22", ("input",), pool=(2, 2)),
                _spec("maxpool", "p12", ("p22",), pool=(1, 2)),
            ],
        )
        assert g.shapes["p22"] == (4, 4, 1)
        assert g.shapes["p12"] == (4, 2, 1)

    def test_odd_extents_floor_and_drop_tail(self):
        g = initialize(
            ModelGraph("mp", (5, 4, 1), [_spec("maxpool", "p", ("input",), pool=(2, 2))]), 0
        )
        assert g.shapes["p"] == (2, 2, 1)
        x = np.zeros((1, 5, 4, 1))
        x[0, 4, :, 0] = 100.0  # the dropped tail row must not leak into any window
        assert forward(g, x).max() == 0.0

    def test_pool_larger_than_map_rejected(self):
        with pytest.raises(GraphError, match="pool"):
            ModelGraph("bad", (1, 4, 1), [_spec("maxpool", "p", ("input",), pool=(2, 2))])

    def test_maxpool_picks_window_maxima(self):
        g = initialize(
            ModelGraph("mp", (2, 2, 1), [_spec("maxpool", "p", ("input",), pool=(2, 2))]), 0
        )
        x = np.array([[1.0, 7.0], [3.0, 5.0]]).reshape(1, 2, 2, 1)
        assert forward(g, x)[0, 0, 0, 0] == 7.0


class TestGraphValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            ModelGraph(
                "dup",
                (2, 2, 1),
                [_spec("relu", "a", ("input",)), _spec("relu", "a", ("a",))],
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError, match="kind"):
            ModelGraph("bad", (2, 2, 1), [_spec("tanh", "a", ("input",))])

    def test_undefined_input_rejected(self):
        with pytest.raises(GraphError, match="ghost"):
            ModelGraph("bad", (2, 2, 1), [_spec("relu", "a", ("ghost",))])

    def test_dangling_layer_rejected(self):
        with pytest.raises(GraphError, match="feed nothing"):
            ModelGraph(
                "dangle",
                (2, 2, 1),
                [
                    _spec("relu", "a", ("input",)),
                    _spec("relu", "unused", ("input",)),
                    _spec("relu", "b", ("a",)),
                ],
            )

    def test_residual_shape_mismatch_rejected(self):
        with pytest.raises(GraphError, match="residual"):
            ModelGraph(
                "res",
                (2, 4, 1),
                [
                    _spec("freq_split", "half", ("input",), part=0),
                    _spec("residual_add", "add", ("half", "input")),
                ],
            )

    def test_odd_frequency_split_rejected(self):
        with pytest.raises(GraphError, match="odd"):
            ModelGraph("odd", (2, 3, 1), [_spec("freq_split", "half", ("input",), part=0)])


class TestDropout:
    def _graph(self, rate=0.5):
        return initialize(
            ModelGraph("dr", (8, 8, 4), [_spec("dropout", "drop", ("input",), rate=rate)]), 0
        )

    def test_eval_mode_is_identity(self):
        g = self._graph()
        x = np.random.default_rng(0).standard_normal((2, 8, 8, 4))
        assert np.array_equal(forward(g, x, "eval"), x)

    def test_train_mode_zeroes_and_rescales(self):
        g = self._graph(rate=0.5)
        x = np.ones((4, 8, 8, 4))
        out = forward(g, x, "train", drop_key=(0, 0))
        zero_frac = float((out == 0).mean())
        assert 0.4 < zero_frac < 0.6
        nonzero = out[out != 0]
        assert np.allclose(nonzero, 2.0)

    def test_same_key_same_mask(self):
        g = self._graph()
        x = np.ones((2, 8, 8, 4))
        a = forward(g, x, "train", drop_key=(3, 9))
        b = forward(g, x, "train", drop_key=(3, 9))
        c = forward(g, x, "train", drop_key=(3, 10))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSplitConcat:
    def test_split_halves_and_concat_restores(self):
        g = initialize(
            ModelGraph(
                "sc",
                (2, 6, 2),
                [
                    _spec("freq_split", "lo", ("input",), part=0),
                    _spec("freq_split", "hi", ("input",), part=1),
                    _spec("concat", "cat", ("lo", "hi"), axis="freq"),
                ],
            ),
            0,
        )
        x = np.random.default_rng(1).standard_normal((3, 2, 6, 2))
        assert np.array_equal(forward(g, x), x)

    def test_channel_concat_stacks_channels(self):
        g = ModelGraph(
            "cc",
            (2, 6, 3),
            [
                _spec("freq_split", "lo", ("input",), part=0),
                _spec("freq_split", "hi", ("input",), part=1),
                _spec("concat", "cat", ("lo", "hi"), axis="channel"),
            ],
        )
        assert g.shapes["cat"] == (2, 3, 6)


def test_backward_requires_softmax_head():
    g = initialize(
        ModelGraph("nohead", (2, 2, 1), [_spec("global_avg_pool", "gap", ("input",))]), 0
    )
    with pytest.raises(GraphError, match="softmax"):
        backward(g, np.zeros((1, 2, 2, 1)), np.zeros((1, 1)))
