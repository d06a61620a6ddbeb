"""Per-layer unit tests plus a light gradient-check sweep.

The full 20-trial finite-difference sweep lives in the acceptance
suite; here each layer kind gets two seeds as a fast regression guard.
"""

import importlib
import zlib

import numpy as np
import pytest

from ascpipe import zoo
from ascpipe.errors import GraphError, NumericError
from ascpipe.nn import (
    LayerSpec,
    ModelGraph,
    OnlineAugment,
    ScheduleConfig,
    forward,
    initialize,
    run_forward,
    save_checkpoint,
    train,
)
from ascpipe.nn import layers as L
from ascpipe.nn.engine import backward, check_finite, cross_entropy, run_backward
from ascpipe.nn.ops import OPS, _pads

from gradcheck import (
    H,
    LAYER_CASES,
    TOL,
    max_rel_error,
    max_rel_error_cross_entropy,
    promote_to_float64,
)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize(
        "shape", [(4, 400, 64, 16), (2, 7, 6, 3), (8, 50, 32, 22), (5, 33, 17, 7), (3, 10)]
    )
    def test_train_forward_is_bit_identical_to_mean_and_var(self, shape, dtype):
        # the variance is one einsum over the deviations in the output
        # array; x.mean and x.var, which the kernel used to call, are the reference
        rng = np.random.default_rng(list(shape))
        x = (3.0 * rng.standard_normal(shape) + 1.0).astype(dtype)
        gamma, beta, rm, rv = (rng.standard_normal(shape[-1]).astype(dtype) for _ in range(4))
        out, cache, new_rm, new_rv = L.batchnorm_forward(x, gamma, beta, rm, np.abs(rv), "train")
        axes = tuple(range(x.ndim - 1))
        mean, var = x.mean(axis=axes), x.var(axis=axes)
        inv_std = 1.0 / np.sqrt(var + L.BN_EPS)
        want = x - mean
        want *= inv_std
        want *= gamma
        want += beta
        assert out.dtype == dtype and np.array_equal(out, want)
        assert np.array_equal(cache[1], mean) and np.array_equal(cache[2], inv_std)
        m = 0.9  # the default momentum
        assert np.array_equal(new_rm, (m * rm + (1.0 - m) * mean).astype(dtype))
        assert np.array_equal(new_rv, (m * np.abs(rv) + (1.0 - m) * var).astype(dtype))

    def test_train_backward_keeps_its_precision_at_a_large_mean(self):
        # at mean 100 and spread 1 the un-centred form loses dgamma to
        # cancellation; the errors against a float64 run are 1.94e-6 (dx)
        # and 6.11e-5 (dgamma), and were 1.93e-6 and 6.13e-5 before the
        # backward took its centred affine form
        rng = np.random.default_rng(0)
        shape, c = (4, 16, 16, 8), 8
        x = (100 + rng.standard_normal(shape)).astype(np.float32)
        dout = rng.standard_normal(shape).astype(np.float32)
        gamma = rng.uniform(0.5, 1.5, c).astype(np.float32)
        beta = rng.standard_normal(c).astype(np.float32)
        grads = []
        for dtype in (np.float32, np.float64):
            args = [a.astype(dtype) for a in (x, gamma, beta, np.zeros(c), np.ones(c))]
            _, cache, _, _ = L.batchnorm_forward(*args, "train")
            grads.append(L.batchnorm_backward(dout.astype(dtype), cache))
        (dx, dgamma, _), (dx64, dgamma64, _) = grads
        assert np.abs(dx - dx64).max() <= 1.5 * 1.93e-6 * np.abs(dx64).max()
        assert np.abs(dgamma - dgamma64).max() <= 1.5 * 6.13e-5 * np.abs(dgamma64).max()

    def test_running_stats_updated_with_momentum(self):
        g = self._graph()
        x = np.random.default_rng(6).standard_normal((4, 3, 2, 2))
        run_forward(g, x, "train")
        want_mean = 0.1 * x.mean(axis=(0, 1, 2))
        assert np.allclose(g.params["bn"]["running_mean"], want_mean, atol=1e-6)

    def test_eval_backward_matches_finite_differences(self):
        # gradcheck's batchnorm case runs in train mode; eval mode normalizes
        # by the running stats, here random, as are gamma and beta
        g = self._graph()
        rng = np.random.default_rng(8)
        g.params["bn"]["running_mean"] = rng.standard_normal(2)
        g.params["bn"]["running_var"] = rng.uniform(0.25, 4.0, 2)
        g.params["bn"]["gamma"] = rng.uniform(0.5, 2.0, 2)
        g.params["bn"]["beta"] = rng.standard_normal(2)
        x = rng.standard_normal((4, 3, 2, 2))
        assert max_rel_error(g, x, rng, mode="eval") <= TOL

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

    def test_backward_routes_each_gradient_to_its_window_maximum(self):
        # odd extents: the dropped tail row and column get no gradient
        rng = np.random.default_rng(3)
        x = rng.permutation(2 * 5 * 7 * 3).reshape(2, 5, 7, 3).astype(np.float32)
        out, cache = L.maxpool_forward(x, 2, 3)
        dout = rng.standard_normal(out.shape).astype(np.float32)
        want = np.zeros_like(x)
        for b, i, j, c in np.ndindex(out.shape):
            p, q = np.unravel_index(x[b, 2 * i : 2 * i + 2, 3 * j : 3 * j + 3, c].argmax(), (2, 3))
            want[b, 2 * i + p, 3 * j + q, c] = dout[b, i, j, c]
        assert np.array_equal(L.maxpool_backward(dout, cache), want)

    @staticmethod
    def _first_max(x, ph, pw):
        """The row-major index of each window's first maximum, by argmax."""
        out = np.zeros((x.shape[0], x.shape[1] // ph, x.shape[2] // pw, x.shape[3]), dtype=int)
        for b, i, j, c in np.ndindex(out.shape):
            out[b, i, j, c] = x[b, ph * i : ph * i + ph, pw * j : pw * j + pw, c].argmax()
        return out

    @pytest.mark.parametrize("pool", [(2, 2), (1, 2), (2, 3)])
    def test_the_index_is_each_windows_first_maximum(self, pool):
        # few distinct values, so most windows hold a tie
        x = np.random.default_rng(5).integers(0, 3, (2, 5, 7, 3)).astype(np.float32)
        _, (idx, *_) = L.maxpool_forward(x, *pool)
        assert np.array_equal(idx, self._first_max(x, *pool))

    def test_an_all_equal_window_indexes_its_first_offset(self):
        _, (idx, *_) = L.maxpool_forward(np.full((1, 4, 6, 2), -1.5), 2, 3)
        assert idx.shape == (1, 2, 2, 2) and not idx.any()

    @pytest.mark.parametrize("pool", [(2, 2), (1, 2), (16, 17)])
    def test_the_index_is_the_smallest_type_that_holds_it(self, pool):
        # every zoo pool indexes in uint8; 16 x 17 = 272 offsets need uint16
        _, (idx, *_) = L.maxpool_forward(np.zeros((1, 16, 17, 1)), *pool)
        assert idx.dtype == (np.uint16 if pool == (16, 17) else np.uint8)

    @pytest.mark.parametrize("offset", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_a_nan_at_any_window_offset_is_named(self, offset):
        # np.maximum carries a NaN into the running max, where np.fmax
        # would drop it without a word
        g = initialize(
            ModelGraph("mp", (4, 4, 1), [_spec("maxpool", "pool", ("input",), pool=(2, 2))]), 0
        )
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        x[0, 2 + offset[0], 2 + offset[1], 0] = np.nan
        with pytest.raises(NumericError, match=r"non-finite activation at layer 'pool'"):
            forward(g, x)

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

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_boolean_mask_gives_the_float_mask_values(self, dtype, rate):
        g = self._graph(rate)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 8, 8, 4)).astype(dtype)
        dout = rng.standard_normal(x.shape).astype(dtype)
        out, tape = run_forward(g, x, "train", (3, 9))
        bits, keep = tape.caches["drop"]
        assert bits.dtype == np.uint8 and bits.shape == (-(-x.size // 8),) and keep == 1.0 - rate
        _, dx = run_backward(g, tape, dout)
        # the float mask the cache held before, from the layer's seed (key..., index)
        mask = (np.random.default_rng([3, 9, 0]).random(x.shape) < 1.0 - rate).astype(dtype)
        mask = mask / (1.0 - rate)
        assert out.dtype == dx.dtype == dtype
        assert np.array_equal(out, x * mask) and np.array_equal(dx, dout * mask)
        out, tape = run_forward(g, x, "eval")
        assert out is x and tape.caches == {"drop": None}


# shapes of 9, 105 and 54 elements, none a multiple of 8
ODD_SHAPES = [(1, 3, 3, 1), (3, 5, 7, 1), (2, 3, 3, 3)]


class TestPackedMasks:
    """relu and dropout keep one bit per element of their masks."""

    @pytest.mark.parametrize("shape", ODD_SHAPES)
    def test_relu_caches_a_bit_per_element(self, shape):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(shape).astype(np.float32)
        dout = rng.standard_normal(shape).astype(np.float32)
        out, cache = L.relu_forward(x)
        assert cache.nbytes <= -(-x.size // 8)
        assert np.array_equal(out, np.maximum(x, 0))
        assert np.array_equal(L.relu_backward(dout, cache), dout * (x > 0))

    @pytest.mark.parametrize("shape", ODD_SHAPES)
    def test_dropout_caches_a_bit_per_element(self, shape):
        x = np.random.default_rng(3).standard_normal(shape)
        out, (bits, keep) = L.dropout_forward(x, 0.5, "train", np.random.default_rng(4))
        assert bits.nbytes <= -(-x.size // 8) and keep == 0.5
        kept = np.random.default_rng(4).random(shape) < 0.5
        assert np.array_equal(out, x * (kept / 0.5))
        dout = np.ones(shape)
        assert np.array_equal(L.dropout_backward(dout, (bits, keep)), kept / 0.5)

    def test_every_mask_on_a_zoo_tape_is_packed(self):
        g = zoo.build(zoo.ArchConfig("small_fcnn", 0.25, 10, (45, 38, 3)), 0)
        x = np.random.default_rng(0).standard_normal((3, 45, 38, 3)).astype(np.float32)
        _, tape = run_forward(g, x, "train", (0, 0))
        masked = [s for s in g.layers if s.kind in ("relu", "dropout")]
        assert {s.kind for s in masked} == {"relu", "dropout"}
        for spec in masked:
            cache = tape.caches[spec.name]
            bits = cache if spec.kind == "relu" else cache[0]
            n = 3 * int(np.prod(g.shapes[spec.name]))
            assert bits.nbytes <= -(-n // 8), spec.name


# the relu and dropout kernels that cached a byte per mask element, kept as
# references: the packed masks must give the same bytes in every gradient
def _bool_relu_forward(x):
    return np.maximum(x, 0), x > 0


def _bool_relu_backward(dout, mask):
    return dout * mask


def _bool_dropout_forward(x, rate, mode, rng):
    if mode != "train" or rate == 0.0:
        return x, None
    keep = 1.0 - rate
    kept = rng.random(x.shape) < keep
    return x * (kept.astype(x.dtype) / keep), (kept, keep)


def _bool_dropout_backward(dout, cache):
    if cache is None:
        return dout
    kept, keep = cache
    return dout * (kept.astype(dout.dtype) / keep)


def _loss_and_grads(arch, dtype, step=backward):
    g = zoo.build(zoo.ArchConfig(arch, 0.25, 10, (45, 38, 3)), 0)
    # batchnorm away from its identity init, where a scale of 1 and a
    # shift of 0 would hide an op out of order
    rng = np.random.default_rng(4)
    for spec in g.layers:
        if spec.kind == "batchnorm":
            p = g.params[spec.name]
            p["gamma"] = rng.uniform(0.5, 1.5, p["gamma"].shape).astype(np.float32)
            p["beta"] = rng.uniform(-0.5, 0.5, p["beta"].shape).astype(np.float32)
    if dtype == np.float64:
        promote_to_float64(g)
    x = np.random.default_rng(1).standard_normal((3, 45, 38, 3)).astype(dtype)
    t = np.eye(10, dtype=dtype)[np.arange(3)]
    loss, grads, _ = step(g, x, t, (2, 5))
    return loss, grads


def _assert_same_bytes(got, want):
    (loss, grads), (want_loss, want) = got, want
    assert np.array_equal(loss, want_loss)
    assert grads.keys() == want.keys()
    for name, store in want.items():
        assert store.keys() == grads[name].keys(), name
        for key, grad in store.items():
            assert grads[name][key].dtype == grad.dtype, (name, key)
            assert np.array_equal(grads[name][key], grad), (name, key)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("arch", zoo.ARCH_NAMES)
def test_packed_masks_give_the_bytes_of_boolean_masks(arch, dtype, monkeypatch):
    got = _loss_and_grads(arch, dtype)
    monkeypatch.setattr(L, "relu_forward", _bool_relu_forward)
    monkeypatch.setattr(L, "relu_backward", _bool_relu_backward)
    monkeypatch.setattr(L, "dropout_forward", _bool_dropout_forward)
    monkeypatch.setattr(L, "dropout_backward", _bool_dropout_backward)
    _assert_same_bytes(got, _loss_and_grads(arch, dtype))


def _every_conv_input_kept(graph, x, targets, drop_key):
    """engine.backward as it was before conv inputs were rebuilt, kept as
    the reference: the op table's own forwards, passed as
    ``layer_forward``, store every cache as its kernel returned it, each
    conv2d and depthwise cache with the layer's input."""

    def op_forward(spec, params, ins, mode, seed):
        return OPS[spec.kind].forward(spec, params, ins, mode, seed)

    probs, tape = run_forward(graph, x, "train", drop_key, op_forward)
    assert tape.chains == {}
    seed = (probs - targets) / len(x)
    grads, _ = run_backward(graph, tape, seed, skip_last=True, input_grad=False)
    return cross_entropy(probs, targets), grads, tape


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("arch", zoo.ARCH_NAMES)
def test_rebuilt_conv_inputs_give_the_bytes_of_kept_ones(arch, dtype):
    _assert_same_bytes(
        _loss_and_grads(arch, dtype), _loss_and_grads(arch, dtype, _every_conv_input_kept)
    )


def test_rebuilt_conv_inputs_train_the_checkpoint_of_kept_ones(tmp_path, monkeypatch):
    # a random crop, SpecAugment masks and mixup change every batch
    online = OnlineAugment(crop_len=40, mixup_alpha=0.4, time_mask_frac=0.1, freq_mask_frac=0.1)
    xs = np.random.default_rng(2).standard_normal((6, 45, 38, 3)).astype(np.float32)
    ys = np.eye(10, dtype=np.float32)[np.arange(6)]
    blobs = []
    for _ in range(2):
        g = zoo.build(zoo.ArchConfig("small_fcnn", 0.25, 10, (40, 38, 3)), 0)
        train(g, xs, ys, ScheduleConfig(first_cycle_len=2), 2, seed=3, batch_size=3, online=online)
        save_checkpoint(tmp_path / "m.ascm", g)
        blobs.append((tmp_path / "m.ascm").read_bytes())
        monkeypatch.setattr(importlib.import_module("ascpipe.nn.train"), "backward", _every_conv_input_kept)
    assert blobs[0] == blobs[1]


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


# ---------------------------------------------------------------------------
# conv2d and depthwise kernels against the formulas they replaced: the
# 6-D einsum depthwise and the general im2col conv, kept here as references


def _ref_windows(xp, kh, kw, sh, sw):
    b, hp, wp, c = xp.shape
    shape = (b, (hp - kh) // sh + 1, (wp - kw) // sw + 1, kh, kw, c)
    sb, s1, s2, sc = xp.strides
    return np.lib.stride_tricks.as_strided(xp, shape, (sb, s1 * sh, s2 * sw, s1, s2, sc))


def _ref_pad(x, kh, kw, stride, padding):
    pads = []
    for n, k, s in zip(x.shape[1:3], (kh, kw), stride):
        total = 0 if padding == "valid" else max((-(-n // s) - 1) * s + k - n, 0)
        pads.append((total // 2, total - total // 2))
    return np.pad(x, ((0, 0), *pads, (0, 0))), pads


def _ref_scatter(dwin, xp, pads, sh, sw):
    b, ho, wo, kh, kw, c = dwin.shape
    dxp = np.zeros(xp.shape, dtype=dwin.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + ho * sh : sh, j : j + wo * sw : sw, :] += dwin[:, :, :, i, j, :]
    (t0, t1), (f0, f1) = pads
    return dxp[:, t0 : xp.shape[1] - t1, f0 : xp.shape[2] - f1, :]


def _ref_conv2d(x, w, b, stride, padding, dout):
    """(out, dx, dw, db) of the general im2col conv."""
    kh, kw, _, cout = w.shape
    xp, pads = _ref_pad(x, kh, kw, stride, padding)
    win = _ref_windows(xp, kh, kw, *stride)
    cols = win.reshape(win.shape[0], win.shape[1], win.shape[2], -1)
    out = cols @ w.reshape(-1, cout) + b
    dw = cols.reshape(-1, cols.shape[-1]).T @ dout.reshape(-1, cout)
    dwin = (dout @ w.reshape(-1, cout).T).reshape(win.shape)
    return out, _ref_scatter(dwin, xp, pads, *stride), dw.reshape(w.shape), dout.sum(axis=(0, 1, 2))


def _ref_depthwise(x, w, b, stride, padding, dout):
    """(out, dx, dw, db) of the 6-D einsum depthwise."""
    kh, kw, _, mult = w.shape
    xp, pads = _ref_pad(x, kh, kw, stride, padding)
    win = _ref_windows(xp, kh, kw, *stride)
    out = np.einsum("bijpqc,pqcm->bijcm", win, w, optimize=True)
    out = out.reshape(out.shape[0], out.shape[1], out.shape[2], -1) + b
    dout5 = dout.reshape(dout.shape[0], dout.shape[1], dout.shape[2], -1, mult)
    dw = np.einsum("bijpqc,bijcm->pqcm", win, dout5, optimize=True)
    dwin = np.einsum("bijcm,pqcm->bijpqc", dout5, w, optimize=True)
    return out, _ref_scatter(dwin, xp, pads, *stride), dw, dout.sum(axis=(0, 1, 2))


def _run_kernel(kind, x, w, b, stride, padding, dout):
    fwd, bwd = {
        "conv2d": (L.conv2d_forward, L.conv2d_backward),
        "depthwise": (L.depthwise_forward, L.depthwise_backward),
    }[kind]
    _, pads = _ref_pad(x, *w.shape[:2], stride, padding)
    out, cache = fwd(x, w, b, stride, pads)
    return (out, *bwd(dout, w, cache))


def _kernel_inputs(
    kind, stride, padding, mult, dtype, integer, kernel=(3, 3), channels=(3, 4), height=7
):
    """Seeded (x, w, b, dout), x of shape (2, height, 6, cin); integer=True
    draws whole numbers in -127..127. A conv2d maps channels[0] to
    channels[1]; a depthwise reads 3."""
    rng = np.random.default_rng([len(kind), *stride, len(padding), mult, int(integer)])
    draw = (lambda s: rng.integers(-127, 128, s)) if integer else rng.standard_normal
    cin, cout = (3, 3 * mult) if kind == "depthwise" else channels
    x = draw((2, height, 6, cin)).astype(dtype)
    w = draw((*kernel, cin, mult if kind == "depthwise" else cout)).astype(dtype)
    b = draw((cout,)).astype(dtype)
    xp, _ = _ref_pad(x, *kernel, stride, padding)
    ho, wo = ((n - k) // s + 1 for n, k, s in zip(xp.shape[1:3], kernel, stride))
    return x, w, b, draw((2, ho, wo, cout)).astype(dtype)


KERNEL_GEOMETRY = [
    (stride, padding)
    for stride in ((1, 1), (2, 2), (1, 2))
    for padding in ("same", "valid")
]
GEOMETRY_IDS = [f"stride{sh}{sw}-{padding}" for (sh, sw), padding in KERNEL_GEOMETRY]


@pytest.mark.parametrize("stride,padding", KERNEL_GEOMETRY, ids=GEOMETRY_IDS)
@pytest.mark.parametrize("mult", [1, 2], ids=["mult1", "mult2"])
def test_depthwise_matches_the_einsum_formula(stride, padding, mult):
    args = _kernel_inputs("depthwise", stride, padding, mult, np.float32, integer=False)
    got = _run_kernel("depthwise", *args[:3], stride, padding, args[3])
    want = _ref_depthwise(*args[:3], stride, padding, args[3])
    for g, r in zip(got, want):
        assert g.dtype == r.dtype and g.shape == r.shape
        np.testing.assert_allclose(g, r, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("stride,padding", KERNEL_GEOMETRY, ids=GEOMETRY_IDS)
@pytest.mark.parametrize("mult", [1, 2], ids=["mult1", "mult2"])
def test_depthwise_is_exact_on_integer_valued_float64(stride, padding, mult):
    # quant.py's exact-accumulation promise rests on this
    args = _kernel_inputs("depthwise", stride, padding, mult, np.float64, integer=True)
    got = _run_kernel("depthwise", *args[:3], stride, padding, args[3])
    want = _ref_depthwise(*args[:3], stride, padding, args[3])
    for g, r in zip(got, want):
        assert np.array_equal(g, r)


BAND_STRIDES = [(1, 1), (2, 2), (1, 2)]
BAND_STRIDE_IDS = ["stride11", "stride22", "stride12"]


def _banded_inputs(stride, mult, dtype, integer):
    """Seeded (x, w, b, dout) of a same 3x3 depthwise on 16 channels whose
    output rows span three bands of L.BAND_BYTES per item and one row of a
    fourth; integer=True draws whole numbers in -127..127."""
    rng = np.random.default_rng([*stride, mult, int(integer), 5])
    draw = (lambda s: rng.integers(-127, 128, s)) if integer else rng.standard_normal
    width, c = 8, 16
    wo = -(-width // stride[1])
    ho = 3 * (L.BAND_BYTES // (wo * c * mult * np.dtype(dtype).itemsize)) + 1
    x = draw((2, ho * stride[0], width, c)).astype(dtype)
    w = draw((3, 3, c, mult)).astype(dtype)
    b = draw((c * mult,)).astype(dtype)
    return x, w, b, draw((2, ho, wo, c * mult)).astype(dtype)


@pytest.mark.parametrize("stride", BAND_STRIDES, ids=BAND_STRIDE_IDS)
@pytest.mark.parametrize("mult", [1, 2], ids=["mult1", "mult2"])
def test_banded_depthwise_matches_the_einsum_formula(stride, mult):
    args = _banded_inputs(stride, mult, np.float32, integer=False)
    got = _run_kernel("depthwise", *args[:3], stride, "same", args[3])
    want = _ref_depthwise(*args[:3], stride, "same", args[3])
    for g, r in zip(got, want):
        assert g.dtype == r.dtype and g.shape == r.shape
        np.testing.assert_allclose(g, r, rtol=1e-5, atol=1e-5 * np.abs(r).max())


@pytest.mark.parametrize("stride", BAND_STRIDES, ids=BAND_STRIDE_IDS)
@pytest.mark.parametrize("mult", [1, 2], ids=["mult1", "mult2"])
def test_banded_depthwise_is_exact_on_integer_valued_float64(stride, mult):
    args = _banded_inputs(stride, mult, np.float64, integer=True)
    got = _run_kernel("depthwise", *args[:3], stride, "same", args[3])
    want = _ref_depthwise(*args[:3], stride, "same", args[3])
    for g, r in zip(got, want):
        assert np.array_equal(g, r)


@pytest.mark.parametrize("stride", BAND_STRIDES, ids=BAND_STRIDE_IDS)
@pytest.mark.parametrize("mult", [1, 2], ids=["mult1", "mult2"])
def test_banded_depthwise_gradients_match_finite_differences(stride, mult):
    # the loss sum(r * out) is linear in x and in w, so a central difference
    # along a random direction is exact up to float64 rounding
    x, w, b, r = _banded_inputs(stride, mult, np.float64, integer=False)
    _, pads = _ref_pad(x, 3, 3, stride, "same")
    _, cache = L.depthwise_forward(x, w, b, stride, pads)
    dx, dw, _ = L.depthwise_backward(r, w, cache)

    def loss(x, w):
        return float((L.depthwise_forward(x, w, b, stride, pads)[0] * r).sum())

    rng = np.random.default_rng([*stride, mult])
    for _ in range(2):
        vx, vw = rng.standard_normal(x.shape), rng.standard_normal(w.shape)
        for num, ana in (
            ((loss(x + H * vx, w) - loss(x - H * vx, w)) / (2 * H), (dx * vx).sum()),
            ((loss(x, w + H * vw) - loss(x, w - H * vw)) / (2 * H), (dw * vw).sum()),
        ):
            assert abs(num - ana) / max(abs(num), abs(ana), 1e-3) <= TOL


# a 2x2 kernel pads a same conv unevenly, its odd row and column at the end
CONV2D_KERNELS = [(3, 3), (2, 2), (1, 1)]
KERNEL_IDS = ["3x3", "2x2", "1x1"]
NARROWING = [(4, 4), (4, 2)]


def _channels_id(channels):
    return f"{channels[0]}to{channels[1]}"


def _assert_conv2d_matches(got, want, kernel, stride):
    """A 1x1 stride-1 conv is one matmul per output, as in the reference,
    so it matches to the bit. Every other conv sums out, dw and the
    transposed-convolution dx per kernel row, in another order than the
    reference: those match to float32 rounding of the largest entry. db is
    the same sum."""
    exact = (*kernel, *stride) == (1, 1, 1, 1)
    for name, g, r in zip(("out", "dx", "dw", "db"), got, want):
        assert g.dtype == r.dtype and g.shape == r.shape
        if exact or name == "db":
            assert np.array_equal(g, r), name
        else:
            np.testing.assert_allclose(g, r, rtol=1e-5, atol=1e-5 * np.abs(r).max(), err_msg=name)


@pytest.mark.parametrize("stride,padding", KERNEL_GEOMETRY, ids=GEOMETRY_IDS)
@pytest.mark.parametrize("kernel", CONV2D_KERNELS, ids=KERNEL_IDS)
def test_conv2d_matches_im2col(kernel, stride, padding):
    # 3 -> 4 channels: a widening conv's dx is the same transposed
    # convolution as a narrowing one's, with the strides spread into dout
    args = _kernel_inputs("conv2d", stride, padding, 1, np.float32, integer=False, kernel=kernel)
    got = _run_kernel("conv2d", *args[:3], stride, padding, args[3])
    want = _ref_conv2d(*args[:3], stride, padding, args[3])
    _assert_conv2d_matches(got, want, kernel, stride)


@pytest.mark.parametrize("stride,padding", KERNEL_GEOMETRY, ids=GEOMETRY_IDS)
@pytest.mark.parametrize("kernel", CONV2D_KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("channels", NARROWING, ids=_channels_id)
def test_conv2d_that_keeps_or_narrows_channels_matches_im2col(channels, kernel, stride, padding):
    args = _kernel_inputs(
        "conv2d", stride, padding, 1, np.float32, integer=False, kernel=kernel, channels=channels
    )
    got = _run_kernel("conv2d", *args[:3], stride, padding, args[3])
    want = _ref_conv2d(*args[:3], stride, padding, args[3])
    _assert_conv2d_matches(got, want, kernel, stride)


@pytest.mark.parametrize("stride", [(1, 1), (2, 2)], ids=["stride11", "stride22"])
@pytest.mark.parametrize("kind", ["conv2d", "depthwise"])
def test_conv2d_wider_than_its_map_matches_im2col(kind, stride, monkeypatch):
    # a same 7x7 kernel on a 7x1 map: six of its seven column taps read only
    # padding, so their spans of outputs and inputs are empty. A depthwise
    # band of one output row lies wholly above or below what some row taps
    # read, which empties their spans too
    monkeypatch.setattr(L, "BAND_BYTES", 1)
    rng = np.random.default_rng(7)
    w_out, cout = (4, 4) if kind == "conv2d" else (1, 3)
    x, w = rng.standard_normal((2, 7, 1, 3)), rng.standard_normal((7, 7, 3, w_out))
    x, w, b = x.astype(np.float32), w.astype(np.float32), np.ones(cout, np.float32)
    dout = rng.standard_normal((2, -(-7 // stride[0]), 1, cout)).astype(np.float32)
    got = _run_kernel(kind, x, w, b, stride, "same", dout)
    if kind == "conv2d":
        _assert_conv2d_matches(got, _ref_conv2d(x, w, b, stride, "same", dout), (7, 7), stride)
    else:
        for g, r in zip(got, _ref_depthwise(x, w, b, stride, "same", dout)):
            assert g.dtype == r.dtype and g.shape == r.shape
            np.testing.assert_allclose(g, r, rtol=1e-5, atol=1e-5 * np.abs(r).max())


BANDED_CONV_KERNELS = [(1, 3), (2, 3), (3, 3), (5, 5)]
BANDED_CONV_STRIDES = [(1, 1), (2, 2), (3, 3), (3, 1)]


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("stride", BANDED_CONV_STRIDES, ids=lambda s: f"stride{s[0]}{s[1]}")
@pytest.mark.parametrize("kernel", BANDED_CONV_KERNELS, ids=lambda k: f"{k[0]}x{k[1]}")
@pytest.mark.parametrize("band", ["row", "short"])
def test_banded_conv2d_matches_im2col(band, kernel, stride, padding, monkeypatch):
    # 11 rows give each case at least 3 output rows. BAND_BYTES of 1 makes
    # every band one output row; "short" makes the forward's bands all but
    # one of its output rows, then a band of one. A band's first or last
    # rows read top or bottom padding, which the reused column-tap buffer
    # must hold as zeros after a band that read real rows there
    x, w, b, dout = _kernel_inputs(
        "conv2d", stride, padding, 1, np.float32, integer=False, kernel=kernel, height=11
    )
    ho = dout.shape[1]
    assert ho >= 3
    monkeypatch.setattr(L, "BAND_BYTES", 1 if band == "row" else (ho - 1) * dout[0, 0].nbytes)
    got = _run_kernel("conv2d", x, w, b, stride, padding, dout)
    _assert_conv2d_matches(got, _ref_conv2d(x, w, b, stride, padding, dout), kernel, stride)


@pytest.mark.parametrize("stride,padding", KERNEL_GEOMETRY, ids=GEOMETRY_IDS)
@pytest.mark.parametrize("kernel", CONV2D_KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("channels", [(3, 4), *NARROWING], ids=_channels_id)
def test_conv2d_is_exact_on_integer_valued_float64(channels, kernel, stride, padding):
    # whole-number sums are exact in any order, so the transposed-convolution
    # dx must equal the reference's scatter to the bit, at every stride and
    # channel ratio
    args = _kernel_inputs(
        "conv2d", stride, padding, 1, np.float64, integer=True, kernel=kernel, channels=channels
    )
    got = _run_kernel("conv2d", *args[:3], stride, padding, args[3])
    want = _ref_conv2d(*args[:3], stride, padding, args[3])
    for g, r in zip(got, want):
        assert np.array_equal(g, r)


@pytest.mark.parametrize("stride,padding", KERNEL_GEOMETRY, ids=GEOMETRY_IDS)
@pytest.mark.parametrize("kind", ["conv2d", "depthwise_conv2d"])
def test_a_lone_conv_runs_to_its_inferred_shape(kind, stride, padding):
    # at stride 2 a same-padded 3x3 conv rounds the odd time extent up and
    # pads the even frequency extent by one column, at its end
    attrs = dict(filters=4) if kind == "conv2d" else dict(multiplier=2)
    spec = _spec(kind, "k", ("input",), stride=stride, padding=padding, **attrs)
    g = initialize(ModelGraph("lone", (7, 6, 3), [spec]), 0)
    x = np.random.default_rng(4).standard_normal((2, 7, 6, 3)).astype(np.float32)
    assert _pads(spec, x.shape[1:]) == tuple(_ref_pad(x, 3, 3, stride, padding)[1])
    out, tape = run_forward(g, x, "train")
    assert out.shape[1:] == g.shapes["k"]
    _, dx = run_backward(g, tape, np.ones_like(out))
    assert dx.shape == x.shape


def _cache_arrays(cache):
    todo, found = [cache], []
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
    return found


@pytest.mark.parametrize("kind", ["conv2d", "depthwise"])
@pytest.mark.parametrize("kernel", [(1, 1), (3, 3)], ids=["1x1", "3x3"])
def test_conv2d_caches_its_input_itself(kernel, kind):
    # each kernel reads only the inputs that exist, so no padded copy of x
    # is made or kept
    x = np.random.default_rng(9).standard_normal((2, 7, 6, 3)).astype(np.float32)
    w = np.ones((*kernel, 3, 4 if kind == "conv2d" else 2), dtype=np.float32)
    _, pads = _ref_pad(x, *kernel, (1, 1), "same")
    forward = L.conv2d_forward if kind == "conv2d" else L.depthwise_forward
    _, cache = forward(x, w, None, (1, 1), pads)
    assert cache[0] is x
    assert [a.nbytes for a in _cache_arrays(cache)] == [x.nbytes]


GRADCHECK_CASES = [
    ("pointwise_conv2d_bias", "conv2d", dict(filters=4, kernel=(1, 1), use_bias=True)),
    ("strided_1x1_conv2d", "conv2d", dict(filters=4, kernel=(1, 1), stride=(2, 2))),
    # dx through the flipped kernel, on dout itself or spread stride apart
    ("conv2d_narrowing_valid", "conv2d", dict(filters=2, kernel=(3, 3), padding="valid")),
    ("conv2d_2x2_same", "conv2d", dict(filters=3, kernel=(2, 2), padding="same")),
    # kernel rows read strided views of the column-tap copy; at row stride 2
    # dw reshapes a copy of each view
    ("conv2d_stride12_same", "conv2d", dict(filters=3, kernel=(3, 3), stride=(1, 2), padding="same")),
    ("conv2d_stride21_same", "conv2d", dict(filters=3, kernel=(3, 3), stride=(2, 1), padding="same")),
    (
        "depthwise_strided_valid", "depthwise_conv2d",
        dict(kernel=(3, 3), stride=(2, 2), padding="valid", multiplier=1),
    ),
]


@pytest.mark.parametrize("label,kind,attrs", GRADCHECK_CASES, ids=[c[0] for c in GRADCHECK_CASES])
def test_gradients_of_the_conv_paths(label, kind, attrs):
    g = initialize(ModelGraph(label, (7, 6, 3), [_spec(kind, "k", ("input",), **attrs)]), 0)
    rng = np.random.default_rng(zlib.crc32(label.encode()))
    assert max_rel_error(g, rng.standard_normal((2, 7, 6, 3)), rng, mode="eval") <= TOL
