"""Schedule, optimizer, checkpoint, training-loop and executor tests."""

import dataclasses
import math
import threading
import time
import tracemalloc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest

from ascpipe import quant, zoo
from ascpipe.errors import ConfigError, DataError, GraphError, NumericError
from ascpipe.nn import (
    NON_TRAINABLE,
    LayerSpec,
    ModelGraph,
    OnlineAugment,
    ScheduleConfig,
    SgdMomentum,
    cosine_restart_lr,
    cycle_position,
    forward,
    initialize,
    load_checkpoint,
    predict,
    run_backward,
    run_forward,
    save_checkpoint,
    train,
)
from ascpipe.nn import blas, engine
from ascpipe.nn import layers as L
from ascpipe.nn.ops import OPS

from gradcheck import promote_to_float64


def _spec(kind, name, inputs, **attrs):
    return LayerSpec(kind, name, inputs, attrs)


def _toy_classifier(input_shape=(6, 4, 1), k=3, seed=0, width=8):
    return initialize(
        ModelGraph(
            "toy",
            input_shape,
            [
                _spec("conv2d", "conv1", ("input",), filters=width, use_bias=True),
                _spec("relu", "relu1", ("conv1",)),
                _spec("global_avg_pool", "gap", ("relu1",)),
                _spec("dense", "fc", ("gap",), units=k),
                _spec("softmax", "probs", ("fc",)),
            ],
        ),
        seed,
    )


def _toy_dataset(n=60, k=3, shape=(6, 4, 1), seed=0):
    """Separable after global pooling: class c shifts the overall level."""
    rng = np.random.default_rng(seed)
    xs = np.zeros((n, *shape), dtype=np.float32)
    ys = np.zeros((n, k), dtype=np.float32)
    for i in range(n):
        c = i % k
        xs[i] = rng.normal(0, 0.1, shape) + 0.6 * c
        xs[i, c * 2 : c * 2 + 2, :, :] += 1.0
        ys[i, c] = 1.0
    return xs, ys


class TestSchedule:
    CFG = ScheduleConfig(first_cycle_len=10)

    def test_cycle_start_is_lr_max(self):
        assert cosine_restart_lr(0, self.CFG) == pytest.approx(0.1, abs=1e-12)

    def test_cycle_end_is_lr_min_exactly(self):
        assert cosine_restart_lr(10, self.CFG) == pytest.approx(1e-5, abs=1e-9)

    def test_restart_resets_to_lr_max(self):
        assert cosine_restart_lr(11, self.CFG) == pytest.approx(0.1, abs=1e-12)

    def test_midpoint_value(self):
        assert cosine_restart_lr(5, self.CFG) == pytest.approx((0.1 + 1e-5) / 2, abs=1e-9)

    def test_three_cycles_of_doubling_length(self):
        # cycles span steps [0,10], [11,31], [32,72]
        for start, end, cyc in [(0, 10, 0), (11, 31, 1), (32, 72, 2)]:
            assert cosine_restart_lr(start, self.CFG) == pytest.approx(0.1, abs=1e-12)
            assert cosine_restart_lr(end, self.CFG) == pytest.approx(1e-5, abs=1e-9)
            assert cycle_position(start, self.CFG)[0] == cyc
            assert cycle_position(end, self.CFG)[0] == cyc

    def test_monotone_decay_within_cycle(self):
        lrs = [cosine_restart_lr(s, self.CFG) for s in range(11)]
        assert all(a > b for a, b in zip(lrs, lrs[1:]))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            ScheduleConfig(first_cycle_len=0)
        with pytest.raises(ConfigError):
            ScheduleConfig(first_cycle_len=5, lr_min=0.2, lr_max=0.1)
        with pytest.raises(ConfigError):
            cycle_position(-1, self.CFG)


class TestSgd:
    def _graph_1param(self, value):
        g = _toy_classifier()
        g.params["fc"]["b"] = np.array([value], dtype=np.float32).repeat(3)
        return g

    def test_plain_step_without_momentum(self):
        g = _toy_classifier()
        before = g.params["fc"]["b"].copy()
        opt = SgdMomentum(momentum=0.0)
        opt.step(g, {"fc": {"b": np.ones(3, dtype=np.float32)}}, lr=0.1)
        assert np.allclose(g.params["fc"]["b"], before - 0.1, atol=1e-7)

    def test_zero_gradient_leaves_params(self):
        g = _toy_classifier()
        before = g.params["fc"]["b"].copy()
        SgdMomentum().step(g, {"fc": {"b": np.zeros(3, dtype=np.float32)}}, lr=0.1)
        assert np.array_equal(g.params["fc"]["b"], before)

    def test_quadratic_bowl_converges(self):
        # minimize f(p) = p^2 from p = 1 with lr 0.1, momentum 0.9
        g = _toy_classifier()
        g.params["fc"]["b"] = np.array([1.0], dtype=np.float32)
        opt = SgdMomentum(momentum=0.9)
        for _ in range(200):
            grad = 2.0 * g.params["fc"]["b"]
            opt.step(g, {"fc": {"b": grad}}, lr=0.1)
        assert abs(float(g.params["fc"]["b"][0])) < 1e-3


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        g = _toy_classifier(seed=5)
        path = tmp_path / "model.ascm"
        save_checkpoint(path, g)
        loaded = load_checkpoint(path)
        assert loaded.name == g.name
        assert loaded.input_shape == g.input_shape
        assert [s.name for s in loaded.layers] == [s.name for s in g.layers]
        for layer, store in g.params.items():
            for key, arr in store.items():
                got = loaded.params[layer][key]
                assert got.dtype == np.float32
                assert np.array_equal(got.view(np.uint32), arr.view(np.uint32))

    def test_save_load_save_identical_bytes(self, tmp_path):
        g = _toy_classifier(seed=9)
        p1, p2 = tmp_path / "a.ascm", tmp_path / "b.ascm"
        save_checkpoint(p1, g)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        g = _toy_classifier()
        path = tmp_path / "m.ascm"
        save_checkpoint(path, g)
        raw = path.read_bytes()
        assert raw[:4] == b"ASCM"
        assert int.from_bytes(raw[4:8], "little") == 1

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ascm"
        path.write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(DataError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated_blob_rejected(self, tmp_path):
        g = _toy_classifier()
        path = tmp_path / "m.ascm"
        save_checkpoint(path, g)
        (tmp_path / "cut.ascm").write_bytes(path.read_bytes()[:-10])
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "cut.ascm")

    def test_loaded_model_predicts_identically(self, tmp_path):
        g = _toy_classifier(seed=11)
        x = np.random.default_rng(4).standard_normal((3, 6, 4, 1)).astype(np.float32)
        want = forward(g, x)
        save_checkpoint(tmp_path / "m.ascm", g)
        got = forward(load_checkpoint(tmp_path / "m.ascm"), x)
        assert np.array_equal(want, got)


class TestTrainLoop:
    SCHED = ScheduleConfig(first_cycle_len=20, lr_max=0.05)

    def test_zero_epochs_leaves_params_untouched(self):
        g = _toy_classifier(seed=1)
        before = {layer: {k: v.copy() for k, v in store.items()} for layer, store in g.params.items()}
        xs, ys = _toy_dataset()
        losses = train(g, xs, ys, self.SCHED, epochs=0, seed=0)
        assert losses == []
        for layer, store in before.items():
            for key, arr in store.items():
                assert np.array_equal(g.params[layer][key], arr)

    def test_loss_decreases_on_separable_data(self):
        g = _toy_classifier(seed=2)
        xs, ys = _toy_dataset()
        losses = train(g, xs, ys, self.SCHED, epochs=8, seed=3, batch_size=16)
        assert losses[-1] < losses[0] * 0.8
        acc = (predict(g, xs).argmax(1) == ys.argmax(1)).mean()
        assert acc >= 0.9

    def test_same_seed_bit_identical_params(self):
        xs, ys = _toy_dataset()
        stores = []
        for _ in range(2):
            g = _toy_classifier(seed=4)
            train(
                g, xs, ys, self.SCHED, epochs=3, seed=7, batch_size=16,
                online=OnlineAugment(mixup_alpha=0.4, time_mask_frac=0.1, freq_mask_frac=0.1),
            )
            stores.append(g.params)
        for layer in stores[0]:
            for key in stores[0][layer]:
                a, b = stores[0][layer][key], stores[1][layer][key]
                assert np.array_equal(a.view(np.uint32), b.view(np.uint32)), (layer, key)

    def test_different_seeds_differ(self):
        xs, ys = _toy_dataset()
        outs = []
        for seed in (0, 1):
            g = _toy_classifier(seed=4)
            train(g, xs, ys, self.SCHED, epochs=1, seed=seed, batch_size=16)
            outs.append(g.params["fc"]["w"].copy())
        assert not np.array_equal(outs[0], outs[1])

    def test_online_crop_feeds_reduced_time_axis(self):
        g = _toy_classifier(input_shape=(4, 4, 1), seed=6)
        xs, ys = _toy_dataset(shape=(6, 4, 1))
        losses = train(
            g, xs, ys, self.SCHED, epochs=1, seed=0, batch_size=16,
            online=OnlineAugment(crop_len=4),
        )
        assert len(losses) == 1

    def test_empty_dataset_rejected(self):
        g = _toy_classifier()
        with pytest.raises(DataError, match="empty"):
            train(g, np.zeros((0, 6, 4, 1)), np.zeros((0, 3)), self.SCHED, epochs=1)


def _zoo_graph(arch, width, shape):
    return zoo.build(zoo.ArchConfig(arch, width, 10, shape), 0)


def _batch(shape, n, seed=0):
    x = np.random.default_rng(seed).standard_normal((n, *shape)).astype(np.float32)
    return x, np.eye(10, dtype=np.float32)[np.arange(n) % 10]


class TestExecutor:
    SHAPE = (48, 64, 3)

    @pytest.mark.parametrize("arch", zoo.ARCH_NAMES)
    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_forward_equals_run_forward_whose_tape_holds_only_the_output(self, arch, mode):
        # the zoo has activations with several readers: residual shortcuts,
        # the input of both freq_split halves, concat operands
        g = _zoo_graph(arch, 0.25, self.SHAPE)
        x, _ = _batch(self.SHAPE, 2)
        out, tape = run_forward(g, x, mode, (3, 1))
        assert list(tape.acts) == [g.layers[-1].name] and tape.acts[g.layers[-1].name] is out
        assert np.array_equal(forward(g, x, mode, (3, 1)), out)

    def test_forward_keeps_no_caches(self, monkeypatch):
        tapes = []
        run = engine.run_forward

        def spy(*args, **kwargs):
            out, tape = run(*args, **kwargs)
            tapes.append(tape)
            return out, tape

        monkeypatch.setattr(engine, "run_forward", spy)
        g = _zoo_graph("small_fcnn", 0.25, self.SHAPE)
        forward(g, _batch(self.SHAPE, 2)[0], "eval")
        (tape,) = tapes
        assert list(tape.caches) == [s.name for s in g.layers]
        assert all(cache is None for cache in tape.caches.values())

    def test_a_layer_may_read_one_activation_twice(self):
        g = initialize(
            ModelGraph(
                "twice",
                (6, 4, 1),
                [
                    _spec("conv2d", "conv1", ("input",), filters=4),
                    _spec("residual_add", "add", ("conv1", "conv1")),
                    _spec("global_avg_pool", "gap", ("add",)),
                    _spec("dense", "fc", ("gap",), units=3),
                    _spec("softmax", "probs", ("fc",)),
                ],
            ),
            0,
        )
        x, _ = _toy_dataset(n=4)
        out, tape = run_forward(g, x, "eval")
        assert list(tape.acts) == ["probs"]
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-6)
        grads, dx = run_backward(g, tape, np.ones_like(out))
        assert grads["conv1"]["w"].shape == g.params["conv1"]["w"].shape
        assert dx.shape == x.shape


@pytest.mark.parametrize("arch", zoo.ARCH_NAMES)
def test_backward_skips_unread_input_gradients(arch, monkeypatch):
    shape = (16, 32, 3)
    g = _zoo_graph(arch, 0.25, shape)
    x, t = _batch(shape, 2)
    ran = {}  # layer name -> which input gradients its backward computed
    for kind, op in list(OPS.items()):

        def spy(spec, p, cache, d, need_dx, _backward=op.backward):
            dins, dparams = _backward(spec, p, cache, d, need_dx)
            ran[spec.name] = [dx is not None for dx in dins]
            return dins, dparams

        monkeypatch.setitem(OPS, kind, dataclasses.replace(op, backward=spy))
    _, grads, _ = engine.backward(g, x, t, (0, 0))
    # the entry conv reads the input, or one of fsfcnn_s's freq_split bands
    # of it, and nothing upstream of it has a parameter
    bands = {s.name for s in g.layers if s.kind == "freq_split" and s.inputs == ("input",)}
    entry = [s for s in g.layers if s.name not in bands and set(s.inputs) <= {"input", *bands}]
    assert entry and all(s.kind == "conv2d" and ran[s.name] == [False] for s in entry)
    assert not bands & ran.keys()
    assert all(any(computed) for name, computed in ran.items() if name not in {s.name for s in entry})
    # engine.backward's tape is spent, so the full backward runs on a fresh one
    probs, fresh = run_forward(g, x, "train", (0, 0))
    full, dx = run_backward(g, fresh, (probs - t) / len(x), skip_last=True)
    assert dx.shape == x.shape
    assert grads.keys() == full.keys()
    for name, store in full.items():
        assert all(np.array_equal(grads[name][k], v) for k, v in store.items()), name


@pytest.mark.parametrize("arch", zoo.ARCH_NAMES)
def test_backward_frees_each_cache_as_it_passes(arch, monkeypatch):
    shape = (16, 32, 3)
    g = _zoo_graph(arch, 0.25, shape)
    x, t = _batch(shape, 2)
    names = [s.name for s in g.layers]
    tapes, ran = [], []
    run = engine.run_forward

    def keep_tape(*args, **kwargs):
        out, tape = run(*args, **kwargs)
        tapes.append(tape)
        return out, tape

    monkeypatch.setattr(engine, "run_forward", keep_tape)
    for kind, op in list(OPS.items()):

        def spy(spec, p, cache, d, need_dx, _backward=op.backward):
            # only the caches of the layers before this one are left
            assert list(tapes[0].caches) == names[: names.index(spec.name)], spec.name
            ran.append(spec.name)
            return _backward(spec, p, cache, d, need_dx)

        monkeypatch.setitem(OPS, kind, dataclasses.replace(op, backward=spy))
    _, _, tape = engine.backward(g, x, t, (0, 0))
    assert tapes == [tape] and len(ran) > 1
    assert tape.caches == {} and list(tape.acts) == [names[-1]]
    with pytest.raises(GraphError, match="one backward"):
        run_backward(g, tape, tape.acts[names[-1]])


# per arch and kind of the layers whose forward keeps its input in its
# cache: how many of them have that input rebuilt from the run of replays
# before it (batchnorm [-> relu] [-> maxpool] [-> dropout]), of all of them
REBUILT_INPUTS = {
    "fcnn": {"conv2d": (8, 9), "channel_attention": (1, 1), "batchnorm": (0, 9)},
    "fsfcnn": {"conv2d": (10, 11), "channel_attention": (1, 1), "batchnorm": (0, 11)},
    "fsfcnn_s": {"conv2d": (21, 24), "batchnorm": (0, 24)},
    "resnet": {"conv2d": (8, 17), "batchnorm": (0, 17)},
    "resnet_d": {"conv2d": (8, 17), "batchnorm": (0, 17)},
    "mobnet": {"conv2d": (13, 18), "depthwise_conv2d": (8, 8), "batchnorm": (0, 26)},
    "small_fcnn": {"conv2d": (8, 9), "channel_attention": (1, 1), "batchnorm": (0, 9)},
}


@pytest.mark.parametrize("arch", zoo.ARCH_NAMES)
def test_a_train_tape_holds_no_input_that_a_run_of_replays_gives_back(arch, monkeypatch):
    shape = (16, 32, 3)
    g = _zoo_graph(arch, 0.25, shape)
    by_name = {s.name: s for s in g.layers}
    inputs, lengths = {}, {}  # per layer whose cache keeps its input: a weak reference, cache length
    for kind, op in list(OPS.items()):

        def spy(spec, p, ins, mode, seed, _forward=op.forward):
            out, cache = _forward(spec, p, ins, mode, seed)
            if isinstance(cache, tuple) and cache and cache[0] is ins[0]:
                inputs[spec.name], lengths[spec.name] = weakref.ref(ins[0]), len(cache)
            return out, cache

        monkeypatch.setitem(OPS, kind, dataclasses.replace(op, forward=spy))
    x = _batch(shape, 2)[0]
    _, tape = run_forward(g, x, "train", (0, 0))
    rebuilt = {name for name, ref in inputs.items() if ref() is None}
    kinds = {by_name[name].kind for name in inputs}
    counts = {
        k: (sum(by_name[n].kind == k for n in rebuilt), sum(by_name[n].kind == k for n in inputs))
        for k in kinds
    }
    assert counts == REBUILT_INPUTS[arch]
    assert rebuilt == tape.chains.keys()
    for name in rebuilt:
        # the cache lost its leading input and nothing else; the run starts
        # at a batchnorm, replays all the way and ends at this layer's input
        assert len(tape.caches[name]) == lengths[name] - 1, name
        run = tape.chains[name]
        assert run[0].kind == "batchnorm" and run[-1].name == by_name[name].inputs[0], name
        assert all(OPS[s.kind].replay is not None for s in run), name
    for name in inputs.keys() - rebuilt:
        assert tape.caches[name][0] is inputs[name](), name
        if OPS[by_name[name].kind].replay is not None:
            continue
        # the entry convs read the graph input or a band of it; the others
        # read a concat, a residual sum or a relu of a sum
        src = by_name.get(by_name[name].inputs[0])
        if src is not None and src.kind == "relu":
            src = by_name[src.inputs[0]]
        assert src is None or src.kind in ("freq_split", "concat", "residual_add"), name
    assert run_forward(g, x, "eval")[1].chains == {}


def _traced_peak_mib(fn) -> float:
    """Peak MiB allocated while fn runs, above what was allocated when it
    started. numpy reports its buffers to tracemalloc, so this repeats
    exactly."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


# arch, then (old traced peak in MiB, share of it allowed) for one train-mode
# backward and for one eval forward; width 0.5, B=2, input (64, 128, 3). The
# old peaks are those of the executor that kept every activation, every
# cache and conv2d's im2col matrix. This one, whose conv2d and depthwise
# work one band of output rows per item from the inputs that exist, with
# no padded batch, measures eval forward 2.4 / 3.6 / 3.5 MiB. Its backward
# frees each cache once the walk has passed it, relu and dropout keep one
# bit per element of their masks, and a conv whose input a batchnorm chain
# gives back keeps no copy of it: 4.65 / 10.03 / 16.83 MiB, against 6.29 /
# 17.62 / 20.33 with every conv input held, 6.97 / 19.33 / 22.19 with a
# byte per mask element and 9.64 / 23.35 / 22.93 with every cache held to
# the end and a float dropout mask. The backward shares allow the measured
# peak plus about 5 %. The peak comes early in the backward, while most
# caches are still held.
MEMORY_CASES = [
    ("small_fcnn", (42.6, 0.115), (32.9, 0.27)),
    ("mobnet", (47.4, 0.222), (41.8, 0.25)),
    ("resnet", (124.2, 0.142), (117.2, 0.25)),
]


@pytest.mark.parametrize("arch,backward_peak,eval_peak", MEMORY_CASES, ids=[c[0] for c in MEMORY_CASES])
def test_executor_memory_stays_bounded(arch, backward_peak, eval_peak):
    shape = (64, 128, 3)
    g = _zoo_graph(arch, 0.5, shape)
    x, t = _batch(shape, 2)
    old, share = backward_peak
    assert _traced_peak_mib(lambda: engine.backward(g, x, t, (0, 0))) <= share * old
    old, share = eval_peak
    assert _traced_peak_mib(lambda: forward(g, x, "eval")) <= share * old
    xs, ys = _batch(shape, 6, seed=1)
    sched = ScheduleConfig(first_cycle_len=10)
    one = _traced_peak_mib(lambda: train(g, xs[:2], ys[:2], sched, 1, batch_size=2))
    # a step must not hold the previous step's tape, batch or gradients.
    # A later step's peak holds two parameter sets more than the first
    # step's: the momentum, and the parameters the first update wrote,
    # which tracemalloc sees where it did not see the initial ones. This
    # measured 2.02, 2.04 and 2.13 sets for the three archs; a quarter set
    # covers the optimizer's per-layer bookkeeping, while the previous
    # step's gradients would be a whole set more.
    params = sum(
        v.nbytes for store in g.params.values() for k, v in store.items() if k not in NON_TRAINABLE
    ) / 2**20
    three = _traced_peak_mib(lambda: train(g, xs, ys, sched, 1, batch_size=2))
    assert three - one <= 2.25 * params


# (cin, cout), then the traced peak in MiB, rounded up, of the backward
# (1.544, 0.920 and 1.148; 1.538, 0.919 and 1.145 since conv2d works by
# bands of output rows). dw and the transposed-convolution dx each copy
# one band's column taps at a time, here a whole item's, with no padded
# copy of x or dout. The flipped kernel on a padded dout read 2.08 and
# 1.42 MiB, the widening 3 -> 16 conv's tap scatter 1.05, the batch-wide
# im2col backward 5.14, 1.05 and 5.14.
CONV2D_BACKWARD_PEAKS = [((16, 16), 1.55), ((3, 16), 0.92), ((16, 8), 1.15)]


@pytest.mark.parametrize("channels,old_peak", CONV2D_BACKWARD_PEAKS, ids=["16to16", "3to16", "16to8"])
def test_conv2d_backward_memory_does_not_grow(channels, old_peak):
    cin, cout = channels
    rng = np.random.default_rng(cin)
    x = rng.standard_normal((2, 64, 64, cin)).astype(np.float32)
    w = rng.standard_normal((3, 3, cin, cout)).astype(np.float32)
    out, cache = L.conv2d_forward(x, w, None, (1, 1), ((1, 1), (1, 1)))
    dout = np.ones_like(out)
    assert _traced_peak_mib(lambda: L.conv2d_backward(dout, w, cache)) <= old_peak


def test_depthwise_memory_does_not_grow():
    # traced peaks 0.845 (forward) and 0.811 MiB (backward): the output or
    # the input gradient plus one band of products, with no padded copy of
    # x; a padded copy read 1.35 and 0.85, the batch-wide product array
    # 1.60 and 1.10
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2, 64, 64, 16)).astype(np.float32)
    w = rng.standard_normal((3, 3, 16, 1)).astype(np.float32)
    pads = ((1, 1), (1, 1))
    out, cache = L.depthwise_forward(x, w, None, (1, 1), pads)
    dout = np.ones_like(out)
    assert _traced_peak_mib(lambda: L.depthwise_forward(x, w, None, (1, 1), pads)) <= 0.85
    assert _traced_peak_mib(lambda: L.depthwise_backward(dout, w, cache)) <= 0.82


def test_maxpool_forward_makes_no_window_copy():
    # traced peak 0.252 MiB: the output plus its uint8 index and a few
    # bool masks of its size; the window-shaped copy, its int64 argmax and
    # gather read 1.25
    x = np.random.default_rng(2).standard_normal((2, 64, 64, 16)).astype(np.float32)
    assert _traced_peak_mib(lambda: L.maxpool_forward(x, 2, 2)) <= 0.3


def test_maxpool_backward_makes_no_window_copy():
    # traced peak 0.658 MiB: dx plus one window offset's share of dout; the
    # window-shaped array and its transposed copy read 1.50
    x = np.random.default_rng(2).standard_normal((2, 64, 64, 16)).astype(np.float32)
    out, cache = L.maxpool_forward(x, 2, 2)
    dout = np.ones_like(out)
    assert _traced_peak_mib(lambda: L.maxpool_backward(dout, cache)) <= 0.66


def test_conv2d_forward_copies_one_item_at_a_time():
    # B=8, 64x64, 16 -> 16, 3x3 same: the traced peak is 3.03 MiB, the
    # output plus one band's column taps, here a whole item's; a padded
    # copy of the batch added 2.13 MiB (5.15), and a batch-wide im2col
    # matrix alone is 18 MiB
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 64, 64, 16)).astype(np.float32)
    w = rng.standard_normal((3, 3, 16, 16)).astype(np.float32)
    assert _traced_peak_mib(lambda: L.conv2d_forward(x, w, None, (1, 1), ((1, 1), (1, 1)))) <= 4


def test_conv2d_copies_one_band_of_output_rows_at_a_time():
    # (1, 400, 128, 22 -> 22), 3x3 same, as small_fcnn's first conv: the
    # traced peaks are 5.352 (forward) and 5.375 MiB (backward), the
    # 4.30 MiB output or input gradient plus one band's column taps and
    # product; a copy of the whole item's column taps read 21.55 and 21.58
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 400, 128, 22)).astype(np.float32)
    w = rng.standard_normal((3, 3, 22, 22)).astype(np.float32)
    pads = ((1, 1), (1, 1))
    out, cache = L.conv2d_forward(x, w, None, (1, 1), pads)
    dout = np.ones_like(out)
    assert _traced_peak_mib(lambda: L.conv2d_forward(x, w, None, (1, 1), pads)) <= 5.36
    assert _traced_peak_mib(lambda: L.conv2d_backward(dout, w, cache)) <= 5.38


# arch, then the worst per-tensor max|g32 - g64| / max|g64| of one train
# step's parameter gradients against a float64 run of the same graph,
# measured before conv2d ran by bands of output rows (at small_fcnn's
# bn8/beta, mobnet's bnb3x/beta and resnet's convhi3a/w). A change to a
# kernel may move it by float32 rounding, to at most 1.5x
GRADIENT_ERRORS = [("small_fcnn", 1.076e-5), ("mobnet", 1.737e-2), ("resnet", 1.344e-2)]


@pytest.mark.parametrize("arch,old_error", GRADIENT_ERRORS, ids=[c[0] for c in GRADIENT_ERRORS])
def test_float32_gradients_stay_near_a_float64_run(arch, old_error):
    shape = (64, 128, 3)
    g = _zoo_graph(arch, 0.5, shape)
    x, t = _batch(shape, 2)
    g32 = engine.backward(g, x, t, (0, 0))[1]
    promote_to_float64(g)
    g64 = engine.backward(g, x.astype(np.float64), t, (0, 0))[1]
    errors = {}
    for name, store in g32.items():
        for key, grad in store.items():
            if arch == "mobnet" and name.startswith("bn") and name.endswith("p") and key == "beta":
                # each of these batchnorms feeds a 1x1 conv into another
                # batchnorm, so the gradient is zero up to rounding noise
                assert np.abs(grad).max() <= 1e-4 * np.abs(store["gamma"]).max(), name
                continue
            want = g64[name][key]
            errors[f"{name}/{key}"] = np.abs(grad - want).max() / np.abs(want).max()
    worst = max(errors, key=errors.get)
    assert errors[worst] <= 1.5 * old_error, worst


@contextmanager
def _scoring_threads(n):
    """Run the block with OpenBLAS at n threads, so that ``per_item``
    scores n items at once, each on one BLAS thread; the count the
    process had comes back after it. With no OpenBLAS, items are scored
    one at a time, and other counts are skipped."""
    threads = blas._threads or blas._find()
    if not threads:
        if n != 1:
            pytest.skip("no OpenBLAS thread control in this process")
        yield
        return
    set_, get = threads
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)


class _Probe:
    """A ``per_item`` layer_forward that notes the threads items run on,
    the most items running at once and the items scored. Item k is an
    input whose [0, 0, 0] entry is k; its first layer sleeps ``delay(k)``
    seconds first."""

    def __init__(self, graph, delay=lambda k: 0.0):
        self.graph, self.delay = graph, delay
        self.done, self.threads, self.most = set(), set(), 0
        self._running, self._item, self._lock = 0, threading.local(), threading.Lock()

    def __call__(self, spec, params, ins, mode, seed):
        if spec is self.graph.layers[0]:
            self._item.k = int(ins[0][0, 0, 0, 0])
            with self._lock:
                self.threads.add(threading.get_ident())
                self._running += 1
                self.most = max(self.most, self._running)
            time.sleep(self.delay(self._item.k))
        out = OPS[spec.kind].forward(spec, params, ins, mode, seed)[0]
        if spec is self.graph.layers[-1]:
            with self._lock:
                self._running -= 1
                self.done.add(self._item.k)
        return out, None


def _numbered_items(n, shape=(6, 4, 1)):
    x = np.random.default_rng(3).standard_normal((n, *shape)).astype(np.float32)
    x[:, 0, 0, 0] = np.arange(n)
    return x


class TestPerItemScoring:
    """predict and quantized_forward score every item as a batch of one."""

    SHAPE = (16, 32, 3)

    def _scorer(self, arch, int8):
        g = zoo.build(zoo.ArchConfig(arch, width_mult=0.25, n_classes=3, input_shape=self.SHAPE), seed=2)
        if int8:
            qm = quant.quantize_model(g)
            return lambda xs: quant.quantized_forward(qm, xs)
        return lambda xs: predict(g, xs)

    @pytest.mark.parametrize("int8", [False, True], ids=["float", "int8"])
    @pytest.mark.parametrize("arch", zoo.ARCH_NAMES)
    def test_an_item_scores_the_same_alone(self, arch, int8):
        # and with 1, 2 or 3 items scored at once
        score = self._scorer(arch, int8)
        x = np.random.default_rng(5).standard_normal((3, *self.SHAPE)).astype(np.float32)
        x[1] *= 3.0  # a louder item shares the batch
        batches = []
        for n in (1, 2, 3):
            with _scoring_threads(n):
                batches.append(score(x))
                for i in range(len(x)):
                    assert np.array_equal(score(x[i : i + 1]), batches[-1][i : i + 1])
        assert all(np.array_equal(batch, batches[0]) for batch in batches)

    @pytest.mark.parametrize("int8", [False, True], ids=["float", "int8"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_non_finite_item_is_named(self, int8):
        score = self._scorer("small_fcnn", int8)
        x = np.ones((3, *self.SHAPE), dtype=np.float32)
        x[1, 4, 5, 0] = np.inf
        with pytest.raises(NumericError, match=r"input item 1: non-finite activation at layer 'conv1'"):
            score(x)

    def test_no_items_is_a_data_error(self):
        with pytest.raises(DataError, match="no items"):
            self._scorer("small_fcnn", False)([])

    @pytest.mark.parametrize("int8", [False, True], ids=["float", "int8"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_items_run_on_one_blas_thread(self, int8, monkeypatch):
        # every product is made with the BLAS at one thread, and the count
        # the process had comes back after the items, also when an item or
        # the iterable raises
        threads = blas._threads or blas._find()
        if not threads:
            pytest.skip("no OpenBLAS thread control in this process")
        set_, get = threads
        score, seen, matmul = self._scorer("small_fcnn", int8), [], np.matmul

        def spy(*args, **kwargs):
            seen.append(get())
            return matmul(*args, **kwargs)

        def unreadable(x):
            yield x[0]
            raise DataError("row 1 is unreadable")

        monkeypatch.setattr(np, "matmul", spy)
        for n in (2, 3):
            with _scoring_threads(n):
                x = np.ones((2, *self.SHAPE), dtype=np.float32)
                score(x)
                assert get() == n
                with pytest.raises(DataError, match="row 1"):
                    score(unreadable(x))
                assert get() == n
                x[1, 4, 5, 0] = np.inf
                with pytest.raises(NumericError):
                    score(x)
                assert get() == n
        assert seen and set(seen) == {1}

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_the_first_failure_in_item_order_is_raised(self, n):
        # item 1 is slow, so item 2 fails first in time
        g = _toy_classifier()
        probe = _Probe(g, lambda k: 0.05 if k == 1 else 0.0)
        x = _numbered_items(6)
        x[1, 2, 2, 0] = np.inf
        both = x.copy()
        both[2, 2, 2, 0] = np.inf

        def unreadable_at(k):
            yield from x[:k]
            raise DataError(f"row {k} is unreadable")

        with _scoring_threads(n):
            with pytest.raises(NumericError, match=r"input item 1: "):
                engine.per_item(g, both, probe)
            with pytest.raises(NumericError, match=r"input item 1: "):
                engine.per_item(g, unreadable_at(3), probe)
            with pytest.raises(DataError, match="row 0 is unreadable"):
                engine.per_item(g, unreadable_at(0), probe)

    @pytest.mark.parametrize("n", [2, 3])
    def test_an_item_is_read_once_fewer_than_n_are_in_flight(self, n):
        # n items run at once, and item k is read only once every item
        # before k - n + 1 has been scored
        g = _toy_classifier()
        probe, x, reads = _Probe(g, lambda k: 0.02), _numbered_items(8), []

        def items():
            for k, item in enumerate(x):
                reads.append(probe.done.copy())
                yield item

        with _scoring_threads(n):
            out = engine.per_item(g, items(), probe)
        assert np.array_equal(out, engine.per_item(g, x))
        assert probe.most == n
        assert all(set(range(k - n + 1)) <= done for k, done in enumerate(reads))

    def test_with_no_openblas_items_run_one_at_a_time(self, monkeypatch):
        g = _toy_classifier()
        x = _numbered_items(5)
        found = engine.per_item(g, x)
        monkeypatch.setattr(blas, "_threads", ())
        probe = _Probe(g, lambda k: 0.01)
        assert np.array_equal(engine.per_item(g, x, probe), found)
        assert probe.most == 1
        assert len(probe.threads) == 1 and threading.get_ident() not in probe.threads

    def test_predict_memory_does_not_grow_with_item_count(self):
        # traced peaks, width 0.5: 2.38 MiB for 1 item and for 8 scored one
        # at a time; 3.45-4.10 MiB for 16 scored two at a time, and 2.66-4.10
        # for 2, as far as the two items' peaks happen to coincide. One batch
        # of 8 took 33.1 MiB
        shape = (64, 128, 3)
        g = _zoo_graph("small_fcnn", 0.5, shape)
        xs, _ = _batch(shape, 16)
        with _scoring_threads(1):
            one = _traced_peak_mib(lambda: predict(g, xs[:1]))
            assert _traced_peak_mib(lambda: predict(g, xs[:8])) <= 1.2 * one
        with _scoring_threads(2):
            assert _traced_peak_mib(lambda: predict(g, xs)) <= 1.2 * 2 * one
