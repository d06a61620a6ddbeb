"""Schedule, optimizer, checkpoint, and training-loop tests."""

import math

import numpy as np
import pytest

from ascpipe.errors import ConfigError, DataError
from ascpipe.nn import (
    LayerSpec,
    ModelGraph,
    OnlineAugment,
    ScheduleConfig,
    SgdMomentum,
    clone_params,
    cosine_restart_lr,
    cycle_position,
    forward,
    initialize,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)


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
        before = clone_params(g.params)
        SgdMomentum().step(g, {"fc": {"b": np.zeros(3, dtype=np.float32)}}, lr=0.1)
        assert np.array_equal(g.params["fc"]["b"], before["fc"]["b"])

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
        before = clone_params(g.params)
        xs, ys = _toy_dataset()
        result = train(g, xs, ys, self.SCHED, epochs=0, seed=0)
        assert result.loss_curve == []
        for layer, store in before.items():
            for key, arr in store.items():
                assert np.array_equal(g.params[layer][key], arr)

    def test_loss_decreases_on_separable_data(self):
        g = _toy_classifier(seed=2)
        xs, ys = _toy_dataset()
        result = train(g, xs, ys, self.SCHED, epochs=8, seed=3, batch_size=16)
        assert result.loss_curve[-1] < result.loss_curve[0] * 0.8
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
        result = train(
            g, xs, ys, self.SCHED, epochs=1, seed=0, batch_size=16,
            online=OnlineAugment(crop_len=4),
        )
        assert len(result.loss_curve) == 1

    def test_empty_dataset_rejected(self):
        g = _toy_classifier()
        with pytest.raises(DataError, match="empty"):
            train(g, np.zeros((0, 6, 4, 1)), np.zeros((0, 3)), self.SCHED, epochs=1)


class TestPredict:
    def test_longer_inputs_center_cropped(self):
        g = _toy_classifier(input_shape=(4, 4, 1), seed=3)
        x = np.random.default_rng(1).standard_normal((2, 10, 4, 1)).astype(np.float32)
        got = predict(g, x)
        want = forward(g, x[:, 3:7])
        assert np.array_equal(got, want)
