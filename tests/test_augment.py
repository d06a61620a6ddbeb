"""Tests for waveform and feature-tensor augmentations."""

import math

import numpy as np
import pytest

from ascpipe.audio import AudioClip
from ascpipe.augment import (
    AugmentConfig,
    CompressorConfig,
    LabeledBatch,
    add_noise,
    apply_reverb_drc,
    channel_confusion,
    dynamic_range_compress,
    fit_spectrum_profiles,
    mix_same_class,
    mixup_batch,
    pitch_shift_by,
    random_crop,
    reference_profile,
    rng_for_item,
    spec_augment,
    spectrum_correct,
    speed_change_by,
    synth_rir,
)
from ascpipe.errors import DataError
from ascpipe.features import FeatureTensor, SpectroConfig, stft_complex


class _ForcedRng:
    """Generator wrapper that pins selected draws for oracle checks."""

    def __init__(self, base, beta=None, random=None, uniform=None):
        self._base = base
        self._beta = beta
        self._random = random
        self._uniform = uniform

    def beta(self, a, b):
        return self._beta if self._beta is not None else self._base.beta(a, b)

    def random(self):
        return self._random if self._random is not None else self._base.random()

    def uniform(self, lo, hi):
        return self._uniform if self._uniform is not None else self._base.uniform(lo, hi)

    def __getattr__(self, name):
        return getattr(self._base, name)


def _batch(rng, b=4, t=20, f=8, c=3, k=5):
    tensors = rng.random((b, t, f, c)).astype(np.float32)
    labels = np.eye(k, dtype=np.float32)[rng.integers(0, k, size=b)]
    return LabeledBatch(tensors, labels)


class TestMixup:
    def test_lambda_one_is_identity(self, rng):
        batch = _batch(rng)
        out = mixup_batch(batch, 0.4, _ForcedRng(np.random.default_rng(5), beta=1.0))
        assert np.allclose(out.tensors, batch.tensors, atol=1e-6)
        assert np.allclose(out.labels, batch.labels, atol=1e-6)

    def test_label_mix_matches_weight(self, rng):
        batch = _batch(rng, b=2)
        out = mixup_batch(batch, 0.4, _ForcedRng(np.random.default_rng(5), beta=0.3))
        perm = np.random.default_rng(5).permutation(2)
        want = 0.3 * batch.labels + 0.7 * batch.labels[perm]
        assert np.allclose(out.labels, want, atol=1e-6)

    def test_batch_mean_preserved(self, rng):
        batch = _batch(rng, b=16)
        out = mixup_batch(batch, 0.4, np.random.default_rng(11))
        assert math.isclose(
            float(out.tensors.mean()), float(batch.tensors.mean()), abs_tol=1e-5
        )

    def test_rejects_singleton_batch(self, rng):
        batch = _batch(rng, b=1)
        with pytest.raises(DataError):
            mixup_batch(batch, 0.4, rng)

    def test_label_rows_must_sum_to_one(self, rng):
        tensors = np.zeros((2, 4, 4, 1), dtype=np.float32)
        labels = np.array([[0.5, 0.2], [1.0, 0.0]], dtype=np.float32)
        with pytest.raises(DataError):
            LabeledBatch(tensors, labels)


class TestRandomCrop:
    def test_output_is_contiguous_window(self, rng):
        t = FeatureTensor(np.arange(423 * 4 * 3, dtype=np.float32).reshape(423, 4, 3))
        out = random_crop(t, 400, rng)
        assert out.shape == (400, 4, 3)
        first = float(out.data[0, 0, 0])
        offset = int(first) // (4 * 3)
        assert np.array_equal(out.data, t.data[offset : offset + 400])

    def test_offsets_cover_full_range(self):
        t = FeatureTensor(np.arange(423, dtype=np.float32).reshape(423, 1, 1))
        rng = np.random.default_rng(99)
        counts = np.zeros(24, dtype=int)
        for _ in range(2400):
            out = random_crop(t, 400, rng)
            counts[int(out.data[0, 0, 0])] += 1
        assert counts.min() > 0
        assert counts.min() > 40 and counts.max() < 200

    def test_full_length_crop_is_identity(self, rng):
        t = FeatureTensor(np.ones((10, 2, 1), dtype=np.float32))
        assert np.array_equal(random_crop(t, 10, rng).data, t.data)

    def test_too_long_crop_rejected(self, rng):
        t = FeatureTensor(np.ones((10, 2, 1), dtype=np.float32))
        with pytest.raises(DataError):
            random_crop(t, 11, rng)


class TestChannelConfusion:
    def test_swap_moves_blocks(self):
        data = np.stack([np.full((5, 4), i, dtype=np.float32) for i in range(6)], axis=2)
        forced = _ForcedRng(np.random.default_rng(0), random=0.0)
        out = channel_confusion(FeatureTensor(data), forced)
        assert np.array_equal(out.data[:, :, 0], data[:, :, 3])
        assert np.array_equal(out.data[:, :, 3], data[:, :, 0])

    def test_double_swap_is_identity(self):
        data = np.random.default_rng(3).random((5, 4, 6)).astype(np.float32)
        forced = _ForcedRng(np.random.default_rng(0), random=0.0)
        once = channel_confusion(FeatureTensor(data), forced)
        twice = channel_confusion(once, forced)
        assert np.array_equal(twice.data, data)

    def test_no_swap_keeps_values(self):
        data = np.random.default_rng(3).random((5, 4, 6)).astype(np.float32)
        forced = _ForcedRng(np.random.default_rng(0), random=0.9)
        out = channel_confusion(FeatureTensor(data), forced)
        assert np.array_equal(out.data, data)

    def test_swap_rate_near_half(self):
        data = np.zeros((2, 2, 6), dtype=np.float32)
        data[:, :, 0] = 1.0
        rng = np.random.default_rng(17)
        swaps = sum(
            float(channel_confusion(FeatureTensor(data), rng).data[0, 0, 3]) == 1.0
            for _ in range(400)
        )
        assert 140 < swaps < 260

    def test_mono_tensor_rejected(self, rng):
        with pytest.raises(DataError):
            channel_confusion(FeatureTensor(np.ones((4, 4, 3), dtype=np.float32)), rng)


class TestSpecAugment:
    def test_mask_widths_and_coverage(self):
        t = FeatureTensor(np.ones((400, 128, 2), dtype=np.float32))
        out = spec_augment(t, 0.10, 0.10, np.random.default_rng(4))
        for c in range(2):
            plane = out.data[:, :, c]
            zero_rows = np.flatnonzero(np.all(plane == 0.0, axis=1))
            zero_cols = np.flatnonzero(np.all(plane == 0.0, axis=0))
            assert len(zero_rows) == 40  # round-half-up of 40.0
            assert len(zero_cols) == 13  # round-half-up of 12.8
            assert np.array_equal(zero_rows, np.arange(zero_rows[0], zero_rows[0] + 40))
            assert np.array_equal(zero_cols, np.arange(zero_cols[0], zero_cols[0] + 13))
            # union of one time stripe and one frequency stripe, nothing else
            expected_zeros = 40 * 128 + 400 * 13 - 40 * 13
            assert int((plane == 0.0).sum()) == expected_zeros
            assert np.all(plane[plane != 0.0] == 1.0)

    def test_round_half_up_width(self):
        # 0.10 * 25 bins = 2.5 must widen to 3, not round to even
        t = FeatureTensor(np.ones((30, 25, 1), dtype=np.float32))
        out = spec_augment(t, 0.10, 0.10, np.random.default_rng(4))
        zero_cols = np.flatnonzero(np.all(out.data[:, :, 0] == 0.0, axis=0))
        assert len(zero_cols) == 3

    def test_masks_independent_per_channel(self):
        t = FeatureTensor(np.ones((200, 64, 4), dtype=np.float32))
        out = spec_augment(t, 0.10, 0.10, np.random.default_rng(12))
        starts = set()
        for c in range(4):
            rows = np.flatnonzero(np.all(out.data[:, :, c] == 0.0, axis=1))
            starts.add(int(rows[0]))
        assert len(starts) > 1

    def test_input_not_mutated(self):
        t = FeatureTensor(np.ones((50, 20, 1), dtype=np.float32))
        spec_augment(t, 0.1, 0.1, np.random.default_rng(0))
        assert np.all(t.data == 1.0)


def _noise_clip(rng, seconds=1.0, sr=22050, channels=1):
    samples = rng.normal(0.0, 0.1, size=(int(seconds * sr), channels))
    return AudioClip(np.clip(samples, -1, 1), sr)


class TestSpectrumCorrection:
    CFG = SpectroConfig(n_fft=512, win_length=512, hop=256, n_mels=32)

    def test_equal_profiles_give_identity(self, rng):
        clip = _noise_clip(rng)
        ones = np.ones(self.CFG.n_fft // 2 + 1)
        profiles = {"a": ones, "b": ones.copy()}
        out = spectrum_correct(clip, profiles, self.CFG, source_device="a")
        assert np.allclose(out.samples, clip.samples, atol=1e-8)

    def test_double_reference_doubles_waveform(self, rng):
        clip = _noise_clip(rng)
        ones = np.ones(self.CFG.n_fft // 2 + 1)
        profiles = {"a": ones, "b": 2.0 * ones}
        out = spectrum_correct(clip, profiles, self.CFG, source_device="a")
        assert np.allclose(out.samples, 2.0 * clip.samples, atol=1e-8)

    def test_corrected_profile_tracks_reference(self, rng):
        clip = _noise_clip(rng, seconds=2.0)
        pa = fit_spectrum_profiles({"a": [clip]}, self.CFG)["a"]
        bins = np.arange(len(pa))
        curve = 1.0 + 0.5 * np.sin(2 * np.pi * bins / len(bins))
        profiles = {"a": pa, "b": pa * curve}
        out = spectrum_correct(clip, profiles, self.CFG, source_device="a")
        got = fit_spectrum_profiles({"x": [out]}, self.CFG)["x"]
        strong = pa > 1e-3 * pa.max()
        rel = np.abs(got[strong] - profiles["b"][strong]) / profiles["b"][strong]
        assert float(np.median(rel)) < 0.05

    def test_phase_untouched(self, rng):
        clip = _noise_clip(rng)
        ones = np.ones(self.CFG.n_fft // 2 + 1)
        profiles = {"a": ones, "b": 3.0 * ones}
        out = spectrum_correct(clip, profiles, self.CFG, source_device="a")
        sa = stft_complex(clip.channel(0), self.CFG)
        sb = stft_complex(out.channel(0), self.CFG)
        mask = np.abs(sa) > 1e-3
        da = np.angle(sa[mask])
        db = np.angle(sb[mask])
        diff = np.angle(np.exp(1j * (da - db)))
        assert float(np.abs(diff).max()) < 1e-6

    def test_single_other_device_is_enough(self, rng):
        profiles = {"a": np.ones(257), "b": np.full(257, 2.0)}
        ref = reference_profile(profiles, exclude="a")
        assert np.allclose(ref, 2.0)

    def test_no_reference_devices_rejected(self):
        with pytest.raises(DataError):
            reference_profile({"a": np.ones(257)}, exclude="a")

    def test_missing_source_profile_rejected(self, rng):
        clip = _noise_clip(rng)
        with pytest.raises(DataError):
            spectrum_correct(clip, {"b": np.ones(257)}, self.CFG, source_device="a")


class TestReverbDrc:
    def test_delta_rir_unit_ratio_is_identity(self, rng):
        clip = _noise_clip(rng)
        out = apply_reverb_drc(clip, np.array([1.0]), CompressorConfig(ratio=1.0))
        assert np.allclose(out.samples, clip.samples, atol=1e-7)

    def test_reverb_lengthens_decay(self):
        sr = 22050
        burst = np.zeros(sr)
        burst[: sr // 8] = np.random.default_rng(2).normal(0, 0.3, sr // 8)
        clip = AudioClip(burst.reshape(-1, 1), sr)
        rir = synth_rir(0.6, sr, np.random.default_rng(3))
        out = apply_reverb_drc(clip, rir, CompressorConfig(ratio=1.0))
        tail = slice(sr // 2, sr)
        in_tail = float(np.sum(clip.samples[tail] ** 2))
        out_tail = float(np.sum(out.samples[tail] ** 2))
        assert in_tail == 0.0
        assert out_tail > 1e-8

    def test_rir_length_scales_with_rt60(self):
        sr = 22050
        short = synth_rir(0.1, sr, np.random.default_rng(0))
        long = synth_rir(0.6, sr, np.random.default_rng(0))
        assert len(short) == round(0.1 * sr)
        assert len(long) == round(0.6 * sr)

    def test_limiter_caps_steady_state(self):
        sr = 8000
        t = np.arange(sr) / sr
        x = 0.5 * np.sin(2 * np.pi * 220 * t)  # -6 dBFS, 14 dB over threshold
        drc = CompressorConfig(threshold_db=-20.0, ratio=math.inf)
        y = dynamic_range_compress(x, sr, drc)
        settled = np.abs(y[sr // 2 :])
        assert 0.07 < float(settled.max()) < 0.14

    def test_compressor_never_boosts(self, rng):
        sr = 8000
        x = rng.normal(0, 0.2, sr)
        y = dynamic_range_compress(x, sr, CompressorConfig())
        assert np.all(np.abs(y) <= np.abs(x) + 1e-12)

    def test_peak_restored(self, rng):
        clip = _noise_clip(rng)
        draw = np.random.default_rng(8)
        rt60 = float(draw.uniform(*AugmentConfig().rt60_range))
        rir = synth_rir(rt60, clip.sample_rate, draw)
        out = apply_reverb_drc(clip, rir, CompressorConfig())
        assert math.isclose(
            float(np.max(np.abs(out.samples))),
            float(np.max(np.abs(clip.samples))),
            rel_tol=1e-9,
        )


def _tone(freq, seconds, sr, amp=0.5):
    t = np.arange(int(seconds * sr)) / sr
    return AudioClip((amp * np.sin(2 * np.pi * freq * t)).reshape(-1, 1), sr)


def _peak_bin(clip, n_fft=2048):
    cfg = SpectroConfig(n_fft=n_fft, win_length=n_fft, hop=n_fft // 2)
    mag = np.abs(stft_complex(clip.channel(0), cfg))
    mid = mag[mag.shape[0] // 4 : -mag.shape[0] // 4]
    return int(np.argmax(mid.mean(axis=0)))


class TestPitchShift:
    def test_zero_shift_is_exact_identity(self):
        clip = _tone(440, 0.5, 44100)
        out = pitch_shift_by(clip, 0.0)
        assert np.array_equal(out.samples, clip.samples)

    def test_octave_up_doubles_frequency(self):
        sr = 44100
        clip = _tone(440, 1.0, sr)
        out = pitch_shift_by(clip, 12.0)
        assert out.n_samples == clip.n_samples
        want = round(880 * 2048 / sr)
        assert abs(_peak_bin(out) - want) <= 1

    def test_two_semitones_moves_peak(self):
        sr = 44100
        clip = _tone(440, 1.0, sr)
        out = pitch_shift_by(clip, 2.0)
        want = round(440 * 2 ** (2 / 12) * 2048 / sr)
        assert abs(_peak_bin(out) - want) <= 1

    def test_random_shift_preserves_length(self, rng):
        clip = _tone(330, 0.5, 22050)
        bound = AugmentConfig().pitch_semitones
        out = pitch_shift_by(clip, float(rng.uniform(-bound, bound)))
        assert out.n_samples == clip.n_samples
        assert out.sample_rate == clip.sample_rate


class TestSpeedChange:
    def test_unit_ratio_is_identity(self):
        clip = _tone(440, 0.25, 8000)
        out = speed_change_by(clip, 1.0)
        assert np.allclose(out.samples, clip.samples, atol=1e-12)

    def test_slowdown_truncates(self):
        n = 1000
        x = np.linspace(-0.5, 0.5, n).reshape(-1, 1)
        clip = AudioClip(x, 8000)
        out = speed_change_by(clip, 0.5)
        assert out.n_samples == n
        # position k reads input at 0.5 * k
        assert math.isclose(float(out.samples[10, 0]), float(np.interp(5.0, np.arange(n), x[:, 0])), abs_tol=1e-12)

    def test_speedup_zero_pads_tail(self):
        n = 1000
        clip = AudioClip(np.full((n, 1), 0.25), 8000)
        out = speed_change_by(clip, 2.0)
        assert out.n_samples == n
        assert np.all(out.samples[n // 2 :] == 0.0)
        assert np.all(np.abs(out.samples[: n // 2 - 1]) > 0.0)

    def test_ratio_shifts_tone_frequency(self):
        sr = 44100
        clip = _tone(440, 1.0, sr)
        out = speed_change_by(clip, 1.1)
        cfg = SpectroConfig(n_fft=2048, win_length=2048, hop=1024)
        mag = np.abs(stft_complex(out.channel(0), cfg))
        # only the first 1/1.1 of the output carries signal
        lead = mag[: int(mag.shape[0] * 0.8)]
        got = int(np.argmax(lead.mean(axis=0)))
        assert abs(got - round(440 * 1.1 * 2048 / sr)) <= 1


class TestNoise:
    def test_statistics_match_request(self):
        clip = AudioClip(np.zeros((100_000, 1)), 44100)
        out = add_noise(clip, 0.003, np.random.default_rng(21))
        noise = out.samples[:, 0]
        assert abs(float(noise.std()) - 0.003) < 0.05 * 0.003
        assert abs(float(noise.mean())) < 4 * 0.003 / math.sqrt(100_000)

    def test_zero_std_is_identity(self, rng):
        clip = _tone(100, 0.1, 8000)
        out = add_noise(clip, 0.0, rng)
        assert np.array_equal(out.samples, clip.samples)

    def test_negative_std_rejected(self, rng):
        with pytest.raises(DataError):
            add_noise(_tone(100, 0.1, 8000), -0.1, rng)


class TestMixSameClass:
    def test_self_mix_is_identity(self, rng):
        a = _tone(200, 0.2, 8000)
        out = mix_same_class(a, a, rng)
        assert np.allclose(out.samples, a.samples, atol=1e-12)

    def test_weight_one_returns_first(self, rng):
        a = _tone(200, 0.2, 8000)
        b = _tone(300, 0.2, 8000)
        out = mix_same_class(a, b, rng, weight_range=(1.0, 1.0))
        assert np.array_equal(out.samples, a.samples)

    def test_stft_is_linear_in_the_mix(self, rng):
        a = _noise_clip(rng, seconds=0.5)
        b = _noise_clip(rng, seconds=0.5)
        out = mix_same_class(a, b, rng, weight_range=(0.45, 0.45))
        cfg = SpectroConfig(n_fft=256, win_length=256, hop=128)
        sa = stft_complex(a.channel(0), cfg)
        sb = stft_complex(b.channel(0), cfg)
        sm = stft_complex(out.channel(0), cfg)
        assert np.allclose(sm, 0.45 * sa + 0.55 * sb, atol=1e-6)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(DataError):
            mix_same_class(_tone(200, 0.2, 8000), _tone(200, 0.3, 8000), rng)

    def test_rate_mismatch_rejected(self, rng):
        with pytest.raises(DataError):
            mix_same_class(_tone(200, 0.2, 8000), _tone(200, 0.2, 16000), rng)


class TestDeterminism:
    def test_item_streams_reproduce_bit_identical(self, rng):
        clip = _noise_clip(rng, seconds=0.3, sr=8000)
        outs = []
        for _ in range(2):
            item_rng = rng_for_item(7, 3)
            stage1 = add_noise(clip, 0.003, item_rng)
            rt60 = float(item_rng.uniform(*AugmentConfig().rt60_range))
            rir = synth_rir(rt60, stage1.sample_rate, item_rng)
            stage2 = apply_reverb_drc(stage1, rir, CompressorConfig())
            outs.append(stage2.samples)
        assert np.array_equal(outs[0], outs[1])

    def test_different_items_differ(self, rng):
        clip = _noise_clip(rng, seconds=0.2, sr=8000)
        a = add_noise(clip, 0.003, rng_for_item(7, 3)).samples
        b = add_noise(clip, 0.003, rng_for_item(7, 4)).samples
        assert not np.array_equal(a, b)


class TestConfigValidation:
    def test_bad_speed_range_rejected(self):
        with pytest.raises(DataError):
            AugmentConfig(speed_range=(0.0, 1.0))
