"""Tests for waveform and feature-tensor augmentations."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from ascpipe.audio import AudioClip
from ascpipe.augment import (
    MAX_PITCH_SEMITONES,
    MAX_RT60_S,
    AugmentConfig,
    CompressorConfig,
    LabeledBatch,
    add_noise,
    apply_reverb_drc,
    channel_confusion,
    dynamic_range_compress,
    mixup_batch,
    pitch_shift_by,
    random_crop,
    rng_for_item,
    spec_augment,
    speed_change_by,
    synth_rir,
)
from ascpipe.errors import DataError
from ascpipe.features import BLOCK_FRAMES, FeatureTensor, SpectroConfig, hann_window, stft_complex


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

    def test_an_instant_limiter_caps_every_loud_sample(self, rng):
        # zero attack and release times follow the level sample by sample, so
        # from the first loud sample on each one over the threshold sits on it
        sr = 8000
        x = np.concatenate([rng.normal(0, 0.01, 400), rng.uniform(-0.9, 0.9, 4000)])
        drc = CompressorConfig(threshold_db=-20.0, ratio=math.inf, attack_ms=0, release_ms=0)
        y = dynamic_range_compress(x, sr, drc)
        loud = np.abs(x) > 0.1
        assert loud[400:].any() and not loud[:400].any()
        np.testing.assert_allclose(20 * np.log10(np.abs(y[loud])), -20.0, rtol=0, atol=1e-9)
        assert np.array_equal(y[~loud], x[~loud])

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
    mag = np.abs(np.concatenate(list(stft_complex(clip.channel(0), cfg))))
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
        mag = np.abs(np.concatenate(list(stft_complex(out.channel(0), cfg))))
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pitch_semitones", MAX_PITCH_SEMITONES + 0.5),
            ("pitch_semitones", 300.0),
            ("rt60_range", (0.1, MAX_RT60_S + 0.5)),
            ("rt60_range", (1e9, 1e9)),
        ],
    )
    def test_values_past_the_caps_rejected(self, field, value):
        with pytest.raises(DataError, match=field):
            AugmentConfig(**{field: value})

    def test_the_caps_themselves_accepted(self):
        AugmentConfig(pitch_semitones=MAX_PITCH_SEMITONES, rt60_range=(MAX_RT60_S, MAX_RT60_S))


class TestSpeedKeepsOnlyWhatItKeeps:
    @pytest.mark.parametrize("ratio", [0.5, 0.9, 1.0, 1.1, 1.7, 2.0])
    def test_kept_values_are_those_of_the_full_resampling(self, rng, ratio):
        clip = _noise_clip(rng, seconds=0.2, sr=8000, channels=2)
        n = clip.n_samples
        out_len = int(round(n / ratio))
        keep = min(out_len, n)
        want = np.zeros((n, 2))
        for c in range(2):
            full = np.interp(np.arange(out_len) * ratio, np.arange(n), clip.channel(c))
            want[:keep, c] = full[:keep]
        assert np.array_equal(speed_change_by(clip, ratio).samples, want)

    @pytest.mark.parametrize("ratio", [1e-300, 5e-324])
    def test_a_tiny_ratio_holds_the_first_sample(self, rng, ratio):
        # n / 5e-324 is infinite and n / 1e-300 has no array of its size
        clip = _noise_clip(rng, seconds=0.1, sr=8000)
        out = speed_change_by(clip, ratio)
        assert np.array_equal(out.samples, np.full_like(clip.samples, clip.samples[0, 0]))


# ---------------------------------------------------------------------------
# the block-wise vocoder and the channel-wise compressor against the
# whole-array versions they replaced: same bytes


def _ref_stft(x, n_fft, hop):
    pad = n_fft // 2
    padded = np.pad(x, (pad, n_fft - pad), mode="reflect")
    t = len(x) // hop + 1
    frames = np.stack([padded[i * hop : i * hop + n_fft] for i in range(t)])
    return np.fft.rfft(frames * hann_window(n_fft), n=n_fft, axis=1)


def _ref_istft(spec, n_fft, hop, n_samples):
    win = hann_window(n_fft)
    frames = np.fft.irfft(spec, n=n_fft, axis=1) * win
    total = hop * (spec.shape[0] - 1) + n_fft
    out = np.zeros(total)
    norm = np.zeros(total)
    for i in range(spec.shape[0]):
        out[i * hop : i * hop + n_fft] += frames[i]
        norm[i * hop : i * hop + n_fft] += win * win
    out = np.where(norm > 1e-12, out / np.maximum(norm, 1e-12), out)
    return out[n_fft // 2 : n_fft // 2 + n_samples]


def _ref_stretch(x, out_len):
    """The phase vocoder over whole-clip arrays; also says whether the
    last input frame pair was clamped to n_in - 2."""
    win = 2048 if len(x) >= 4096 else 512
    hop = win // 4
    spec = _ref_stft(x, win, hop)
    n_in = spec.shape[0]
    n_out = out_len // hop + 1
    rate = (n_in - 1) / max(n_out - 1, 1)
    omega = 2.0 * np.pi * hop * np.arange(spec.shape[1]) / win
    mags, phases = np.abs(spec), np.angle(spec)
    out = np.empty((n_out, spec.shape[1]), dtype=complex)
    phase = phases[0].copy()
    out[0] = spec[0]
    clamped = False
    for j in range(1, n_out):
        pos = j * rate
        clamped |= int(pos) > n_in - 2
        i = min(int(pos), n_in - 2)
        frac = pos - i
        mag = (1 - frac) * mags[i] + frac * mags[i + 1]
        dphi = phases[i + 1] - phases[i] - omega
        dphi -= 2.0 * np.pi * np.round(dphi / (2.0 * np.pi))
        phase = phase + omega + dphi
        out[j] = mag * np.exp(1j * phase)
    return _ref_istft(out, win, hop, out_len), (win, n_out, clamped)


def _ref_pitch_shift(samples, semitones):
    factor = 2.0 ** (semitones / 12.0)
    out = np.empty_like(samples)
    for c in range(samples.shape[1]):
        x = samples[:, c]
        m = max(int(round(len(x) / factor)), 2)
        resampled = np.interp(np.arange(m) * factor, np.arange(len(x)), x)
        out[:, c], info = _ref_stretch(resampled, len(x))
    return out, info


def _ref_compress(x, sr, drc):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64).T).T
    level_db = 20.0 * np.log10(np.abs(x.T) + 1e-12)
    attack = 1.0 if drc.attack_ms <= 0 else 1.0 - math.exp(-1.0 / (sr * drc.attack_ms / 1000.0))
    release = 1.0 if drc.release_ms <= 0 else 1.0 - math.exp(-1.0 / (sr * drc.release_ms / 1000.0))
    slope = 1.0 if math.isinf(drc.ratio) else 1.0 - 1.0 / drc.ratio
    env_db = np.empty_like(level_db)
    for levels, row in zip(level_db, env_db):
        env = float(levels[0])
        for k, lvl in enumerate(levels.tolist()):
            env += (attack if lvl > env else release) * (lvl - env)
            row[k] = env
    over = env_db - drc.threshold_db
    gain_db = np.where(over > 0, -slope * over, 0.0)
    return x * 10.0 ** ((gain_db.T + drc.makeup_db) / 20.0)


def _ref_reverb_drc(samples, sr, rir, drc):
    n = len(samples) + len(rir) - 1
    size = 1 << (n - 1).bit_length()
    wet = np.stack([
        np.fft.irfft(np.fft.rfft(samples[:, c], size) * np.fft.rfft(rir, size), size)[: len(samples)]
        for c in range(samples.shape[1])
    ], axis=1)
    out = _ref_compress(wet, sr, drc)
    peak = float(np.max(np.abs(out)))
    return out * (float(np.max(np.abs(samples))) / peak)


COMPRESSORS = [CompressorConfig(), CompressorConfig(ratio=math.inf, attack_ms=0, release_ms=0)]


class TestStreamingMatchesWholeArrays:
    @pytest.mark.parametrize(
        "n, sr, channels, semitones, win, n_out",
        [
            # a clip shorter than 4096 samples: the 512 window, fewer
            # output frames than one block
            (3000, 8000, 1, 1.5, 512, 3000 // 128 + 1),
            (3000, 8000, 2, -2.0, 512, 3000 // 128 + 1),
            # the 2048 window over exactly two blocks of output frames
            (127 * 512, 22050, 1, 2.0, 2048, 2 * BLOCK_FRAMES),
            (127 * 512, 22050, 2, -0.7, 2048, 2 * BLOCK_FRAMES),
            # many blocks, and shifts whose frame rate skips ahead by more
            # than one frame per output frame
            (44100, 44100, 2, -12.0, 2048, 44100 // 512 + 1),
            (30000, 16000, 1, -24.0, 2048, 30000 // 512 + 1),
            (12000, 16000, 1, 24.0, 512, 12000 // 128 + 1),
        ],
    )
    def test_pitch_shift_bytes(self, rng, n, sr, channels, semitones, win, n_out):
        clip = _noise_clip(rng, seconds=n / sr, sr=sr, channels=channels)
        want, (ref_win, ref_n_out, _) = _ref_pitch_shift(clip.samples, semitones)
        assert (ref_win, ref_n_out) == (win, n_out)
        assert np.array_equal(pitch_shift_by(clip, semitones).samples, want)

    def test_the_last_frame_pair_clamp_is_reached(self, rng):
        # at -1 semitone the last output frame reads past input frame n_in - 2
        clip = _noise_clip(rng, seconds=0.5, sr=16000)
        want, (_, _, clamped) = _ref_pitch_shift(clip.samples, -1.0)
        assert clamped
        assert np.array_equal(pitch_shift_by(clip, -1.0).samples, want)

    @pytest.mark.parametrize("drc", COMPRESSORS, ids=["default", "limiter"])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_reverb_drc_bytes(self, rng, drc, channels):
        clip = _noise_clip(rng, seconds=0.5, sr=16000, channels=channels)
        rir = synth_rir(0.3, clip.sample_rate, np.random.default_rng(4))
        want = _ref_reverb_drc(clip.samples, clip.sample_rate, rir, drc)
        assert np.array_equal(apply_reverb_drc(clip, rir, drc).samples, want)

    @pytest.mark.parametrize(
        "drc",
        COMPRESSORS + [CompressorConfig(threshold_db=-30.0, ratio=2.0, makeup_db=3.0)],
        ids=["default", "limiter", "makeup"],
    )
    def test_compressor_bytes(self, rng, drc):
        # the compressor takes one channel: each column of a stereo input
        # against that column of the reference
        x = rng.normal(0.0, 0.3, (4000, 2))
        want = _ref_compress(x, 8000, drc)
        for c in range(x.shape[1]):
            assert np.array_equal(dynamic_range_compress(x[:, c], 8000, drc), want[:, c])


class TestWaveformOpsLeaveTheirInput:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_compressor(self, rng, dtype):
        x = rng.normal(0.0, 0.3, 3000).astype(dtype)
        before = x.copy()
        y = dynamic_range_compress(x, 8000, CompressorConfig(ratio=math.inf))
        assert y.shape == (3000,) and y.dtype == np.float64
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("shape", [(3000, 1), (3000, 2)])
    def test_compressor_takes_one_channel(self, shape):
        with pytest.raises(DataError, match=re.escape(f"got shape {shape}")):
            dynamic_range_compress(np.zeros(shape), 8000, CompressorConfig())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3000,), (3000, 2)])
    def test_reverb_drc(self, rng, dtype, shape):
        # a float64 input is the clip's own samples array, not a copy
        x = rng.normal(0.0, 0.3, shape).astype(dtype)
        before = x.copy()
        clip = AudioClip(x, 8000)
        apply_reverb_drc(clip, synth_rir(0.2, 8000, rng), CompressorConfig())
        assert np.array_equal(x, before)
        assert np.array_equal(clip.samples, before.reshape(3000, -1))


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


# Traced peaks on a 10 s 48 kHz stereo clip. The whole-array vocoder held
# the clip's spectrum, magnitudes, phases and output spectrum at once, and
# reverb+DRC both channels' convolutions and float64 envelopes: 89.1 and
# 55.0 MiB. Block by block and channel by channel they measure PITCH_MIB
# and REVERB_MIB; the bounds allow about 10 % more.
PITCH_MIB, REVERB_MIB = 34.4, 23.3


class TestWaveformOpMemory:
    @pytest.fixture(scope="class")
    def clip(self):
        return _noise_clip(np.random.default_rng(0), seconds=10.0, sr=48000, channels=2)

    def test_pitch_shift(self, clip):
        # -2 semitones, the default cap, gives the longest resampled clip
        assert _traced_peak_mib(lambda: pitch_shift_by(clip, -2.0)) <= 1.1 * PITCH_MIB

    def test_reverb_drc(self, clip):
        rir = synth_rir(AugmentConfig().rt60_range[1], clip.sample_rate, np.random.default_rng(1))
        assert _traced_peak_mib(lambda: apply_reverb_drc(clip, rir, CompressorConfig())) <= 1.1 * REVERB_MIB
