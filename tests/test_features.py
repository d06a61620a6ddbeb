import math
import tracemalloc

import numpy as np
import pytest

from ascpipe.audio import AudioClip
from ascpipe.errors import DataError
from ascpipe.featio import (
    read_features,
    read_scale_stats,
    write_features,
    write_scale_stats,
)
from ascpipe.features import (
    BLOCK_FRAMES,
    MAX_N_FFT,
    FeatureTensor,
    ScaleStats,
    SpectroConfig,
    apply_scale01,
    assemble_tensor,
    deltas,
    extract_clip_features,
    fit_scale01,
    frame_count,
    hann_window,
    hz_to_mel,
    istft,
    log_mel,
    mel_filterbank,
    mel_to_hz,
    stft_complex,
    stft_magnitude,
)

from conftest import make_tone

CFG = SpectroConfig()


def _spectrum(x, cfg):
    """The whole complex STFT, joined from stft_complex's blocks."""
    return np.concatenate(list(stft_complex(x, cfg)))


class TestStft:
    def test_frame_count_10s_44100(self):
        assert frame_count(441000, 1024) == 431

    def test_frame_count_10s_48000(self):
        assert frame_count(480000, 1024) == 469

    def test_frame_count_law_random_lengths(self, rng):
        for n in rng.integers(2048, 500000, size=20):
            clip = AudioClip(rng.standard_normal(int(n)) * 0.1, 44100)
            mag = stft_magnitude(clip, CFG)
            assert mag.shape == (1, int(n) // CFG.hop + 1, CFG.n_fft // 2 + 1)

    def test_frame_count_law_holds_for_an_odd_n_fft(self, rng):
        # at a length that is a multiple of hop the last frame reads one
        # sample more past the end than an even n_fft's does
        cfg = SpectroConfig(n_fft=1023, win_length=1023, hop=512)
        for n in (4096, 4097, 5000):
            mag = stft_magnitude(AudioClip(rng.standard_normal(n) * 0.1, 44100), cfg)
            assert mag.shape == (1, frame_count(n, cfg.hop), 512)

    def test_pure_tone_peaks_at_expected_bin(self, tone_clip):
        mag = stft_magnitude(tone_clip, CFG)[0]
        expected_bin = round(1000 * CFG.n_fft / 44100)
        mid = mag[mag.shape[0] // 2]
        assert int(np.argmax(mid)) == expected_bin

    def test_magnitudes_nonnegative(self, tone_clip):
        assert np.all(stft_magnitude(tone_clip, CFG) >= 0)

    def test_too_short_clip_rejected(self):
        clip = AudioClip(np.ones(100) * 0.1, 44100)
        with pytest.raises(DataError):
            stft_magnitude(clip, CFG)

    def test_istft_reconstructs_interior(self, rng):
        x = rng.standard_normal(50000) * 0.2
        spec = stft_complex(x, CFG)
        y = istft(spec, CFG, len(x))
        np.testing.assert_allclose(y, x, atol=1e-9)

    def test_a_window_shorter_than_n_fft_sits_zero_padded_in_the_middle(self, rng):
        # the reference frames: centred, reflect-padded, times a
        # hann_window(win_length) placed at (n_fft - win_length) // 2
        cfg = SpectroConfig(n_fft=512, win_length=300, hop=128)
        x = rng.standard_normal(4000) * 0.2
        padded = np.pad(x, cfg.n_fft // 2, mode="reflect")
        win = np.zeros(cfg.n_fft)
        lpad = (cfg.n_fft - cfg.win_length) // 2
        win[lpad : lpad + cfg.win_length] = hann_window(cfg.win_length)
        frames = [
            padded[t * cfg.hop : t * cfg.hop + cfg.n_fft] * win
            for t in range(frame_count(len(x), cfg.hop))
        ]
        want = np.fft.rfft(frames, axis=1)
        spec = _spectrum(x, cfg)
        np.testing.assert_allclose(spec, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(istft([spec], cfg, len(x)), x, atol=1e-9)

    def test_stft_is_linear_in_the_mix(self, rng):
        a = rng.normal(0.0, 0.1, 11025)
        b = rng.normal(0.0, 0.1, 11025)
        cfg = SpectroConfig(n_fft=256, win_length=256, hop=128)
        mixed = _spectrum(0.45 * a + 0.55 * b, cfg)
        parts = 0.45 * _spectrum(a, cfg) + 0.55 * _spectrum(b, cfg)
        np.testing.assert_allclose(mixed, parts, atol=1e-6)

    def test_the_spectrum_comes_in_blocks_of_block_frames(self, rng):
        x = rng.standard_normal(3 * BLOCK_FRAMES * CFG.hop) * 0.1
        sizes = [block.shape for block in stft_complex(x, CFG)]
        t = frame_count(len(x), CFG.hop)
        assert sizes == [(BLOCK_FRAMES, 1025)] * 3 + [(t - 3 * BLOCK_FRAMES, 1025)]

    def test_blocks_give_the_bytes_of_one_whole_array_transform(self, rng):
        # rfft, irfft and abs work row by row, so the blocks change no byte:
        # the reference is the one-array STFT, magnitude and overlap-add
        cfg = SpectroConfig(n_fft=512, win_length=512, hop=128)
        x = rng.standard_normal(5 * BLOCK_FRAMES * cfg.hop + 77) * 0.2
        padded = np.pad(x, (cfg.n_fft // 2, cfg.n_fft - cfg.n_fft // 2), mode="reflect")
        t = frame_count(len(x), cfg.hop)
        frames = np.stack([padded[i * cfg.hop : i * cfg.hop + cfg.n_fft] for i in range(t)])
        win = hann_window(cfg.n_fft)
        want = np.fft.rfft(frames * win, n=cfg.n_fft, axis=1)
        assert np.array_equal(_spectrum(x, cfg), want)
        assert np.array_equal(stft_magnitude(AudioClip(x, 8000), cfg)[0], np.abs(want))

        inverse = np.fft.irfft(want, n=cfg.n_fft, axis=1) * win
        out = np.zeros(cfg.hop * (t - 1) + cfg.n_fft)
        norm = np.zeros_like(out)
        for i in range(t):
            out[i * cfg.hop : i * cfg.hop + cfg.n_fft] += inverse[i]
            norm[i * cfg.hop : i * cfg.hop + cfg.n_fft] += win * win
        out = np.where(norm > 1e-12, out / np.maximum(norm, 1e-12), out)
        ref = out[cfg.n_fft // 2 : cfg.n_fft // 2 + len(x)]
        assert np.array_equal(istft(stft_complex(x, cfg), cfg, len(x)), ref)
        assert np.array_equal(istft([want[:5], want[5:]], cfg, len(x)), ref)

    @pytest.mark.parametrize("cut", [-1, 1])
    def test_istft_needs_the_frame_count_of_its_length(self, rng, cut):
        x = rng.standard_normal(20000) * 0.1
        spec = _spectrum(x, CFG)
        with pytest.raises(DataError, match="frames"):
            istft([spec], CFG, len(x) + cut * CFG.hop)


def _bank_built_whole(cfg, sample_rate):
    """The filterbank built as mel_filterbank builds it, and the indices of
    its filters with no positive value: the rule that rejected a config
    once its whole bank was built."""
    n_bins = cfg.n_fft // 2 + 1
    bin_hz = np.arange(n_bins) * sample_rate / cfg.n_fft
    mels = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.resolve_fmax(sample_rate)), cfg.n_mels + 2)
    corners = mel_to_hz(mels)
    bank = np.zeros((cfg.n_mels, n_bins))
    for m in range(cfg.n_mels):
        lo, mid, hi = corners[m], corners[m + 1], corners[m + 2]
        rising = (bin_hz - lo) / max(mid - lo, 1e-12)
        falling = (hi - bin_hz) / max(hi - mid, 1e-12)
        bank[m] = np.maximum(0.0, np.minimum(rising, falling))
    return bank, np.flatnonzero(~bank.any(axis=1))


class TestMelFilterbank:
    def test_htk_formula_at_700hz(self):
        assert math.isclose(hz_to_mel(700.0), 2595.0 * math.log10(2.0), rel_tol=1e-12)
        assert abs(hz_to_mel(700.0) - 781.17) < 0.01

    def test_htk_formula_at_zero(self):
        assert hz_to_mel(0.0) == 0.0

    def test_shape_and_row_sums(self):
        bank = mel_filterbank(CFG, 44100)
        assert bank.shape == (128, 1025)
        assert np.all(bank.sum(axis=1) > 0)
        assert np.all(bank >= 0)

    def test_interior_bins_all_covered(self):
        # every FFT bin strictly between fmin and fmax gets positive weight
        bank = mel_filterbank(CFG, 44100)
        bin_hz = np.arange(1025) * 44100 / 2048
        interior = (bin_hz > 0) & (bin_hz < 22050)
        assert np.all(bank.sum(axis=0)[interior] > 0)

    def test_too_many_filters_rejected(self):
        cfg = SpectroConfig(n_mels=1024)
        with pytest.raises(DataError):
            mel_filterbank(cfg, 44100)

    def test_fmax_above_nyquist_rejected(self):
        cfg = SpectroConfig(fmax=30000.0)
        with pytest.raises(DataError):
            mel_filterbank(cfg, 44100)

    def test_counting_bins_rejects_what_the_built_bank_rejected(self):
        rejected = total = 0
        for n_fft in (64, 256, 1000, 2048):
            for sample_rate in (8000, 22050, 44100):
                # the last pair is two adjacent bins at n_fft 64 and 8 kHz, which
                # the mel scale maps back to exactly: no bin lies strictly between
                for fmin, fmax in ((0.0, None), (50.0, None), (300.0, 3000.0), (1375.0, 1500.0)):
                    for n_mels in (1, 4, 16, 32, 48, 64, 96, 128, 192, n_fft // 2 + 1):
                        if n_mels > n_fft // 2 + 1:
                            continue
                        cfg = SpectroConfig(n_fft=n_fft, win_length=n_fft, hop=n_fft,
                                            n_mels=n_mels, fmin=fmin, fmax=fmax)
                        bank, empty = _bank_built_whole(cfg, sample_rate)
                        total += 1
                        if empty.size:
                            rejected += 1
                            message = rf"^{empty.size} mel filters have no FFT bin \(first: {empty[0]}\)"
                            with pytest.raises(DataError, match=message):
                                mel_filterbank(cfg, sample_rate)
                        else:
                            assert np.array_equal(mel_filterbank(cfg, sample_rate), bank)
        assert 0 < rejected < total  # 170 of 408

    def test_empty_filters_are_rejected_before_the_bank_is_built(self):
        # this bank alone would take 8193 * 8193 * 8 bytes, 537 MB
        cfg = SpectroConfig(n_fft=MAX_N_FFT, n_mels=MAX_N_FFT // 2 + 1)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="^1720 mel filters have no FFT bin"):
                mel_filterbank(cfg, 44100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_the_caps_themselves_accepted(self):
        # no more bands than FFT bins, and n_fft at most 8 times the default
        cfg = SpectroConfig(n_fft=MAX_N_FFT, win_length=1024, n_mels=MAX_N_FFT // 2 + 1)
        assert cfg.n_mels == 8193
        assert SpectroConfig(n_fft=512, n_mels=257, win_length=512).n_mels == 257


class TestLogMel:
    def test_silence_maps_to_log_floor(self):
        bank = mel_filterbank(CFG, 44100)
        mag = np.zeros((10, 1025))
        out = log_mel(mag, bank, CFG.log_floor)
        np.testing.assert_allclose(out, math.log(CFG.log_floor))

    def test_output_shape(self):
        bank = mel_filterbank(CFG, 44100)
        out = log_mel(np.ones((431, 1025)), bank)
        assert out.shape == (431, 128)

    def test_doubling_waveform_adds_log4(self, rng):
        x = rng.standard_normal(60000) * 0.2
        bank = mel_filterbank(CFG, 44100)
        m1 = stft_magnitude(AudioClip(x, 44100), CFG)[0]
        m2 = stft_magnitude(AudioClip(np.clip(2 * x, -1e9, 1e9), 44100), CFG)[0]
        p1 = (m1**2) @ bank.T
        out1 = log_mel(m1, bank, CFG.log_floor)
        out2 = log_mel(m2, bank, CFG.log_floor)
        energized = p1 > 1e-4  # mel power far above the log floor
        assert energized.any()
        diff = out2[energized] - out1[energized]
        np.testing.assert_allclose(diff, math.log(4.0), atol=1e-6)

    def test_shape_mismatch_rejected(self):
        bank = mel_filterbank(CFG, 44100)
        with pytest.raises(DataError):
            log_mel(np.ones((10, 999)), bank)


class TestDeltas:
    def test_shrinkage_431_to_423(self, rng):
        x = rng.standard_normal((431, 128))
        d = deltas(x)
        assert d.shape == (427, 128)
        assert deltas(d).shape == (423, 128)

    def test_constant_input_gives_zero(self):
        np.testing.assert_allclose(deltas(np.full((50, 4), 3.7)), 0.0)

    def test_linear_ramp_gives_one(self):
        x = np.arange(30, dtype=float)[:, None] * np.ones((1, 5))
        np.testing.assert_allclose(deltas(x), 1.0)

    def test_linearity(self, rng):
        x = rng.standard_normal((40, 8))
        y = rng.standard_normal((40, 8))
        lhs = deltas(2.5 * x + 0.3 * y)
        rhs = 2.5 * deltas(x) + 0.3 * deltas(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            deltas(np.zeros((4, 3)))


class TestAssemble:
    def test_mono_shape(self, rng):
        static = rng.standard_normal((431, 128))
        t = assemble_tensor([static])
        assert t.shape == (423, 128, 3)

    def test_stereo_shape(self, rng):
        statics = [rng.standard_normal((469, 128)) for _ in range(2)]
        t = assemble_tensor(statics)
        assert t.shape == (461, 128, 6)

    def test_channel0_is_trimmed_static(self, rng):
        static = rng.standard_normal((60, 16))
        t = assemble_tensor([static])
        np.testing.assert_allclose(t.data[:, :, 0], static[4:-4].astype(np.float32))

    def test_channel1_is_trimmed_delta(self, rng):
        static = rng.standard_normal((60, 16))
        t = assemble_tensor([static])
        d = deltas(static)
        np.testing.assert_allclose(t.data[:, :, 1], d[2:-2].astype(np.float32))


class TestEndToEnd:
    def test_10s_44100_mono_shape_423x128x3(self):
        clip = make_tone(800.0, 10.0, 44100)
        t = extract_clip_features(clip, CFG)
        assert t.shape == (423, 128, 3)

    def test_10s_48000_stereo_shape_461x128x6(self):
        clip = make_tone(800.0, 10.0, 48000, channels=2)
        t = extract_clip_features(clip, CFG)
        assert t.shape == (461, 128, 6)

    def test_downmix_flag_forces_three_channels(self):
        clip = make_tone(800.0, 2.0, 48000, channels=2)
        cfg = SpectroConfig(downmix=True)
        assert extract_clip_features(clip, cfg).shape[2] == 3


class TestScale01:
    def test_single_tensor_corpus_maps_to_unit_range(self, rng):
        t = FeatureTensor(rng.standard_normal((20, 8, 3)))
        stats = fit_scale01([t])
        out = apply_scale01(t, stats)
        for c in range(3):
            assert math.isclose(float(out.data[:, :, c].min()), 0.0, abs_tol=1e-7)
            assert math.isclose(float(out.data[:, :, c].max()), 1.0, abs_tol=1e-7)

    def test_out_of_range_clamps(self, rng):
        t = FeatureTensor(rng.uniform(0, 1, (10, 4, 2)))
        stats = fit_scale01([t])
        big = FeatureTensor(np.full((5, 4, 2), 50.0))
        out = apply_scale01(big, stats)
        np.testing.assert_allclose(out.data, 1.0)
        small = FeatureTensor(np.full((5, 4, 2), -50.0))
        np.testing.assert_allclose(apply_scale01(small, stats).data, 0.0)

    def test_two_tensor_corpus_matches_elementwise_scan(self, rng):
        a = FeatureTensor(rng.standard_normal((7, 5, 3)))
        b = FeatureTensor(rng.standard_normal((9, 5, 3)))
        stats = fit_scale01([a, b])
        for c in range(3):
            everything = np.concatenate(
                [a.data[:, :, c].ravel(), b.data[:, :, c].ravel()]
            )
            assert stats.mins[c] == everything.min()
            assert stats.maxs[c] == everything.max()

    def test_merge_order_irrelevant(self, rng):
        tensors = [FeatureTensor(rng.standard_normal((6, 4, 2))) for _ in range(5)]
        s1 = fit_scale01(tensors)
        s2 = fit_scale01(tensors[::-1])
        np.testing.assert_array_equal(s1.mins, s2.mins)
        np.testing.assert_array_equal(s1.maxs, s2.maxs)

    def test_idempotent_on_scaled_data(self, rng):
        t = FeatureTensor(rng.standard_normal((20, 8, 3)))
        stats = fit_scale01([t])
        once = apply_scale01(t, stats)
        unit = ScaleStats(np.zeros(3), np.ones(3))
        twice = apply_scale01(once, unit)
        np.testing.assert_array_equal(once.data, twice.data)

    def test_degenerate_channel_rejected_at_fit(self):
        t = FeatureTensor(np.zeros((5, 4, 2)))
        with pytest.raises(DataError):
            fit_scale01([t])

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            fit_scale01([])


class TestFeatureIO:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        t = FeatureTensor(rng.standard_normal((23, 12, 3)).astype(np.float32))
        path = tmp_path / "x.ascf"
        write_features(path, t)
        back = read_features(path)
        assert back.shape == t.shape
        np.testing.assert_array_equal(
            back.data.view(np.uint32), t.data.view(np.uint32)
        )

    def test_header_layout(self, tmp_path):
        t = FeatureTensor(np.zeros((2, 3, 1), dtype=np.float32) + 0.5)
        path = tmp_path / "h.ascf"
        write_features(path, t)
        raw = path.read_bytes()
        assert raw[:4] == b"ASCF"
        assert np.frombuffer(raw[4:20], dtype="<u4").tolist() == [1, 2, 3, 1]
        assert raw[20:24] == b"f32 "
        assert len(raw) == 24 + 2 * 3 * 1 * 4

    def test_read_holds_the_payload_once(self, tmp_path, rng):
        # the tensor is a view of the bytes read, and the finiteness check
        # adds a boolean per value, a quarter of the file; a copy of the
        # payload would take the peak past twice the file
        path = tmp_path / "x.ascf"
        write_features(path, FeatureTensor(rng.standard_normal((200, 64, 3))))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            t = read_features(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert t.shape == (200, 64, 3)
        assert peak <= 1.5 * path.stat().st_size

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.ascf"
        path.write_bytes(b"ASCF" + b"\x00" * 10)
        with pytest.raises(DataError):
            read_features(path)

    def test_scale_stats_round_trip(self, tmp_path):
        stats = ScaleStats(np.array([-3.25, 0.1]), np.array([7.5, 0.30000000000000004]))
        path = tmp_path / "stats.txt"
        write_scale_stats(path, stats)
        back = read_scale_stats(path)
        np.testing.assert_array_equal(back.mins, stats.mins)
        np.testing.assert_array_equal(back.maxs, stats.maxs)
