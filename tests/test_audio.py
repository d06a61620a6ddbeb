import struct

import numpy as np
import pytest

from ascpipe.audio import AudioClip, load_wav, save_wav
from ascpipe.errors import DataError, MalformedWavError, UnsupportedWavError


def test_pcm16_mono_10s_sample_count(wav_factory):
    path = wav_factory("mono.wav", seconds=10.0, sr=44100)
    clip = load_wav(path)
    assert clip.sample_rate == 44100
    assert clip.channels == 1
    assert clip.n_samples == 441000


def test_pcm16_stereo_10s_sample_count(wav_factory):
    path = wav_factory("stereo.wav", seconds=10.0, sr=48000, channels=2)
    clip = load_wav(path)
    assert clip.sample_rate == 48000
    assert clip.channels == 2
    assert clip.samples.shape == (480000, 2)


def test_samples_normalized_to_unit_range(wav_factory):
    clip = load_wav(wav_factory("loud.wav"))
    assert np.all(np.abs(clip.samples) <= 1.0)
    assert np.max(np.abs(clip.samples)) > 0.4


def test_float32_round_trip(tmp_path, rng):
    x = rng.uniform(-0.9, 0.9, size=(4000, 2))
    path = tmp_path / "f32.wav"
    save_wav(path, AudioClip(x, 16000), encoding="float32")
    clip = load_wav(path)
    np.testing.assert_allclose(clip.samples, x, atol=1e-7)


def test_pcm16_round_trip_quantization_bound(tmp_path, rng):
    x = rng.uniform(-0.9, 0.9, size=2000)
    path = tmp_path / "p16.wav"
    save_wav(path, AudioClip(x, 8000))
    clip = load_wav(path)
    np.testing.assert_allclose(clip.channel(0), x, atol=0.5 / 32768 + 1e-9)


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_wav(tmp_path / "nope.wav")


def test_truncated_header_is_malformed(tmp_path, wav_factory):
    good = wav_factory("good.wav").read_bytes()
    bad = tmp_path / "trunc.wav"
    bad.write_bytes(good[:10])
    with pytest.raises(MalformedWavError):
        load_wav(bad)


def test_truncated_data_chunk_is_malformed(tmp_path, wav_factory):
    good = wav_factory("good2.wav").read_bytes()
    bad = tmp_path / "cut.wav"
    bad.write_bytes(good[: len(good) // 2])
    with pytest.raises(MalformedWavError):
        load_wav(bad)


def test_not_riff_is_malformed(tmp_path):
    bad = tmp_path / "noise.wav"
    bad.write_bytes(b"OGGS" + b"\x00" * 100)
    with pytest.raises(MalformedWavError):
        load_wav(bad)


def test_unsupported_encoding_is_distinct_error(tmp_path):
    # 8-bit PCM: well formed but not an encoding we decode
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 8000, 1, 8)
    payload = bytes(range(64))
    raw = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<I", len(fmt)),
            fmt,
            b"data",
            struct.pack("<I", len(payload)),
            payload,
        ]
    )
    path = tmp_path / "u8.wav"
    path.write_bytes(raw)
    with pytest.raises(UnsupportedWavError):
        load_wav(path)


def test_extra_chunks_are_skipped(tmp_path, wav_factory):
    raw = wav_factory("base.wav").read_bytes()
    # splice a LIST chunk between fmt and data
    fmt_end = raw.index(b"data")
    extra = b"LIST" + struct.pack("<I", 4) + b"INFO"
    spliced = raw[:fmt_end] + extra + raw[fmt_end:]
    spliced = spliced[:4] + struct.pack("<I", len(spliced) - 8) + spliced[8:]
    path = tmp_path / "extra.wav"
    path.write_bytes(spliced)
    clip = load_wav(path)
    assert clip.n_samples == 44100


def test_clip_invariants():
    with pytest.raises(DataError):
        AudioClip(np.zeros((0, 1)), 44100)
    with pytest.raises(DataError):
        AudioClip(np.array([np.nan, 0.0]), 44100)
    with pytest.raises(DataError):
        AudioClip(np.zeros(10), 0)
    with pytest.raises(DataError, match="channel count 100"):  # (n, channels) only
        AudioClip(np.zeros((2, 100)), 8000)


def test_one_frame_stereo_wav_keeps_its_two_channels(tmp_path):
    fmt = struct.pack("<HHIIHH", 1, 2, 8000, 8000 * 4, 4, 16)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
            + b"data" + struct.pack("<I", 4) + struct.pack("<hh", 8192, -16384))
    path = tmp_path / "one_frame.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    clip = load_wav(path)
    assert clip.samples.tolist() == [[0.25, -0.5]]


def test_downmix_averages_channels():
    x = np.stack([np.ones(100), -np.ones(100)], axis=1)
    mono = AudioClip(x, 8000).downmixed()
    assert mono.channels == 1
    np.testing.assert_allclose(mono.channel(0), 0.0)
