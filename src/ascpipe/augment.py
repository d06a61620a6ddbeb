"""Data augmentation: waveform-level and feature-tensor-level transforms.

Tensor-level (applied online during training): mixup, random cropping,
channel confusion, time/frequency masking. Waveform-level (used to grow
the corpus): reverberation + dynamic range compression, pitch shift,
speed change and additive Gaussian noise.

Every transform takes an explicit numpy Generator; identical seeds give
bit-identical outputs. Per-item streams come from rng_for_item so files
can be processed in parallel in any order.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .audio import AudioClip
from .errors import DataError
from .features import (
    BLOCK_FRAMES,
    FeatureTensor,
    SpectroConfig,
    frame_count,
    istft,
    stft_complex,
)


MAX_PITCH_SEMITONES = 24.0  # two octaves either way
MAX_RT60_S = 10.0


@dataclass(frozen=True)
class AugmentConfig:
    """Waveform augmentation settings; the online tensor-level ones are
    ``nn.OnlineAugment``."""

    pitch_semitones: float = 2.0  # shift drawn uniformly from +/- this
    speed_range: tuple[float, float] = (0.9, 1.1)
    noise_std: float = 0.003  # of full scale, about -50 dBFS
    rt60_range: tuple[float, float] = (0.1, 0.6)

    def __post_init__(self):
        lo, hi = self.speed_range
        if not (0 < lo <= hi <= 2):
            raise DataError("speed_range must lie within (0, 2]")
        # the caps bound what a drawn value allocates: an impulse response
        # of rt60 seconds, and a resampled clip of up to 4 times the input
        lo, hi = self.rt60_range
        if not 0 < lo <= hi <= MAX_RT60_S:
            raise DataError(f"rt60_range must be ascending within (0, {MAX_RT60_S:g}] s")
        if not 0 <= self.pitch_semitones <= MAX_PITCH_SEMITONES:
            raise DataError(f"pitch_semitones must lie within [0, {MAX_PITCH_SEMITONES:g}]")
        if not self.noise_std >= 0:
            raise DataError("noise_std must be non-negative")


@dataclass(frozen=True)
class CompressorConfig:
    threshold_db: float = -20.0
    ratio: float = 4.0  # math.inf gives hard limiting
    attack_ms: float = 5.0
    release_ms: float = 100.0
    makeup_db: float = 0.0


def rng_for_item(seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible stream for one corpus item."""
    return np.random.default_rng([seed, index])


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# tensor-level transforms


@dataclass
class LabeledBatch:
    """A batch of feature tensors with soft labels (rows sum to 1)."""

    tensors: np.ndarray  # (B, T, F, C)
    labels: np.ndarray  # (B, K)

    def __post_init__(self):
        self.tensors = np.asarray(self.tensors, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.float32)
        if self.tensors.ndim != 4 or self.labels.ndim != 2:
            raise DataError("batch needs (B,T,F,C) tensors and (B,K) labels")
        if self.tensors.shape[0] != self.labels.shape[0]:
            raise DataError("tensor/label batch size mismatch")
        if self.tensors.shape[0] < 1:
            raise DataError("empty batch")
        if np.any(np.abs(self.labels.sum(axis=1) - 1.0) > 1e-6):
            raise DataError("label rows must sum to 1")


def mixup_batch(
    batch: LabeledBatch, alpha: float, rng: np.random.Generator
) -> LabeledBatch:
    """Convex-combine the batch with a shuffled copy of itself.

    One Beta(alpha, alpha) weight per batch, applied identically to tensors
    and labels.
    """
    b = batch.tensors.shape[0]
    if b < 2:
        raise DataError("mixup needs at least 2 items per batch")
    lam = np.float32(rng.beta(alpha, alpha))
    perm = rng.permutation(b)
    tensors = lam * batch.tensors + (1 - lam) * batch.tensors[perm]
    labels = lam * batch.labels + (1 - lam) * batch.labels[perm]
    return LabeledBatch(tensors, labels)


def random_crop(
    t: FeatureTensor, crop_len: int, rng: np.random.Generator
) -> FeatureTensor:
    """Contiguous random time window; frequency and channels untouched."""
    total = t.shape[0]
    if crop_len > total:
        raise DataError(f"crop_len {crop_len} exceeds {total} frames")
    offset = int(rng.integers(0, total - crop_len + 1))
    return FeatureTensor(t.data[offset : offset + crop_len])


def channel_confusion(t: FeatureTensor, rng: np.random.Generator) -> FeatureTensor:
    """Swap the left and right 3-channel feature groups with probability 1/2."""
    if t.shape[2] != 6:
        raise DataError("channel confusion needs a 6-channel (stereo) tensor")
    if rng.random() < 0.5:
        return FeatureTensor(t.data[:, :, [3, 4, 5, 0, 1, 2]])
    return FeatureTensor(t.data.copy())


def spec_augment(
    t: FeatureTensor,
    time_frac: float,
    freq_frac: float,
    rng: np.random.Generator,
) -> FeatureTensor:
    """Zero one time stripe and one frequency stripe per feature map.

    Stripe widths are round-half-up fractions of the respective dimension;
    placement is uniform; nothing outside the two stripes changes.
    """
    frames, bins_, channels = t.shape
    tw = _round_half_up(time_frac * frames)
    fw = _round_half_up(freq_frac * bins_)
    if tw > frames or fw > bins_:
        raise DataError("mask wider than the masked dimension")
    out = t.data.copy()
    for c in range(channels):
        t0 = int(rng.integers(0, frames - tw + 1))
        f0 = int(rng.integers(0, bins_ - fw + 1))
        out[t0 : t0 + tw, :, c] = 0.0
        out[:, f0 : f0 + fw, c] = 0.0
    return FeatureTensor(out)


# ---------------------------------------------------------------------------
# reverberation + dynamic range compression

_DECAY_60DB = math.log(1e3)  # amplitude decays by 60 dB over RT60: exp(-ln(1000))


def synth_rir(rt60: float, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
    """Exponentially decaying white-noise impulse response, unit energy."""
    n = max(int(round(rt60 * sample_rate)), 8)
    t = np.arange(n) / sample_rate
    rir = rng.standard_normal(n) * np.exp(-_DECAY_60DB * t / rt60)
    return rir / np.linalg.norm(rir)


def _fft_convolve(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The first len(x) samples of the convolution of x and kernel."""
    n = len(x) + len(kernel) - 1
    size = 1 << (n - 1).bit_length()
    spec = np.fft.rfft(x, size)
    spec *= np.fft.rfft(kernel, size)
    return np.fft.irfft(spec, size)[: len(x)]


def _smoothing_alpha(time_ms: float, sample_rate: int) -> float:
    if time_ms <= 0:
        return 1.0
    return 1.0 - math.exp(-1.0 / (sample_rate * time_ms / 1000.0))


def dynamic_range_compress(
    samples: np.ndarray, sample_rate: int, drc: CompressorConfig
) -> np.ndarray:
    """Feed-forward compressor with attack/release smoothing on a dB envelope,
    for one channel of (n,) samples. The level, its envelope, the gain and
    the output are computed in turn in one new float64 buffer."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise DataError(f"the compressor takes one channel of (n,) samples, got shape {x.shape}")
    attack = _smoothing_alpha(drc.attack_ms, sample_rate)
    release = _smoothing_alpha(drc.release_ms, sample_rate)
    slope = 1.0 if math.isinf(drc.ratio) else 1.0 - 1.0 / drc.ratio
    db = np.abs(x)  # the level: 20 log10(|x| + 1e-12)
    db += 1e-12
    np.log10(db, out=db)
    db *= 20.0
    # Python floats read from and appended to a flat float64 buffer: the
    # same sums, with no numpy scalar or float object kept per sample
    env, envs = float(db[0]), array.array("d")
    for lvl in memoryview(db):
        env += (attack if lvl > env else release) * (lvl - env)
        envs.append(env)
    db[:] = envs  # the envelope
    db -= drc.threshold_db
    np.maximum(db, 0.0, out=db)  # the envelope's excess over the threshold
    db *= -slope  # the gain in dB
    db += drc.makeup_db
    db /= 20.0
    np.power(10.0, db, out=db)  # the linear gain
    db *= x
    return db


def _per_channel(clip: AudioClip, fn) -> AudioClip:
    """The clip whose channel c is fn(clip.channel(c)). Each channel's
    result is written into its column before the next one is computed."""
    out = np.empty(clip.samples.shape)
    for c in range(clip.channels):
        out[:, c] = fn(clip.channel(c))
    return AudioClip(out, clip.sample_rate)


def apply_reverb_drc(clip: AudioClip, rir: np.ndarray, drc: CompressorConfig) -> AudioClip:
    """Convolve with an impulse response, compress, re-peak to the input.

    One channel at a time: a channel's convolution is compressed into its
    column of the output before the next channel is convolved.
    """
    orig_peak = float(np.max(np.abs(clip.samples)))
    out = _per_channel(
        clip, lambda x: dynamic_range_compress(_fft_convolve(x, rir), clip.sample_rate, drc)
    )
    peak = float(np.max(np.abs(out.samples)))
    if peak > 0 and orig_peak > 0:
        out.samples *= orig_peak / peak
    return out


# ---------------------------------------------------------------------------
# waveform resampling transforms


def _resample_linear(x: np.ndarray, step: float, out_len: int) -> np.ndarray:
    """Read x at positions i*step, linearly interpolated."""
    pos = np.arange(out_len) * step
    return np.interp(pos, np.arange(len(x)), x)


def pitch_shift_by(clip: AudioClip, semitones: float) -> AudioClip:
    """Shift pitch by the given number of semitones; length preserved.

    Resample by 2^(s/12), then phase-vocoder stretch back to the original
    duration.
    """
    if semitones == 0.0:
        return clip
    factor, n = 2.0 ** (semitones / 12.0), clip.n_samples
    m = max(int(round(n / factor)), 2)  # the resampled length
    return _per_channel(clip, lambda x: _stretch_to_length(_resample_linear(x, factor, m), n))


def _stretch_to_length(x: np.ndarray, out_len: int) -> np.ndarray:
    """Phase-vocoder time stretch to an exact number of samples.

    Analysis, synthesis and the inverse STFT pass BLOCK_FRAMES frames at a
    time from one to the next, so no whole-clip spectrum is held.
    """
    win = 2048 if len(x) >= 4096 else 512
    cfg = SpectroConfig(n_fft=win, win_length=win, hop=win // 4)
    n_in, n_out = frame_count(len(x), cfg.hop), frame_count(out_len, cfg.hop)
    return istft(_vocoded(stft_complex(x, cfg), n_in, n_out, cfg), cfg, out_len)


def _vocoded(
    spec: Iterator[np.ndarray], n_in: int, n_out: int, cfg: SpectroConfig
) -> Iterator[np.ndarray]:
    """Phase-vocoder output spectrum of n_out frames, as blocks of up to
    BLOCK_FRAMES rows, read from the blocks of an n_in-frame spectrum.

    Output frame 0 is input frame 0; frame j > 0 interpolates input frames
    i and i + 1 around j * rate. Input rows are read one output block at a
    time, and a refill keeps only the rows from the block's first i on.
    """
    rate = (n_in - 1) / max(n_out - 1, 1)
    rows, base = next(spec), 0  # rows holds input frames base, base + 1, ...
    omega = 2.0 * np.pi * cfg.hop * np.arange(rows.shape[1]) / cfg.n_fft
    phase = np.angle(rows[0])
    yield rows[:1]
    for lo in range(1, n_out, BLOCK_FRAMES):
        pos = np.arange(lo, min(lo + BLOCK_FRAMES, n_out)) * rate
        i = np.minimum(pos.astype(np.int64), n_in - 2)
        first, unread = i[0], i[-1] + 2 - base - len(rows)
        if unread > 0:  # every spectrum block but the last has BLOCK_FRAMES rows
            more = (next(spec) for _ in range(-(-unread // BLOCK_FRAMES)))
            rows, base = np.concatenate([rows[first - base :], *more]), first
        span = rows[first - base : i[-1] + 2 - base]
        frac, i = (pos - i)[:, None], i - first
        # the span's magnitudes and phases are replaced by the block's, so
        # only block-sized arrays are held while the block is passed on
        mag = np.abs(span)
        mag = (1 - frac) * mag[i] + frac * mag[i + 1]
        dphi = np.angle(span)
        dphi = dphi[i + 1] - dphi[i] - omega
        dphi -= 2.0 * np.pi * np.round(dphi / (2.0 * np.pi))
        for d in dphi:  # the running phase, summed frame by frame in order
            d[:] = phase = phase + omega + d
        yield mag * np.exp(1j * dphi)


def speed_change_by(clip: AudioClip, ratio: float) -> AudioClip:
    """Play the clip ratio times as fast; the length is kept, so a speed-up
    ends in zeros and a slow-down is cut off.

    Only the kept samples are resampled. A ratio of 1 or less keeps all n,
    and n / ratio is not computed, as it may overflow for a tiny ratio.
    """
    n = clip.n_samples
    keep = n if ratio <= 1 else min(n, int(round(n / ratio)))
    return _per_channel(clip, lambda x: np.pad(_resample_linear(x, ratio, keep), (0, n - keep)))


def add_noise(
    clip: AudioClip, noise_std: float, rng: np.random.Generator
) -> AudioClip:
    """Add i.i.d. Gaussian noise of the given standard deviation."""
    if noise_std < 0:
        raise DataError("noise_std must be non-negative")
    if noise_std == 0:
        return clip
    noise = rng.normal(0.0, noise_std, size=clip.samples.shape)
    return AudioClip(clip.samples + noise, clip.sample_rate)
