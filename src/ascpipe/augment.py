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

import numpy as np

from .audio import AudioClip
from .errors import DataError
from .features import FeatureTensor, SpectroConfig, istft, stft_complex


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
        lo, hi = self.rt60_range
        if not 0 < lo <= hi:
            raise DataError("rt60_range must be positive and ascending")
        if not self.pitch_semitones >= 0:
            raise DataError("pitch_semitones must be non-negative")
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
    n = len(x) + len(kernel) - 1
    size = 1 << (n - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(kernel, size), size)
    return out[:n]


def _smoothing_alpha(time_ms: float, sample_rate: int) -> float:
    if time_ms <= 0:
        return 1.0
    return 1.0 - math.exp(-1.0 / (sample_rate * time_ms / 1000.0))


def dynamic_range_compress(
    samples: np.ndarray, sample_rate: int, drc: CompressorConfig
) -> np.ndarray:
    """Feed-forward compressor with attack/release smoothing on a dB envelope."""
    x = np.atleast_2d(np.asarray(samples, dtype=np.float64).T).T  # (n, ch)
    level_db = 20.0 * np.log10(np.abs(x.T) + 1e-12)  # (ch, n)
    attack = _smoothing_alpha(drc.attack_ms, sample_rate)
    release = _smoothing_alpha(drc.release_ms, sample_rate)
    slope = 1.0 if math.isinf(drc.ratio) else 1.0 - 1.0 / drc.ratio

    env_db = np.empty_like(level_db)
    for levels, row in zip(level_db, env_db):
        # Python floats read from and appended to a flat float64 buffer: the
        # same sums, with no numpy scalar or float object kept per sample
        env, envs = float(levels[0]), array.array("d")
        for lvl in memoryview(levels):
            env += (attack if lvl > env else release) * (lvl - env)
            envs.append(env)
        row[:] = envs
    # the gain of each envelope sample, taken over the whole envelope at once
    over = env_db - drc.threshold_db
    gain_db = np.where(over > 0, -slope * over, 0.0)
    out = x * 10.0 ** ((gain_db.T + drc.makeup_db) / 20.0)
    return out if np.asarray(samples).ndim == 2 else out[:, 0]


def apply_reverb_drc(
    clip: AudioClip, rir: np.ndarray, drc: CompressorConfig
) -> AudioClip:
    """Convolve with an impulse response, compress, re-peak to the input."""
    orig_peak = float(np.max(np.abs(clip.samples)))
    wet = np.stack(
        [_fft_convolve(clip.channel(c), rir)[: clip.n_samples] for c in range(clip.channels)],
        axis=1,
    )
    compressed = dynamic_range_compress(wet, clip.sample_rate, drc)
    peak = float(np.max(np.abs(compressed)))
    if peak > 0 and orig_peak > 0:
        compressed = compressed * (orig_peak / peak)
    return AudioClip(compressed, clip.sample_rate)


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
    factor = 2.0 ** (semitones / 12.0)
    out = np.empty_like(clip.samples)
    for c in range(clip.channels):
        x = clip.channel(c)
        resampled = _resample_linear(x, factor, max(int(round(len(x) / factor)), 2))
        out[:, c] = _stretch_to_length(resampled, clip.n_samples, clip.sample_rate)
    return AudioClip(out, clip.sample_rate)


def _stretch_to_length(x: np.ndarray, out_len: int, sample_rate: int) -> np.ndarray:
    """Phase-vocoder time stretch to an exact number of samples."""
    win = 2048 if len(x) >= 4096 else 512
    cfg = SpectroConfig(n_fft=win, win_length=win, hop=win // 4)
    spec = stft_complex(x, cfg)
    n_in = spec.shape[0]
    n_out = out_len // cfg.hop + 1
    rate = (n_in - 1) / max(n_out - 1, 1)

    omega = 2.0 * np.pi * cfg.hop * np.arange(spec.shape[1]) / cfg.n_fft
    mags = np.abs(spec)
    phases = np.angle(spec)

    out = np.empty((n_out, spec.shape[1]), dtype=complex)
    phase = phases[0].copy()
    out[0] = spec[0]
    for j in range(1, n_out):
        pos = j * rate
        i = min(int(pos), n_in - 2)
        frac = pos - i
        mag = (1 - frac) * mags[i] + frac * mags[i + 1]
        dphi = phases[i + 1] - phases[i] - omega
        dphi -= 2.0 * np.pi * np.round(dphi / (2.0 * np.pi))
        phase = phase + omega + dphi
        out[j] = mag * np.exp(1j * phase)
    y = istft(out, cfg, out_len)
    return y


def speed_change_by(clip: AudioClip, ratio: float) -> AudioClip:
    n = clip.n_samples
    out_len = int(round(n / ratio))
    out = np.zeros_like(clip.samples)
    for c in range(clip.channels):
        resampled = _resample_linear(clip.channel(c), ratio, out_len)
        keep = min(out_len, n)
        out[:keep, c] = resampled[:keep]
    return AudioClip(out, clip.sample_rate)


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
