"""Log-mel feature extraction.

Pipeline per clip: STFT magnitude -> HTK mel filterbank on the power
spectrogram -> natural log -> temporal regression deltas -> stacked
(time, mel, channel) tensor -> [0, 1] scaling with corpus statistics.

Frame count law: a clip of L samples at hop h yields floor(L/h) + 1 frames
(centered frames, reflection padding of n_fft/2 on both ends). Each delta
pass trims 2 frames per side, so the stacked tensor is 8 frames shorter
than the spectrogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .audio import AudioClip
from .errors import DataError

# regression delta with half-width 2: (x[t+1]-x[t-1] + 2*(x[t+2]-x[t-2])) / 10
_DELTA_HALF_WIDTH = 2
_DELTA_NORM = 10.0
DELTA_TRIM = 2 * _DELTA_HALF_WIDTH  # frames lost per application

# STFT frames transformed at once: rfft and irfft give each row the same
# bytes whatever the block, so a block bounds the spectrum held in memory
# and changes no result
BLOCK_FRAMES = 64

# 8 times the default n_fft; it bounds what a frame and the mel filterbank
# allocate, and n_mels is bounded by the n_fft // 2 + 1 bins it gives
MAX_N_FFT = 16384


@dataclass(frozen=True)
class SpectroConfig:
    n_fft: int = 2048
    win_length: int = 2048
    hop: int = 1024
    n_mels: int = 128
    fmin: float = 0.0
    fmax: float | None = None  # None means Nyquist
    log_floor: float = 1e-10
    downmix: bool = False  # force mono before analysis

    def __post_init__(self):
        if not 1 <= self.n_fft <= MAX_N_FFT:
            raise DataError(f"n_fft must lie within [1, {MAX_N_FFT}]")
        if self.win_length < 1:
            raise DataError("win_length must be positive")
        if self.win_length > self.n_fft:
            raise DataError("win_length must not exceed n_fft")
        if self.hop <= 0:
            raise DataError("hop must be positive")
        # a frame every hop samples holds n_fft // 2 + 1 <= 8 * hop + 1 float64
        # magnitudes, so a spectrum takes at most 72 bytes per input sample
        if self.n_fft > 16 * self.hop:
            raise DataError(f"hop must be at least n_fft / 16 = {self.n_fft / 16:g}")
        bins = self.n_fft // 2 + 1
        if not 1 <= self.n_mels <= bins:
            raise DataError(f"n_mels must lie within [1, n_fft // 2 + 1 = {bins}]")
        if self.log_floor <= 0:
            raise DataError("log_floor must be positive")
        if not self.fmin >= 0:
            raise DataError("fmin must be >= 0")
        if self.fmax is not None and not self.fmin < self.fmax:
            raise DataError("fmin must be below fmax")

    def resolve_fmax(self, sample_rate: int) -> float:
        return sample_rate / 2.0 if self.fmax is None else float(self.fmax)


@dataclass
class FeatureTensor:
    """(time, mel, channel) float32 stack of statics, deltas, delta-deltas."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 3:
            raise DataError(f"feature tensor must be 3-D, got {self.data.ndim}-D")
        if not np.all(np.isfinite(self.data)):
            raise DataError("non-finite values in feature tensor")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]


@dataclass
class ScaleStats:
    """Per-channel min/max over a training corpus, for [0, 1] scaling."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.maxs = np.asarray(self.maxs, dtype=np.float64)
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise DataError("scale stats must be matching 1-D min/max arrays")
        if not (np.isfinite(self.mins).all() and np.isfinite(self.maxs).all()):
            raise DataError("non-finite scale stats")
        if not (self.maxs > self.mins).all():
            raise DataError("degenerate scale stats: max <= min for some channel")


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window (sums to a constant at 50% overlap)."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_count(n_samples: int, hop: int) -> int:
    return n_samples // hop + 1


def _framed(samples: np.ndarray, cfg: SpectroConfig) -> np.ndarray:
    """Centered frames of one channel, shape (T, n_fft)."""
    n = samples.shape[0]
    pad = cfg.n_fft // 2
    if n <= pad:
        raise DataError(
            f"clip of {n} samples too short for reflection padding of {pad}"
        )
    # frame t covers samples t*hop - pad up to t*hop - pad + n_fft, so the
    # last one, at t = n // hop, reads up to n_fft - pad samples past the end
    padded = np.pad(samples, (pad, cfg.n_fft - pad), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, cfg.n_fft)  # a view, no copy
    return windows[:: cfg.hop][: frame_count(n, cfg.hop)]


def _window(cfg: SpectroConfig) -> np.ndarray:
    win = hann_window(cfg.win_length)
    if cfg.win_length < cfg.n_fft:
        lpad = (cfg.n_fft - cfg.win_length) // 2
        win = np.pad(win, (lpad, cfg.n_fft - cfg.win_length - lpad))
    return win


def stft_complex(samples: np.ndarray, cfg: SpectroConfig) -> Iterator[np.ndarray]:
    """Complex STFT of one channel: its T frames in order, as blocks of up
    to BLOCK_FRAMES rows of n_fft//2 + 1 bins.

    The clip is padded and checked at the call; each block is transformed
    when it is read, so the whole spectrum never exists at once.
    """
    frames = _framed(np.asarray(samples, dtype=np.float64), cfg)
    win = _window(cfg)
    return (
        np.fft.rfft(frames[lo : lo + BLOCK_FRAMES] * win, n=cfg.n_fft, axis=1)
        for lo in range(0, frames.shape[0], BLOCK_FRAMES)
    )


def istft(spec: Iterable[np.ndarray], cfg: SpectroConfig, n_samples: int) -> np.ndarray:
    """Least-squares inverse of stft_complex, trimmed to n_samples.

    spec holds the frame_count(n_samples, hop) frames of a clip, as blocks
    of rows in frame order; each block's inverse frames exist only while
    they are overlap-added.
    """
    win = _window(cfg)
    wsq = win * win
    t = frame_count(n_samples, cfg.hop)
    total = cfg.hop * (t - 1) + cfg.n_fft
    out = np.zeros(total)
    norm = np.zeros(total)
    i = 0
    for block in spec:
        if i + block.shape[0] > t:
            raise DataError(f"more than the {t} frames of {n_samples} samples at hop {cfg.hop}")
        for frame in np.fft.irfft(block, n=cfg.n_fft, axis=1) * win:
            lo = i * cfg.hop
            out[lo : lo + cfg.n_fft] += frame
            norm[lo : lo + cfg.n_fft] += wsq
            i += 1
    if i != t:
        raise DataError(f"{i} frames given, {n_samples} samples at hop {cfg.hop} need {t}")
    np.divide(out, np.maximum(norm, 1e-12), out=out, where=norm > 1e-12)
    pad = cfg.n_fft // 2
    return out[pad : pad + n_samples]


def stft_magnitude(clip: AudioClip, cfg: SpectroConfig) -> np.ndarray:
    """Magnitude spectrogram per channel, shape (channels, T, n_fft//2 + 1)."""
    if cfg.downmix:
        clip = clip.downmixed()
    mags = np.empty((clip.channels, frame_count(clip.n_samples, cfg.hop), cfg.n_fft // 2 + 1))
    for c in range(clip.channels):
        lo = 0
        for block in stft_complex(clip.channel(c), cfg):
            np.abs(block, out=mags[c, lo : lo + block.shape[0]])
            lo += block.shape[0]
    return mags


def hz_to_mel(f):
    """HTK mel scale: 2595 * log10(1 + f / 700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: SpectroConfig, sample_rate: int) -> np.ndarray:
    """Triangular HTK-mel filterbank, shape (n_mels, n_fft//2 + 1).

    Corner frequencies are equally spaced on the mel scale between fmin and
    fmax; each filter is a peak-1 triangle sampled at the FFT bin centers.
    A filter with no positive sample means the mel resolution exceeds the
    FFT resolution, which is rejected rather than silently accepted, and
    before the bank is built: a filter is positive exactly at the bins
    strictly between its outer corners.
    """
    fmax = cfg.resolve_fmax(sample_rate)
    if fmax > sample_rate / 2.0 + 1e-9:
        raise DataError(f"fmax {fmax} above Nyquist {sample_rate / 2.0}")
    if cfg.fmin < 0 or cfg.fmin >= fmax:
        raise DataError("need 0 <= fmin < fmax")

    n_bins = cfg.n_fft // 2 + 1
    bin_hz = np.arange(n_bins) * sample_rate / cfg.n_fft
    corners = mel_to_hz(np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(fmax), cfg.n_mels + 2))
    inside = np.searchsorted(bin_hz, corners[2:]) - np.searchsorted(bin_hz, corners[:-2], "right")
    empty = np.flatnonzero(inside <= 0)
    if empty.size:
        raise DataError(
            f"{empty.size} mel filters have no FFT bin (first: {empty[0]}); "
            "reduce n_mels or increase n_fft"
        )

    bank = np.zeros((cfg.n_mels, n_bins))
    for m in range(cfg.n_mels):
        lo, mid, hi = corners[m], corners[m + 1], corners[m + 2]
        rising = (bin_hz - lo) / max(mid - lo, 1e-12)
        falling = (hi - bin_hz) / max(hi - mid, 1e-12)
        bank[m] = np.maximum(0.0, np.minimum(rising, falling))
    return bank


def log_mel(mag: np.ndarray, bank: np.ndarray, log_floor: float = 1e-10) -> np.ndarray:
    """Natural-log mel power spectrogram: log(bank . mag^2 + floor).

    mag is (T, n_bins) for one channel; output is (T, n_mels).
    """
    if mag.shape[-1] != bank.shape[1]:
        raise DataError(
            f"magnitude bins {mag.shape[-1]} != filterbank bins {bank.shape[1]}"
        )
    return np.log((np.asarray(mag, dtype=np.float64) ** 2) @ bank.T + log_floor)


def deltas(x: np.ndarray) -> np.ndarray:
    """Temporal regression derivative without padding; (T, F) -> (T-4, F).

    delta[t] = (x[t+1] - x[t-1] + 2*(x[t+2] - x[t-2])) / 10, evaluated only
    where all five taps exist.
    """
    t = x.shape[0]
    if t <= DELTA_TRIM:
        raise DataError(f"need more than {DELTA_TRIM} frames for deltas, got {t}")
    return (x[3:-1] - x[1:-3] + 2.0 * (x[4:] - x[:-4])) / _DELTA_NORM


def assemble_tensor(statics: Sequence[np.ndarray]) -> FeatureTensor:
    """Stack static / delta / delta-delta per audio channel into a tensor.

    Each static is (T, F); all three derivative orders are aligned on the
    delta-delta's valid range, so the output time length is T - 8. Mono
    gives 3 channels, stereo 6.
    """
    blocks = []
    for static in statics:
        d = deltas(static)
        dd = deltas(d)
        trim = DELTA_TRIM  # per-side loss after two applications is 4 total
        blocks.extend([static[trim:-trim], d[_DELTA_HALF_WIDTH:-_DELTA_HALF_WIDTH], dd])
    return FeatureTensor(np.stack(blocks, axis=-1))


def extract_clip_features(clip: AudioClip, cfg: SpectroConfig) -> FeatureTensor:
    """Full per-clip pipeline: waveform -> unscaled (T-8, n_mels, 3C) tensor."""
    bank = mel_filterbank(cfg, clip.sample_rate)
    mags = stft_magnitude(clip, cfg)
    statics = [log_mel(mags[c], bank, cfg.log_floor) for c in range(mags.shape[0])]
    return assemble_tensor(statics)


def fit_scale01(corpus: Iterable[FeatureTensor]) -> ScaleStats:
    """Per-channel min/max over a corpus of feature tensors.

    Min/max are associative and commutative, so any merge order over the
    stream gives the same stats.
    """
    mins = None
    maxs = None
    for t in corpus:
        lo = t.data.min(axis=(0, 1)).astype(np.float64)
        hi = t.data.max(axis=(0, 1)).astype(np.float64)
        if mins is None:
            mins, maxs = lo, hi
        else:
            if lo.shape != mins.shape:
                raise DataError("channel count mismatch across corpus")
            mins = np.minimum(mins, lo)
            maxs = np.maximum(maxs, hi)
    if mins is None:
        raise DataError("empty corpus")
    return ScaleStats(mins, maxs)


def apply_scale01(t: FeatureTensor, stats: ScaleStats) -> FeatureTensor:
    """Map x -> (x - min) / (max - min), clamped to [0, 1] per channel."""
    if t.shape[2] != stats.mins.shape[0]:
        raise DataError(
            f"tensor has {t.shape[2]} channels, stats have {stats.mins.shape[0]}"
        )
    span = (stats.maxs - stats.mins).astype(np.float32)
    scaled = (t.data - stats.mins.astype(np.float32)) / span
    return FeatureTensor(np.clip(scaled, 0.0, 1.0))
