"""RIFF WAV reading and writing.

Only the encodings the pipeline actually consumes are supported: PCM16 and
IEEE float32, mono or stereo. Samples are normalized to [-1, 1] float on
load. Anything else raises a distinct error so callers can tell "broken
file" from "valid file we do not handle".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, MalformedWavError, UnsupportedWavError

_FORMAT_PCM = 0x0001
_FORMAT_IEEE_FLOAT = 0x0003


@dataclass
class AudioClip:
    """Decoded audio: samples per channel in [-1, 1].

    samples has shape (n_samples, channels); channels is 1 or 2. A 1-D
    array is taken as one channel.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim == 1:
            self.samples = self.samples[:, None]
        if self.samples.ndim != 2:
            raise DataError("samples must be a 1-D or (n, channels) array")
        if self.samples.shape[1] not in (1, 2):
            raise DataError(f"unsupported channel count {self.samples.shape[1]}")
        if self.samples.shape[0] == 0:
            raise DataError("empty audio clip")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("non-finite samples in audio clip")
        if int(self.sample_rate) <= 0:
            raise DataError(f"invalid sample rate {self.sample_rate}")
        self.sample_rate = int(self.sample_rate)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def channels(self) -> int:
        return self.samples.shape[1]

    def channel(self, idx: int) -> np.ndarray:
        return self.samples[:, idx]

    def downmixed(self) -> "AudioClip":
        """Average channels into mono. Mono clips are returned unchanged."""
        if self.channels == 1:
            return self
        mono = self.samples.mean(axis=1, keepdims=True)
        return AudioClip(mono, self.sample_rate)


def load_wav(path: str | Path) -> AudioClip:
    """Read a RIFF WAV file (PCM16 or IEEE float32, 1-2 channels).

    Raises FileNotFoundError, MalformedWavError, or UnsupportedWavError.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such audio file: {path}")
    raw = path.read_bytes()

    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedWavError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise MalformedWavError(f"{path}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise MalformedWavError(f"{path}: data chunk truncated")
            data = body
        # chunks are word-aligned
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None or data is None:
        raise MalformedWavError(f"{path}: missing fmt or data chunk")

    audio_format, channels, sample_rate, _byte_rate, block_align, bits = fmt
    if channels not in (1, 2):
        raise UnsupportedWavError(f"{path}: {channels} channels not supported")

    if audio_format == _FORMAT_PCM and bits == 16:
        dtype, scale = "<i2", 32768.0
    elif audio_format == _FORMAT_IEEE_FLOAT and bits == 32:
        dtype, scale = "<f4", 1.0
    else:
        raise UnsupportedWavError(
            f"{path}: format tag {audio_format} at {bits} bits not supported"
        )

    # block_align may be 0 or wrong; np.frombuffer needs whole frames
    if len(data) % (channels * bits // 8) or (block_align and len(data) % block_align):
        raise MalformedWavError(f"{path}: data size not a multiple of frame size")
    if not data:
        raise MalformedWavError(f"{path}: empty data chunk")

    frames = np.frombuffer(data, dtype=dtype)
    samples = frames.reshape(-1, channels).astype(np.float64) / scale
    if not np.all(np.isfinite(samples)):
        raise MalformedWavError(f"{path}: non-finite float samples")
    return AudioClip(np.clip(samples, -1.0, 1.0), sample_rate)


def save_wav(path: str | Path, clip: AudioClip, encoding: str = "pcm16") -> None:
    """Write a clip as PCM16 or float32 WAV."""
    if encoding == "pcm16":
        fmt_tag, bits = _FORMAT_PCM, 16
        scaled = np.round(clip.samples * 32768.0)
        frames = np.clip(scaled, -32768, 32767).astype("<i2")
    elif encoding == "float32":
        fmt_tag, bits = _FORMAT_IEEE_FLOAT, 32
        frames = clip.samples.astype("<f4")
    else:
        raise DataError(f"unknown wav encoding {encoding!r}")

    payload = frames.tobytes()
    channels = clip.channels
    block_align = channels * bits // 8
    byte_rate = clip.sample_rate * block_align
    fmt_body = struct.pack(
        "<HHIIHH", fmt_tag, channels, clip.sample_rate, byte_rate, block_align, bits
    )
    out = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 4 + 8 + len(fmt_body) + 8 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<I", len(fmt_body)),
            fmt_body,
            b"data",
            struct.pack("<I", len(payload)),
            payload,
        ]
    )
    Path(path).write_bytes(out)
