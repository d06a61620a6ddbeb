"""On-disk formats for features and scaling statistics.

Feature container: magic "ASCF", format version u32, dims (T, F, C) as u32
each, a 4-byte dtype tag, then row-major little-endian data. Round trips
are bit-exact.

Scale stats: text file, one "channel min max" line per channel, floats
written with repr so they parse back to the identical double.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError, read_text
from .features import FeatureTensor, ScaleStats

FEATURE_MAGIC = b"ASCF"
FEATURE_VERSION = 1
_DTYPE_TAGS = {b"f32 ": np.dtype("<f4")}


def write_features(path: str | Path, tensor: FeatureTensor) -> None:
    t, f, c = tensor.shape
    header = FEATURE_MAGIC + np.array([FEATURE_VERSION, t, f, c], dtype="<u4").tobytes()
    body = tensor.data.astype("<f4").tobytes(order="C")
    Path(path).write_bytes(header + b"f32 " + body)


def read_features(path: str | Path) -> FeatureTensor:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read feature file {path}: {exc}") from exc
    if len(raw) < 24 or raw[:4] != FEATURE_MAGIC:
        raise DataError(f"{path}: not a feature file")
    version, t, f, c = np.frombuffer(raw[4:20], dtype="<u4")
    if version != FEATURE_VERSION:
        raise DataError(f"{path}: unsupported feature version {version}")
    dtype = _DTYPE_TAGS.get(raw[20:24])
    if dtype is None:
        raise DataError(f"{path}: unknown dtype tag {raw[20:24]!r}")
    body = memoryview(raw)[24:]  # a view: the payload is not copied
    expected = int(t) * int(f) * int(c) * dtype.itemsize
    if len(body) != expected:
        raise DataError(f"{path}: payload is {len(body)} bytes, expected {expected}")
    data = np.frombuffer(body, dtype=dtype).reshape(int(t), int(f), int(c))
    return FeatureTensor(data)


def write_scale_stats(path: str | Path, stats: ScaleStats) -> None:
    lines = [
        f"{i} {float(lo)!r} {float(hi)!r}"
        for i, (lo, hi) in enumerate(zip(stats.mins, stats.maxs))
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_scale_stats(path: str | Path) -> ScaleStats:
    mins: list[float] = []
    maxs: list[float] = []
    for ln, line in enumerate(read_text(path, DataError, "scale stats").splitlines()):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise DataError(f"{path}:{ln + 1}: expected 'channel min max'")
        try:
            idx, lo, hi = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError:
            raise DataError(f"{path}:{ln + 1}: non-numeric field in {line!r}") from None
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DataError(f"{path}:{ln + 1}: non-finite bound in {line!r}")
        if idx != len(mins):
            raise DataError(f"{path}:{ln + 1}: channel indices must be sequential")
        mins.append(lo)
        maxs.append(hi)
    if not mins:
        raise DataError(f"{path}: empty scale stats file")
    return ScaleStats(np.array(mins), np.array(maxs))
