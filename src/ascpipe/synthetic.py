"""Synthetic labeled corpora for desk-scale training and self-checks.

Real acoustic-scene corpora are far too large to ship with the package,
so end-to-end checks run on generated spectrogram-like tensors. Each
class lights up a class-specific number of fixed frequency bands at a
class-specific level, which survives global average pooling: classes
differ in total energy and band count, not merely in band position.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def spectro_corpus(
    n_items: int,
    n_classes: int = 3,
    shape: tuple[int, int, int] = (32, 32, 1),
    seed: int = 0,
    noise: float = 0.05,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``n_items`` labeled feature tensors of the given shape.

    Labels cycle 0..n_classes-1 so every class is (near) equally
    represented. Values are clipped to [0, 1] like scaled features.
    Deterministic for a fixed (n_items, n_classes, shape, seed, noise).
    """
    if n_items < 1:
        raise ConfigError(f"n_items must be >= 1, got {n_items}")
    if n_classes < 2:
        raise ConfigError(f"n_classes must be >= 2, got {n_classes}")
    t, f, c = shape
    band_width = f // (2 * n_classes)
    if band_width < 1:
        raise ConfigError(
            f"frequency dim {f} too small for {n_classes} class bands"
        )
    if noise < 0:
        raise ConfigError(f"noise must be >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    labels = (np.arange(n_items) % n_classes).astype(np.int64)
    xs = np.empty((n_items, t, f, c), dtype=np.float32)
    for i, cls in enumerate(labels):
        item = rng.normal(0.12, noise, (t, f, c))
        level = 0.45 + 0.18 * cls
        for band in range(cls + 1):
            lo = 2 * band * band_width
            item[:, lo : lo + band_width, :] += level
        xs[i] = np.clip(item, 0.0, 1.0)
    return xs, labels

