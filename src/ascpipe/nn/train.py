"""Minibatch SGD training loop with online augmentation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..augment import (
    LabeledBatch,
    channel_confusion,
    mixup_batch,
    random_crop,
    spec_augment,
)
from ..errors import ConfigError, DataError
from ..features import FeatureTensor
from .engine import backward, per_item
from .graph import ModelGraph, fold_batchnorm
from .optim import SgdMomentum
from .schedule import ScheduleConfig, cosine_restart_lr


@dataclass(frozen=True)
class OnlineAugment:
    """Batch-level augmentations applied during training. Zeros disable."""

    crop_len: int = 0
    mixup_alpha: float = 0.0
    time_mask_frac: float = 0.0
    freq_mask_frac: float = 0.0
    swap_stereo_blocks: bool = False

    def __post_init__(self):
        if not self.crop_len >= 0:
            raise ConfigError("crop_len must be >= 0")
        if not self.mixup_alpha >= 0:
            raise ConfigError("mixup_alpha must be >= 0")
        if not (0 <= self.time_mask_frac <= 1 and 0 <= self.freq_mask_frac <= 1):
            raise ConfigError("time_mask_frac and freq_mask_frac must lie in [0, 1]")


def _augment_batch(xb, yb, online: OnlineAugment, rng) -> LabeledBatch:
    if online.crop_len:
        xb = np.stack(
            [random_crop(FeatureTensor(x), online.crop_len, rng).data for x in xb]
        )
    if online.swap_stereo_blocks:
        xb = np.stack([channel_confusion(FeatureTensor(x), rng).data for x in xb])
    if online.time_mask_frac or online.freq_mask_frac:
        xb = np.stack(
            [
                spec_augment(
                    FeatureTensor(x), online.time_mask_frac, online.freq_mask_frac, rng
                ).data
                for x in xb
            ]
        )
    batch = LabeledBatch(xb, yb)
    if online.mixup_alpha and xb.shape[0] >= 2:
        batch = mixup_batch(batch, online.mixup_alpha, rng)
    return batch


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Integer class labels to float32 one-hot rows."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise DataError("labels must be a 1-D integer array")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError(f"label out of range for {n_classes} classes")
    out = np.zeros((labels.size, n_classes), dtype=np.float32)
    out[np.arange(labels.size), labels] = 1.0
    return out


def train(
    graph: ModelGraph,
    tensors: np.ndarray,
    labels: np.ndarray,
    schedule: ScheduleConfig,
    epochs: int,
    seed: int = 0,
    batch_size: int = 32,
    online: OnlineAugment = OnlineAugment(),
) -> list[float]:
    """Train ``graph`` in place; returns the mean loss of each epoch."""
    tensors = np.asarray(tensors, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.float32)
    if tensors.ndim != 4 or len(tensors) != len(labels):
        raise DataError("training data must be (N,T,F,C) tensors with (N,K) labels")
    if len(tensors) == 0:
        raise DataError("empty training set")
    if epochs < 0 or batch_size < 1:
        raise DataError("epochs must be >= 0 and batch_size >= 1")

    losses = []
    rng = np.random.default_rng(seed)
    opt = SgdMomentum(schedule.momentum)
    step = 0
    for _ in range(epochs):
        order = rng.permutation(len(tensors))
        epoch_losses = []
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            batch = _augment_batch(tensors[idx], labels[idx], online, rng)
            loss, grads = backward(graph, batch.tensors, batch.labels, (seed, step))[:2]
            opt.step(graph, grads, cosine_restart_lr(step, schedule))
            del batch, grads  # not held through the next step's backward
            epoch_losses.append(loss)
            step += 1
        losses.append(float(np.mean(epoch_losses)))
    return losses


def predict(graph: ModelGraph, items) -> np.ndarray:
    """Eval-mode class probabilities, one row per item of ``items`` (an
    (N, T, F, C) array or any iterable of (T, F, C) items), each item
    scored on its own by the batchnorm-folded graph, the one the int8 path
    quantizes. A batchnorm that cannot fold is a DataError."""
    return per_item(fold_batchnorm(graph), items)

