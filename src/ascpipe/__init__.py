"""Acoustic scene classification pipeline.

Log-mel feature extraction, waveform and spectrogram augmentation, a
from-scratch CNN engine with a small architecture zoo, two-stage score
fusion and ensembling, post-training int8 quantization, and per-device
evaluation, all behind one batch CLI.
"""

__version__ = "0.1.0"
