"""Acoustic scene classification pipeline.

Log-mel feature extraction, waveform and spectrogram augmentation, a
from-scratch CNN engine with a small architecture zoo, two-stage score
fusion and ensembling, post-training int8 quantization, and per-device
evaluation, all behind one batch CLI.
"""

from .audio import AudioClip, load_wav, save_wav
from .augment import AugmentConfig, CompressorConfig, LabeledBatch
from .config import RunConfig, config_hash, load_config
from .errors import (
    AscError,
    ConfigError,
    DataError,
    GraphError,
    MalformedWavError,
    NumericError,
    UnsupportedWavError,
)
from .evaluation import (
    DEVICE_GROUPS,
    EvalReport,
    evaluate,
    render_report,
    report_from_json,
    report_to_json,
)
from .featio import (
    read_features,
    read_scale_stats,
    write_features,
    write_scale_stats,
)
from .features import (
    FeatureTensor,
    ScaleStats,
    SpectroConfig,
    apply_scale01,
    extract_clip_features,
    fit_scale01,
)
from .fusion import (
    SCENE_LABELS,
    SUPERCLASS_LABELS,
    ClassHierarchy,
    average_ensemble,
    two_stage_fuse,
    two_stage_fuse_batch,
)
from .manifest import DatasetManifest, ManifestRow, read_manifest, write_manifest
from .nn import fold_batchnorm
from .quant import (
    QuantizedModel,
    QuantizedTensor,
    QuantSizeReport,
    load_quantized,
    quantize_model,
    quantize_tensor,
    quantized_forward,
    save_quantized,
    weight_blob_ratio,
)
from .zoo import ARCH_NAMES, ArchConfig, build

__version__ = "0.1.0"

__all__ = [
    "ARCH_NAMES",
    "ArchConfig",
    "AscError",
    "AudioClip",
    "AugmentConfig",
    "ClassHierarchy",
    "CompressorConfig",
    "ConfigError",
    "DEVICE_GROUPS",
    "DataError",
    "DatasetManifest",
    "EvalReport",
    "FeatureTensor",
    "GraphError",
    "LabeledBatch",
    "MalformedWavError",
    "ManifestRow",
    "NumericError",
    "QuantSizeReport",
    "QuantizedModel",
    "QuantizedTensor",
    "RunConfig",
    "SCENE_LABELS",
    "SUPERCLASS_LABELS",
    "ScaleStats",
    "SpectroConfig",
    "UnsupportedWavError",
    "average_ensemble",
    "apply_scale01",
    "build",
    "config_hash",
    "evaluate",
    "extract_clip_features",
    "fit_scale01",
    "fold_batchnorm",
    "load_quantized",
    "load_wav",
    "quantize_model",
    "quantize_tensor",
    "quantized_forward",
    "read_features",
    "read_manifest",
    "read_scale_stats",
    "render_report",
    "report_from_json",
    "report_to_json",
    "save_quantized",
    "save_wav",
    "two_stage_fuse",
    "two_stage_fuse_batch",
    "weight_blob_ratio",
    "write_features",
    "write_manifest",
    "write_scale_stats",
    "__version__",
]
