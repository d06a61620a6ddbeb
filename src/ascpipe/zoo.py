"""Model zoo: the layer lists of the six CNN architectures.

Each architecture is a function from ArchConfig to its layer list, built
from the shared conv+batchnorm+relu block vocabulary. ``build`` is the
one place a list becomes a validated ModelGraph, named after its arch,
with freshly initialized parameters. Channel progressions are scaled by
a width multiplier so the same topology can train at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .errors import ConfigError
from .nn import LayerSpec, ModelGraph, initialize
from .nn.graph import param_rules

FCNN_CHANNELS = (32, 32, 64, 64, 128, 128, 128, 256, 256)
FCNN_POOLS = {2: (2, 2), 4: (2, 2), 8: (2, 2)}  # block -> maxpool after it
FSFCNN_CHANNELS = (32, 32, 64, 64, 128, 128, 256, 256, 256, 256, 256)
FSFCNN_POOLS = {2: (2, 2), 4: (2, 2), 6: (1, 2), 8: (1, 2)}
RESNET_BASE_FILTERS = 32
MOBNET_STEM = 32
MOBNET_BLOCKS = (  # (out_channels, depthwise stride)
    (32, 1),
    (48, 2),
    (48, 1),
    (64, 2),
    (64, 1),
    (128, 2),
    (128, 1),
    (192, 1),
)
MOBNET_EXPANSION = 6
MOBNET_HEAD = 256
SMALL_FCNN_BASE_WIDTH = 0.7  # keeps the float32 checkpoint under 2.9 MB
DROPOUT_RATE = 0.3
MAX_PARAMS = 2**28  # 1 GiB of float32; fsfcnn_s at width 4 has 1.22e8


@dataclass(frozen=True)
class ArchConfig:
    arch: str
    width_mult: float = 1.0
    n_classes: int = 10
    input_shape: tuple[int, int, int] = (423, 128, 3)

    def __post_init__(self):
        if self.arch not in ARCH_NAMES:
            raise ConfigError(f"unknown architecture {self.arch!r}; pick from {ARCH_NAMES}")
        if not 0 < self.width_mult < math.inf:
            raise ConfigError("width_mult must be positive and finite")
        if self.n_classes < 2:
            raise ConfigError("n_classes must be at least 2")


def _scale(channels: int, width: float) -> int:
    return max(1, int(channels * width + 0.5))


def _spec(kind, name, inputs, **attrs):
    return LayerSpec(kind, name, tuple(inputs) if isinstance(inputs, (list, tuple)) else (inputs,), attrs)


def _conv_block(layers, name, src, filters, stride=(1, 1)):
    """conv(3x3, no bias) + batchnorm + relu; returns the relu layer name."""
    layers.append(_spec("conv2d", f"conv{name}", src, filters=filters, kernel=(3, 3), stride=stride))
    layers.append(_spec("batchnorm", f"bn{name}", f"conv{name}"))
    layers.append(_spec("relu", f"relu{name}", f"bn{name}"))
    return f"relu{name}"


def _head(layers, src, n_classes):
    layers.append(_spec("global_avg_pool", "gap", src))
    layers.append(_spec("dense", "fc", "gap", units=n_classes))
    layers.append(_spec("softmax", "probs", "fc"))
    return layers


def _trunk(layers, prefix, src, width, channels, pools):
    """One conv block per entry of ``channels``, a maxpool of ``pools[i]``
    after block i, and dropout after blocks 5 on."""
    for i, base in enumerate(channels, start=1):
        src = _conv_block(layers, f"{prefix}{i}", src, _scale(base, width))
        if i in pools:
            layers.append(_spec("maxpool", f"pool{prefix}{i}", src, pool=pools[i]))
            src = f"pool{prefix}{i}"
        if i >= 5:
            layers.append(_spec("dropout", f"drop{prefix}{i}", src, rate=DROPOUT_RATE))
            src = f"drop{prefix}{i}"
    return src


def _fcnn(cfg: ArchConfig, channels=FCNN_CHANNELS, pools=FCNN_POOLS, base_width: float = 1.0):
    """The conv-block trunk, an SE gate and the head. FCNN: 9 blocks and
    2x2 pools; FS-FCNN: 11 blocks, and frequency is pooled twice more
    than time."""
    layers = []
    src = _trunk(layers, "", "input", cfg.width_mult * base_width, channels, pools)
    layers.append(_spec("channel_attention", "se", src, reduction=4))
    return _head(layers, "se", cfg.n_classes)


def _fsfcnn_s(cfg: ArchConfig):
    """Two independent trunks on the low and high frequency halves."""
    layers = [
        _spec("freq_split", "band_lo", "input", part=0),
        _spec("freq_split", "band_hi", "input", part=1),
    ]
    lo = _trunk(layers, "lo", "band_lo", cfg.width_mult, FSFCNN_CHANNELS, FSFCNN_POOLS)
    hi = _trunk(layers, "hi", "band_hi", cfg.width_mult, FSFCNN_CHANNELS, FSFCNN_POOLS)
    layers.append(_spec("concat", "merge", (lo, hi), axis="channel"))
    merged = _scale(FSFCNN_CHANNELS[-1], cfg.width_mult)
    src = _conv_block(layers, "12", "merge", merged)
    src = _conv_block(layers, "13", src, merged)
    return _head(layers, src, cfg.n_classes)


def _resnet(cfg: ArchConfig, doubled: bool = False):
    """Entry conv + two per-band stacks of 4 identity-shortcut blocks.

    17 convolutions in total and no layer subsamples time or frequency.
    """
    filters = _scale(RESNET_BASE_FILTERS * (2 if doubled else 1), cfg.width_mult)
    layers = []
    src = _conv_block(layers, "_in", "input", filters)
    layers.append(_spec("freq_split", "band_lo", src, part=0))
    layers.append(_spec("freq_split", "band_hi", src, part=1))
    for prefix, band in (("lo", "band_lo"), ("hi", "band_hi")):
        src = band
        for b in range(1, 5):
            tag = f"{prefix}{b}"
            a = _conv_block(layers, f"{tag}a", src, filters)
            layers.append(_spec("conv2d", f"conv{tag}b", a, filters=filters, kernel=(3, 3)))
            layers.append(_spec("batchnorm", f"bn{tag}b", f"conv{tag}b"))
            layers.append(_spec("residual_add", f"add{tag}", (f"bn{tag}b", src)))
            layers.append(_spec("relu", f"relu{tag}", f"add{tag}"))
            src = f"relu{tag}"
    layers.append(_spec("concat", "merge", ("relulo4", "reluhi4"), axis="freq"))
    return _head(layers, "merge", cfg.n_classes)


def _inverted_residual(layers, name, src, c_in, c_out, stride):
    expanded = c_in * MOBNET_EXPANSION
    layers.append(_spec("conv2d", f"conv{name}x", src, filters=expanded, kernel=(1, 1)))
    layers.append(_spec("batchnorm", f"bn{name}x", f"conv{name}x"))
    layers.append(_spec("relu", f"relu{name}x", f"bn{name}x"))
    layers.append(
        _spec("depthwise_conv2d", f"dw{name}", f"relu{name}x", kernel=(3, 3), stride=(stride, stride))
    )
    layers.append(_spec("batchnorm", f"bn{name}d", f"dw{name}"))
    layers.append(_spec("relu", f"relu{name}d", f"bn{name}d"))
    layers.append(_spec("conv2d", f"conv{name}p", f"relu{name}d", filters=c_out, kernel=(1, 1)))
    layers.append(_spec("batchnorm", f"bn{name}p", f"conv{name}p"))
    if stride == 1 and c_in == c_out:
        layers.append(_spec("residual_add", f"add{name}", (f"bn{name}p", src)))
        return f"add{name}"
    return f"bn{name}p"


def _mobnet(cfg: ArchConfig):
    """Inverted-residual stack: 1x1 expand, depthwise 3x3, 1x1 project."""
    w = cfg.width_mult
    layers = []
    stem = _scale(MOBNET_STEM, w)
    src = _conv_block(layers, "_stem", "input", stem, stride=(2, 2))
    c_in = stem
    for i, (out, stride) in enumerate(MOBNET_BLOCKS, start=1):
        c_out = _scale(out, w)
        src = _inverted_residual(layers, f"b{i}", src, c_in, c_out, stride)
        c_in = c_out
    layers.append(_spec("conv2d", "conv_head", src, filters=_scale(MOBNET_HEAD, w), kernel=(1, 1)))
    layers.append(_spec("batchnorm", "bn_head", "conv_head"))
    layers.append(_spec("relu", "relu_head", "bn_head"))
    return _head(layers, "relu_head", cfg.n_classes)


LAYERS = {
    "fcnn": _fcnn,
    "fsfcnn": partial(_fcnn, channels=FSFCNN_CHANNELS, pools=FSFCNN_POOLS),
    "fsfcnn_s": _fsfcnn_s,
    "resnet": _resnet,
    "resnet_d": partial(_resnet, doubled=True),
    "mobnet": _mobnet,
    "small_fcnn": partial(_fcnn, base_width=SMALL_FCNN_BASE_WIDTH),
}
ARCH_NAMES = tuple(LAYERS)


def build(cfg: ArchConfig, seed: int = 0) -> ModelGraph:
    """The validated, freshly initialized graph of ``cfg.arch`` (ArchConfig
    has checked the name); the graph is named after its arch. A graph of
    over MAX_PARAMS parameters is a ConfigError, raised before any is
    allocated."""
    graph = ModelGraph(cfg.arch, cfg.input_shape, LAYERS[cfg.arch](cfg))
    sizes = {s.name: sum(math.prod(shape) for shape, _ in param_rules(graph, s).values())
             for s in graph.layers}
    if sum(sizes.values()) > MAX_PARAMS:
        big = max(sizes, key=sizes.get)
        raise ConfigError(
            f"{cfg.arch} at width_mult {cfg.width_mult:g} has {sum(sizes.values()):.3g} "
            f"parameters, over the cap of {MAX_PARAMS}; its largest layer {big!r} has "
            f"{sizes[big]:.3g}"
        )
    return initialize(graph, seed)
