"""Spans recorded from outside the program, around calls into its layers.

The tracer replaces a function by a timing wrapper at the place where
its caller looks the name up: `cli` imports `load_wav` by name, so the
wrapper goes on `ascpipe.cli.load_wav`; the engine calls kernels as
`L.conv2d_forward`, so it goes on `ascpipe.nn.layers.conv2d_forward`.
Nothing under `src/` is edited. Spans stay in memory and are written out
by the launcher when the command ends.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

# Kernels the engine reaches through `L.`; quant reaches the same module.
LAYER_FUNCS = (
    "conv2d_forward", "conv2d_backward",
    "depthwise_forward", "depthwise_backward",
    "batchnorm_forward", "batchnorm_backward",
    "relu_forward", "relu_backward",
    "maxpool_forward", "maxpool_backward",
    "global_avg_pool_forward", "global_avg_pool_backward",
    "dense_forward", "dense_backward",
    "softmax_forward", "softmax_backward",
    "dropout_forward", "dropout_backward",
    "channel_attention_forward", "channel_attention_backward",
    "freq_split_forward", "freq_split_backward",
    "concat_forward", "concat_backward",
)


class Tracer:
    """In-memory span store: (name, parent index, start, end) per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a spanning wrapper; `after(args, result)`
        runs outside the span, so counting costs no traced time."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            span = [name, tracer._stack[-1] if tracer._stack else None, 0.0, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)

    def hook(self, owner, attr: str, after) -> None:
        """Replace owner.attr by a wrapper that records no span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        setattr(owner, attr, wrapper)

    def keep_max(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), int(value))


def tape_nbytes(tape) -> int:
    """Bytes of every distinct array a Tape references (acts and caches)."""
    seen: set[int] = set()
    total = 0
    todo = list(tape.acts.values()) + list(tape.caches.values())
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            if id(obj) not in seen:
                seen.add(id(obj))
                total += obj.nbytes
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
    return total


def install(tracer: Tracer) -> None:
    """Wrap every public name the benchmark attributes time to."""
    from importlib import import_module

    # the attribute `ascpipe.nn.train` is the train function, which shadows
    # its module; import_module returns the module itself
    augment, cli, features, engine, layers, optim, nntrain, quant = (
        import_module(f"ascpipe.{m}")
        for m in ("augment", "cli", "features", "nn.engine", "nn.layers", "nn.optim", "nn.train", "quant")
    )

    def count_bytes(args, _result):
        tracer.counts["featio.write_features.bytes"] += os.path.getsize(args[0])

    spans = {
        cli: {
            "load_wav": "audio.load_wav",
            "extract_clip_features": "features.extract_clip_features",
            "read_features": "featio.read_features",
            "apply_scale01": "features.apply_scale01",
            "pitch_shift_by": "augment.pitch_shift_by",
            "speed_change_by": "augment.speed_change_by",
            "add_noise": "augment.add_noise",
            "apply_reverb_drc": "augment.apply_reverb_drc",
            "synth_rir": "augment.synth_rir",
            "predict": "nn.predict",
            "save_checkpoint": "nn.checkpoint.save_checkpoint",
            "load_checkpoint": "nn.checkpoint.load_checkpoint",
            "two_stage_fuse_batch": "fusion.two_stage_fuse_batch",
            "average_ensemble": "fusion.average_ensemble",
            "evaluate": "evaluation.evaluate",
            "render_report": "evaluation.render_report",
            "read_scores": "cli.read_scores",
            "write_scores": "cli.write_scores",
        },
        features: {
            "stft_magnitude": "features.stft_magnitude",
            "log_mel": "features.log_mel",
            "assemble_tensor": "features.assemble_tensor",
        },
        augment: {
            "dynamic_range_compress": "augment.dynamic_range_compress",
            "stft_complex": "features.stft_complex",
            "istft": "features.istft",
        },
        nntrain: {
            "random_crop": "augment.random_crop",
            "spec_augment": "augment.spec_augment",
            "mixup_batch": "augment.mixup_batch",
        },
        optim.SgdMomentum: {"step": "nn.optim.step"},
        quant: {
            "quantize_model": "quant.quantize_model",
            "save_quantized": "quant.save_quantized",
            "load_quantized": "quant.load_quantized",
            "quantized_forward": "quant.quantized_forward",
        },
        layers: {fn: f"nn.layers.{fn}" for fn in LAYER_FUNCS},
    }
    for owner, names in spans.items():
        for attr, name in names.items():
            tracer.wrap(owner, attr, name)
    tracer.wrap(cli, "write_features", "featio.write_features", after=count_bytes)

    # Exact counts read from the tapes the engine returns.
    tracer.hook(
        nntrain, "backward",
        lambda _args, result: tracer.keep_max("nn.tape_bytes", tape_nbytes(result[2])),
    )

    def eval_tape(_args, result):
        if result[1].mode == "eval":
            tracer.keep_max("nn.eval_tape_bytes", tape_nbytes(result[1]))

    tracer.hook(engine, "run_forward", eval_tape)


def summarize(spans) -> dict:
    """Per span name: calls, busy seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, _parent, start, end) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return out


def root_busy(spans) -> float:
    """Seconds covered by spans that have no traced parent."""
    return sum(end - start for _n, parent, start, end in spans if parent is None)
