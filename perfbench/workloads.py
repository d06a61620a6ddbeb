"""The three benchmark workloads: frontend, train and infer.

Each workload builds its inputs from the seed in `setup`, runs one
`round` of CLI commands (each in its own launcher process), checks the
outputs, and turns a round into numbers. The reasons for each workload
and their known limits are in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ascpipe import synthetic, zoo
from ascpipe.audio import AudioClip, save_wav
from ascpipe.augment import rng_for_item
from ascpipe.errors import AscError
from ascpipe.featio import read_features, write_features, write_scale_stats
from ascpipe.features import FeatureTensor, fit_scale01
from ascpipe.fusion import SCENE_LABELS, SUPERCLASS_LABELS, ClassHierarchy
from ascpipe.manifest import ManifestRow, write_manifest
from ascpipe.nn import load_checkpoint, run_forward, save_checkpoint

from tracing import root_busy, summarize

DEVICES = ("a", "b", "c", "s1", "s2", "s3")
# Largest allowed per-item relative error of the int8 log-scores (see
# _int8_fidelity); seeds 401-414 of the full sizes gave at most 0.14.
INT8_LOGIT_ERR_MAX = 0.35
HOP = 1024  # default [spectrogram] hop
DELTA_LOSS = 8  # frames lost to delta and delta-delta


@dataclass(frozen=True)
class Sizes:
    clips: int  # per frontend manifest; a multiple of 4 (one per augment op)
    clip_s: float
    feat_t: int  # frames of train / infer feature files
    crop: int  # train crop_len and model input length
    archs: tuple  # (arch, width, batch) per train command
    eval_items: int
    fine_width: float
    coarse_width: float


FULL = Sizes(
    clips=16, clip_s=10.0, feat_t=423, crop=400,
    archs=(("small_fcnn", 1.0, 8), ("mobnet", 0.5, 4), ("resnet", 0.5, 4)),
    eval_items=8, fine_width=1.0, coarse_width=0.5,
)
SMOKE = Sizes(
    clips=4, clip_s=1.0, feat_t=40, crop=32,
    archs=(("small_fcnn", 0.25, 2), ("mobnet", 0.25, 2), ("resnet", 0.25, 2)),
    eval_items=2, fine_width=0.25, coarse_width=0.25,
)

# Layer kinds timed per architecture; every other kind is summed as "other".
ARCH_KINDS = {
    "small_fcnn": ("conv2d", "batchnorm", "relu", "maxpool", "dropout", "channel_attention"),
    "mobnet": ("conv2d", "depthwise", "batchnorm", "relu"),
    "resnet": ("conv2d", "batchnorm", "relu"),
}
# The int8 path folds batchnorm away.
INT8_KINDS = ("conv2d", "relu", "maxpool", "dropout", "channel_attention")
AUG_OPS = ("pitch_shift", "speed_change", "add_noise", "reverb_drc")
AUG_OP_SPANS = ("pitch_shift_by", "speed_change_by", "add_noise", "apply_reverb_drc")
AUG_CHILD_SPANS = (
    "augment.dynamic_range_compress", "augment.synth_rir",
    "features.stft_complex", "features.istft",
)
EXTRACT_SPANS = ("audio.load_wav", "features.extract_clip_features", "featio.write_features")
EXTRACT_CHILD_SPANS = ("features.stft_magnitude", "features.log_mel", "features.assemble_tensor")
NEGLIGIBLE_SPANS = (
    "fusion.two_stage_fuse_batch", "fusion.average_ensemble", "evaluation.evaluate",
    "evaluation.render_report", "cli.read_scores", "cli.write_scores",
)


def per_layer_catalog() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in print order."""
    cat = []
    for name in EXTRACT_SPANS:
        cat += [(f"{name}.s", "s", "lower"), (f"{name}.calls", "count", "lower")]
    cat += [(f"{name}.s", "s", "lower") for name in EXTRACT_CHILD_SPANS]
    cat.append(("featio.write_features.bytes", "bytes", "lower"))
    for op in AUG_OP_SPANS:
        cat += [(f"augment.{op}.s_per_call", "s", "lower"), (f"augment.{op}.calls", "count", "lower")]
    cat += [(f"{name}.s_per_call", "s", "lower") for name in AUG_CHILD_SPANS]
    cat.append(("frontend.trace_overhead_s", "s", "lower"))

    for arch, kinds in ARCH_KINDS.items():
        for kind in kinds:
            for phase in ("forward", "backward"):
                cat.append((f"{arch}.nn.layers.{kind}_{phase}.s", "s", "lower"))
        cat += [
            (f"{arch}.nn.layers.other.s", "s", "lower"),
            (f"{arch}.nn.optim.step.s", "s", "lower"),
            (f"{arch}.augment.online.s", "s", "lower"),
            (f"{arch}.featio.read_features.s", "s", "lower"),
            (f"{arch}.nn.checkpoint.save_checkpoint.s", "s", "lower"),
            (f"{arch}.unattributed.s", "s", "lower"),
            (f"{arch}.nn.tape_bytes", "bytes", "lower"),
        ]
        for kind in ("conv2d", "depthwise_conv2d"):
            if kind == "conv2d" or "depthwise" in kinds:
                cat += [
                    (f"{arch}.nn.{kind}.macs_per_item", "count", "lower"),
                    (f"{arch}.nn.{kind}.gmac_per_s", "GMAC/s", "higher"),
                ]
    cat.append(("train.trace_overhead_s", "s", "lower"))

    for arch in ("small_fcnn", "mobnet"):
        cat.append((f"{arch}.nn.predict.s", "s", "lower"))
        cat += [(f"{arch}.nn.predict.{kind}_forward.s", "s", "lower") for kind in ARCH_KINDS[arch]]
        cat.append((f"{arch}.nn.predict.other.s", "s", "lower"))
        cat.append((f"{arch}.nn.eval_tape_bytes", "bytes", "lower"))
    cat += [("featio.read_features.s", "s", "lower"), ("features.apply_scale01.s", "s", "lower")]
    cat.append(("quant.quantized_forward.s", "s", "lower"))
    cat += [(f"quant.quantized_forward.{k}_forward.s", "s", "lower") for k in INT8_KINDS]
    cat.append(("quant.quantized_forward.other.s", "s", "lower"))
    cat += [(f"quant.{fn}.s", "s", "lower") for fn in ("quantize_model", "save_quantized", "load_quantized")]
    cat += [
        ("quant.score_abs_diff_max", "prob", "lower"),
        ("quant.logit_rel_err_max", "fraction", "lower"),
        ("quant.int8_top1_agreement", "fraction", "higher"),
    ]
    cat += [(f"{name}.s", "s", "lower") for name in NEGLIGIBLE_SPANS]
    cat.append(("infer.trace_overhead_s", "s", "lower"))
    return cat


# ---------------------------------------------------------------------------
# helpers


def _feature_ok(path: Path, shape) -> bool:
    try:
        data = read_features(path).data
    except AscError:
        return False
    return data.shape == tuple(shape) and bool(np.isfinite(data).all())


def _scores_ok(path: Path, n_rows: int, n_cols: int):
    """Parsed score matrix when its rows are probability vectors, else None."""
    try:
        lines = path.read_text().splitlines()
        scores = np.array([[float(v) for v in ln.split("\t")] for ln in lines[1:] if ln])
    except (OSError, ValueError):
        return None
    if scores.shape != (n_rows, n_cols) or not np.isfinite(scores).all():
        return None
    if np.abs(scores.sum(axis=1) - 1.0).max() > 1e-5:
        return None
    return scores


def _int8_fidelity(fine: np.ndarray, int8: np.ndarray) -> tuple[float, float, float]:
    """Top-1 agreement, largest score difference and largest per-item
    relative error of the row-centred log-scores (the logits up to a
    per-row constant) of the int8 scores against the float scores. An int8
    path that returns wrong or uniform scores reads about 1 on the last."""
    agree = float((fine.argmax(1) == int8.argmax(1)).mean())
    zf, zq = (np.log(np.maximum(s, 1e-30)) for s in (fine, int8))
    zf, zq = zf - zf.mean(1, keepdims=True), zq - zq.mean(1, keepdims=True)
    rel = np.linalg.norm(zq - zf, axis=1) / np.maximum(np.linalg.norm(zf, axis=1), 1e-12)
    return agree, float(np.abs(fine - int8).max()), float(rel.max())


def _json_ok(path: Path) -> bool:
    try:
        json.loads(path.read_text())
    except (OSError, ValueError):
        return False
    return True


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _spans_of(results) -> list:
    """Concatenate the spans of several commands, keeping parent links."""
    out = []
    for r in results:
        base = len(out)
        out += [[n, None if p is None else p + base, s, e] for n, p, s, e in r.get("spans", [])]
    return out


def _busy(summary: dict, name: str) -> float:
    return summary.get(name, {}).get("busy_s", 0.0)


def _calls(summary: dict, name: str) -> int:
    return summary.get(name, {}).get("calls", 0)


def _per_call(summary: dict, name: str) -> float:
    calls = _calls(summary, name)
    return _busy(summary, name) / calls if calls else 0.0


def _kind_times(summary: dict, prefix: str, kinds, phases) -> dict:
    """Self seconds per `<kind>_<phase>` of nn.layers spans, rest as other."""
    out = {f"{k}_{p}": 0.0 for k in kinds for p in phases}
    other = 0.0
    for name, entry in summary.items():
        if not name.startswith("nn.layers."):
            continue
        fn = name[len("nn.layers."):]
        if fn in out:
            out[fn] += entry["self_s"]
        elif fn.rsplit("_", 1)[-1] in phases:
            other += entry["self_s"]
    result = {f"{prefix}.{k}.s": v for k, v in out.items()}
    result[f"{prefix}.other.s"] = other
    return result


def _calibrate_batchnorm(graph, x) -> None:
    """Set running statistics to the batch statistics of one train-mode forward."""
    before = {
        s.name: (graph.params[s.name]["running_mean"].copy(), graph.params[s.name]["running_var"].copy())
        for s in graph.layers if s.kind == "batchnorm"
    }
    run_forward(graph, x, "train")
    for spec in graph.layers:
        if spec.kind != "batchnorm":
            continue
        momentum = float(spec.attr("momentum", 0.9))
        p = graph.params[spec.name]
        m0, v0 = before[spec.name]
        p["running_mean"] = ((p["running_mean"] - momentum * m0) / (1 - momentum)).astype(np.float32)
        p["running_var"] = ((p["running_var"] - momentum * v0) / (1 - momentum)).astype(np.float32)


def _macs_per_item(graph, kind: str) -> int:
    total = 0
    for spec in graph.layers:
        if spec.kind != kind:
            continue
        ho, wo, cout = graph.shapes[spec.name]
        kh, kw, cin, _ = graph.params[spec.name]["w"].shape
        total += ho * wo * kh * kw * (cin * cout if kind == "conv2d" else cout)
    return total


@dataclass
class Round:
    """One round: stage numbers, the summed command wall time, launcher results."""

    stages: dict
    wall_s: float
    results: dict

    @property
    def peak_rss_mb(self) -> float:
        return max(r["peak_rss_mb"] for r in self.results.values())


# ---------------------------------------------------------------------------
# frontend


class Frontend:
    """10 s noise-plus-tone WAVs through `extract` and `augment`."""

    name = "frontend"
    round_s = 12.0  # nominal seconds per untraced round; --seconds 40 gives 3 rounds
    warm_mb = 0  # memory touched before each command (see run.Bench._warm_memory)
    stage_names = ("extract", "augment", "extract+augment")

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes, self.seed = sizes, seed

    def setup(self, d: Path) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.manifests = {}
        for tag, rate, channels, labels in (
            ("mono", 44100, 1, SCENE_LABELS),
            ("stereo", 48000, 2, SUPERCLASS_LABELS),
        ):
            n = int(round(self.sizes.clip_s * rate))
            t = np.arange(n, dtype=np.float32) / np.float32(rate)
            rows = []
            for i in range(self.sizes.clips):
                freqs = rng.uniform(100.0, 4000.0, channels).astype(np.float32)
                phase = rng.uniform(0, 2 * np.pi, channels).astype(np.float32)
                tone = 0.3 * np.sin(np.float32(2 * np.pi) * freqs * t[:, None] + phase)
                noise = np.float32(0.05) * rng.standard_normal((n, channels), dtype=np.float32)
                save_wav(d / f"{tag}{i:03d}.wav", AudioClip(tone + noise, rate))
                split = "test" if i % 4 == 3 else "train"
                rows.append(ManifestRow(f"{tag}{i:03d}.wav", labels[i % len(labels)], DEVICES[i % 6], split))
            write_manifest(d / f"{tag}.tsv", rows)
            frames = n // HOP + 1 - DELTA_LOSS
            self.manifests[tag] = (d / f"{tag}.tsv", (frames, 128, 3 * channels), rows)
        self.aug_seed = {tag: self._balanced_seed(k) for k, tag in enumerate(self.manifests)}

    def _balanced_seed(self, salt: int) -> int:
        """First CLI seed from a seeded start whose per-item op draws give
        every augment op the same number of clips."""
        want = [self.sizes.clips // len(AUG_OPS)] * len(AUG_OPS)
        cand = int(np.random.default_rng([self.seed, 2, salt]).integers(0, 2**31))
        while True:
            draws = [int(rng_for_item(cand, i).integers(0, len(AUG_OPS))) for i in range(self.sizes.clips)]
            if np.bincount(draws, minlength=len(AUG_OPS)).tolist() == want:
                return cand
            cand += 1

    def round(self, bench, d: Path, trace: bool, workers: int, first: bool) -> Round:
        res = {}
        for tag, (manifest, shape, rows) in self.manifests.items():
            for cmd in ("extract", "augment"):
                out = _fresh(d / f"{cmd}-{tag}")
                argv = [cmd, "--manifest", str(manifest), "--out", str(out), "--workers", str(workers),
                        "--seed", str(self.aug_seed[tag])]
                res[(cmd, tag)] = r = bench.run(argv, trace=trace)
                if not bench.check(r["exit"] == 0, f"{cmd} {tag} exited {r['exit']}"):
                    continue
                if cmd == "extract":
                    files = [out / Path(row.filename).with_suffix(".ascf") for row in rows]
                else:
                    files = [out / f"aug{i:05d}_{Path(row.filename).stem}.ascf" for i, row in enumerate(rows)]
                    ops = [ln.split("\t")[4] for ln in (out / "augmented.tsv").read_text().splitlines()[1:]]
                    counts = {op: ops.count(op) for op in AUG_OPS}
                    bench.note(f"augment {tag} op counts", counts)
                    # _balanced_seed replays the CLI's op draw; a change to the draw fails here
                    bench.check(set(counts.values()) == {len(rows) // len(AUG_OPS)},
                                f"augment {tag}: op counts {counts} are not balanced")
                for f in files:
                    bench.check(_feature_ok(f, shape), f"{f.name}: not a finite {shape} tensor")
        n = len(self.manifests) * self.sizes.clips
        t_ext = sum(res[("extract", t)]["wall_s"] for t in self.manifests)
        t_aug = sum(res[("augment", t)]["wall_s"] for t in self.manifests)
        rss = {cmd: max(res[(cmd, t)]["peak_rss_mb"] for t in self.manifests) for cmd in ("extract", "augment")}
        stages = {
            "extract": (n / t_ext, rss["extract"]),
            "augment": (n / t_aug, rss["augment"]),
            "extract+augment": (n / (t_ext + t_aug), max(rss.values())),
        }
        return Round(stages, t_ext + t_aug, res)

    def named(self, st: dict) -> dict:
        return {
            "extract_clips_per_s": (st["extract"][0], "clips/s"),
            "augment_clips_per_s": (st["augment"][0], "clips/s"),
        }

    def per_layer(self, rnd: Round) -> dict:
        ext = summarize(_spans_of(r for (cmd, _), r in rnd.results.items() if cmd == "extract"))
        aug = summarize(_spans_of(r for (cmd, _), r in rnd.results.items() if cmd == "augment"))
        out = {}
        for name in EXTRACT_SPANS:
            out[f"{name}.s"] = _busy(ext, name)
            out[f"{name}.calls"] = _calls(ext, name)
        for name in EXTRACT_CHILD_SPANS:
            out[f"{name}.s"] = _busy(ext, name)
        out["featio.write_features.bytes"] = sum(
            r["counts"].get("featio.write_features.bytes", 0)
            for (cmd, _), r in rnd.results.items() if cmd == "extract"
        )
        for op in AUG_OP_SPANS:
            out[f"augment.{op}.s_per_call"] = _per_call(aug, f"augment.{op}")
            out[f"augment.{op}.calls"] = _calls(aug, f"augment.{op}")
        for name in AUG_CHILD_SPANS:
            out[f"{name}.s_per_call"] = _per_call(aug, name)
        return out


# ---------------------------------------------------------------------------
# train


class Train:
    """`ascpipe train` for one step per architecture on synthetic features."""

    name = "train"
    round_s = 18.0
    warm_mb = 2500

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes, self.seed = sizes, seed
        self.stage_names = tuple(a for a, _, _ in sizes.archs)

    def setup(self, d: Path) -> None:
        s = self.sizes
        n = max(b for _, _, b in s.archs)
        xs, ys = synthetic.spectro_corpus(n, 10, (s.feat_t, 128, 3), seed=self.seed)
        rows = []
        for i, (x, y) in enumerate(zip(xs, ys)):
            write_features(d / f"item{i:03d}.ascf", FeatureTensor(x))
            rows.append(ManifestRow(f"item{i:03d}.ascf", SCENE_LABELS[y], DEVICES[i % 6]))
        self.jobs = {}
        for arch, width, batch in s.archs:
            manifest = d / f"{arch}.tsv"
            write_manifest(manifest, rows[:batch])
            config = d / f"{arch}.ini"
            config.write_text(
                "[train]\nepochs = 1\n"
                f"batch_size = {batch}\ncrop_len = {s.crop}\n"
                "mixup_alpha = 0.4\ntime_mask_frac = 0.1\nfreq_mask_frac = 0.1\n"
            )
            self.jobs[arch] = (width, batch, manifest, config)

    def round(self, bench, d: Path, trace: bool, workers: int, first: bool) -> Round:
        res, stages = {}, {}
        self.graphs = {}
        for arch, (width, batch, manifest, config) in self.jobs.items():
            ckpt = _fresh(d / arch) / "model.ascm"
            argv = ["train", "--manifest", str(manifest), "--out", str(ckpt), "--config", str(config),
                    "--arch", arch, "--width", str(width), "--seed", str(self.seed)]
            res[arch] = r = bench.run(argv, trace=trace)
            stages[arch] = (batch / r["wall_s"], r["peak_rss_mb"])
            if not bench.check(r["exit"] == 0, f"train {arch} exited {r['exit']}"):
                continue
            m = re.search(r"final epoch loss: (\S+)", r["log"])
            bench.check(m is not None and math.isfinite(float(m.group(1))), f"train {arch}: loss not finite")
            error = ""
            try:
                self.graphs[arch] = load_checkpoint(ckpt)
            except AscError as exc:
                error = str(exc)
            bench.check(not error, f"train {arch}: checkpoint rejected: {error}")
        return Round(stages, sum(r["wall_s"] for r in res.values()), res)

    def named(self, st: dict) -> dict:
        out = {}
        for arch in self.jobs:
            out[f"train_items_per_s.{arch}"] = (st[arch][0], "items/s")
        for arch in self.jobs:
            out[f"train_peak_rss_mb.{arch}"] = (st[arch][1], "MB")
        return out

    def per_layer(self, rnd: Round) -> dict:
        out = {}
        for arch, r in rnd.results.items():
            spans = r.get("spans", [])
            sm = summarize(spans)
            kinds = ARCH_KINDS[arch]
            layer = _kind_times(sm, f"{arch}.nn.layers", kinds, ("forward", "backward"))
            out.update(layer)
            out[f"{arch}.nn.optim.step.s"] = _busy(sm, "nn.optim.step")
            out[f"{arch}.augment.online.s"] = sum(
                _busy(sm, f"augment.{fn}") for fn in ("random_crop", "spec_augment", "mixup_batch")
            )
            out[f"{arch}.featio.read_features.s"] = _busy(sm, "featio.read_features")
            out[f"{arch}.nn.checkpoint.save_checkpoint.s"] = _busy(sm, "nn.checkpoint.save_checkpoint")
            out[f"{arch}.unattributed.s"] = r["wall_s"] - root_busy(spans)
            out[f"{arch}.nn.tape_bytes"] = r.get("counts", {}).get("nn.tape_bytes", 0)
            graph = self.graphs.get(arch)
            items = self.jobs[arch][1]
            for kind, short in (("conv2d", "conv2d"), ("depthwise_conv2d", "depthwise")):
                if short not in kinds:
                    continue
                macs = _macs_per_item(graph, kind) if graph is not None else 0
                secs = layer[f"{arch}.nn.layers.{short}_forward.s"] + layer[f"{arch}.nn.layers.{short}_backward.s"]
                out[f"{arch}.nn.{kind}.macs_per_item"] = macs
                # forward plus the two backward products (input and weight gradients)
                out[f"{arch}.nn.{kind}.gmac_per_s"] = 3 * macs * items / secs / 1e9 if secs else 0.0
        return out


# ---------------------------------------------------------------------------
# infer


class Infer:
    """`evaluate` on a fine and a coarse checkpoint, the int8 path, then
    `fuse`, `ensemble` and `report` on the score files."""

    name = "infer"
    round_s = 16.0
    warm_mb = 2500
    stage_names = ("eval.small_fcnn", "eval.mobnet", "int8.small_fcnn")

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes, self.seed = sizes, seed

    def setup(self, d: Path) -> None:
        s = self.sizes
        xs, ys = synthetic.spectro_corpus(s.eval_items, 10, (s.feat_t, 128, 3), seed=self.seed)
        hierarchy = ClassHierarchy.default()
        parents = hierarchy.parent_indices()
        fine, coarse, tensors = [], [], []
        for i, (x, y) in enumerate(zip(xs, ys)):
            tensors.append(FeatureTensor(x))
            write_features(d / f"item{i:03d}.ascf", tensors[-1])
            fine.append(ManifestRow(f"item{i:03d}.ascf", SCENE_LABELS[y], DEVICES[i % 6]))
            coarse.append(ManifestRow(f"item{i:03d}.ascf", SUPERCLASS_LABELS[parents[y]], DEVICES[i % 6]))
        self.fine, self.coarse = d / "fine.tsv", d / "coarse.tsv"
        write_manifest(self.fine, fine)
        write_manifest(self.coarse, coarse)
        stats = fit_scale01(tensors)
        calib, _ = synthetic.spectro_corpus(1, 10, (s.crop, 128, 3), seed=self.seed + 1)
        self.models = {}
        for arch, width, classes in (("small_fcnn", s.fine_width, 10), ("mobnet", s.coarse_width, 3)):
            cfg = zoo.ArchConfig(arch=arch, width_mult=width, n_classes=classes, input_shape=(s.crop, 128, 3))
            graph = zoo.build(cfg, seed=self.seed)
            _calibrate_batchnorm(graph, calib)
            path = d / f"{arch}.ascm"
            save_checkpoint(path, graph)
            write_scale_stats(path.with_suffix(".stats.txt"), stats)
            self.models[arch] = path
        self.hierarchy = hierarchy

    def round(self, bench, d: Path, trace: bool, workers: int, first: bool) -> Round:
        """Timed stages every round; fuse, ensemble and report in the first."""
        n = self.sizes.eval_items
        res, scores = {}, {}
        out = {arch: _fresh(d / f"eval-{arch}") for arch in self.models}
        for arch, manifest in (("small_fcnn", self.fine), ("mobnet", self.coarse)):
            res[f"eval.{arch}"] = bench.run(
                ["evaluate", str(self.models[arch]), "--manifest", str(manifest), "--out", str(out[arch])],
                trace=trace,
            )
        q = _fresh(d / "int8")
        res["int8.small_fcnn"] = bench.run(
            {"model": str(self.models["small_fcnn"]), "manifest": str(self.fine),
             "out_model": str(q / "model.ascq"), "out_scores": str(q / "scores.tsv")},
            trace=trace,
        )
        files = {"fine": (out["small_fcnn"] / "scores.tsv", 10), "coarse": (out["mobnet"] / "scores.tsv", 3),
                 "int8": (q / "scores.tsv", 10)}
        if first:
            post = _fresh(d / "post")
            res["fuse"] = bench.run(
                ["fuse", str(files["coarse"][0]), str(files["fine"][0]), "--out", str(post / "fused.tsv")],
                trace=trace,
            )
            res["ensemble"] = bench.run(
                ["ensemble", str(files["fine"][0]), str(files["int8"][0]), "--out", str(post / "avg.tsv")],
                trace=trace,
            )
            res["report"] = bench.run(
                ["report", str(post / "avg.tsv"), "--manifest", str(self.fine), "--out", str(post / "report")],
                trace=trace,
            )
            files["avg"] = (post / "avg.tsv", 10)
        for key, r in res.items():
            bench.check(r["exit"] == 0, f"{key} exited {r['exit']}")
        for key, (path, cols) in files.items():
            scores[key] = _scores_ok(path, n, cols)
            bench.check(scores[key] is not None, f"{path} ({key}): rows are not probabilities")
        reports = [out["small_fcnn"], out["mobnet"]]
        if first:
            bench.check(self._fused_ok(post / "fused.tsv", scores), "fused predictions differ from the brute-force argmax")
            reports.append(post / "report")
        for path in reports:
            bench.check(_json_ok(path / "report.json"), f"{path / 'report.json'} does not parse")

        self.fidelity = (0.0, math.inf, math.inf)
        if scores["fine"] is not None and scores["int8"] is not None:
            self.fidelity = _int8_fidelity(scores["fine"], scores["int8"])
        bench.check(self.fidelity[2] <= INT8_LOGIT_ERR_MAX,
                    f"int8 log-scores differ from float by {self.fidelity[2]:.3f} > {INT8_LOGIT_ERR_MAX} (relative)")
        int8 = res["int8.small_fcnn"]
        stages = {
            "eval.small_fcnn": (n / res["eval.small_fcnn"]["wall_s"], res["eval.small_fcnn"]["peak_rss_mb"]),
            "eval.mobnet": (n / res["eval.mobnet"]["wall_s"], res["eval.mobnet"]["peak_rss_mb"]),
            "int8.small_fcnn": (n / int8["extra"].get("forward_s", math.inf), int8["peak_rss_mb"]),
        }
        return Round(stages, sum(r["wall_s"] for r in res.values()), res)

    def _fused_ok(self, path: Path, scores: dict) -> bool:
        """Fused argmax equals a per-item loop over coarse[parent(c)] * fine[c]."""
        coarse, fine = scores["coarse"], scores["fine"]
        if coarse is None or fine is None:
            return False
        try:
            fused = np.array([[float(v) for v in ln.split("\t")] for ln in path.read_text().splitlines()[1:] if ln])
        except (OSError, ValueError):
            return False
        parents = self.hierarchy.parent_indices()
        brute = [
            max(range(len(parents)), key=lambda c: (coarse[i, parents[c]] * fine[i, c], -c))
            for i in range(len(fine))
        ]
        return fused.shape == fine.shape and fused.argmax(axis=1).tolist() == brute

    def named(self, st: dict) -> dict:
        return {
            "eval_items_per_s.small_fcnn": (st["eval.small_fcnn"][0], "items/s"),
            "eval_items_per_s.mobnet": (st["eval.mobnet"][0], "items/s"),
            "int8_items_per_s.small_fcnn": (st["int8.small_fcnn"][0], "items/s"),
            "int8_top1_agreement.small_fcnn": (self.fidelity[0], "fraction"),
        }

    def per_layer(self, rnd: Round) -> dict:
        out = {}
        for arch in ("small_fcnn", "mobnet"):
            r = rnd.results[f"eval.{arch}"]
            sm = summarize(r.get("spans", []))
            out[f"{arch}.nn.predict.s"] = _busy(sm, "nn.predict")
            out.update(_kind_times(sm, f"{arch}.nn.predict", ARCH_KINDS[arch], ("forward",)))
            out[f"{arch}.nn.eval_tape_bytes"] = r.get("counts", {}).get("nn.eval_tape_bytes", 0)
        evals = summarize(_spans_of(rnd.results[f"eval.{a}"] for a in ("small_fcnn", "mobnet")))
        out["featio.read_features.s"] = _busy(evals, "featio.read_features")
        out["features.apply_scale01.s"] = _busy(evals, "features.apply_scale01")
        q = summarize(rnd.results["int8.small_fcnn"].get("spans", []))
        out["quant.quantized_forward.s"] = _busy(q, "quant.quantized_forward")
        out.update(_kind_times(q, "quant.quantized_forward", INT8_KINDS, ("forward",)))
        for fn in ("quantize_model", "save_quantized", "load_quantized"):
            out[f"quant.{fn}.s"] = _busy(q, f"quant.{fn}")
        out["quant.int8_top1_agreement"], out["quant.score_abs_diff_max"], out["quant.logit_rel_err_max"] = self.fidelity
        rest = summarize(_spans_of(rnd.results[k] for k in rnd.results))
        for name in NEGLIGIBLE_SPANS:
            out[f"{name}.s"] = _busy(rest, name)
        return out
