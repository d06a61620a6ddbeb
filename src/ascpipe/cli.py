"""Batch command line: extract, augment, train, evaluate, fuse, ensemble,
quantize, report.

Every command prints a reproducibility block (config hash, seed, library
versions, the BLAS and its thread count) before doing work, and is
deterministic given (config, seed) regardless of the worker count. Exit
codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.

Score matrices travel between commands as tab-separated text: one header
row of class names, then one row of `repr` floats per item, aligned with
the manifest rows they were computed from.
"""

from __future__ import annotations

import argparse
import dataclasses
import platform
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .audio import load_wav
from .augment import (
    CompressorConfig,
    add_noise,
    apply_reverb_drc,
    pitch_shift_by,
    rng_for_item,
    speed_change_by,
    synth_rir,
)
from .config import RunConfig, config_hash, load_config
from .errors import AscError, ConfigError, DataError, read_text
from .evaluation import evaluate, render_report, report_from_json, report_to_json
from .featio import (
    read_features,
    read_scale_stats,
    write_features,
    write_scale_stats,
)
from .features import FeatureTensor, ScaleStats, apply_scale01, extract_clip_features, fit_scale01
from .fusion import ClassHierarchy, average_ensemble, two_stage_fuse_batch
from .manifest import DatasetManifest, read_manifest, write_manifest
from .nn import blas, load_checkpoint, one_hot, predict, save_checkpoint, train
from .quant import (
    load_quantized,
    quantize_model,
    quantized_forward,
    save_quantized,
    weight_blob_ratio,
)
from .zoo import ArchConfig, build

# ---------------------------------------------------------------------------
# score matrix files


def write_scores(path: str | Path, scores: np.ndarray, classes) -> None:
    scores = np.asarray(scores)
    if scores.ndim != 2 or scores.shape[1] != len(classes):
        raise DataError("scores must be (rows, len(classes))")
    lines = ["\t".join(classes)]
    for row in scores:
        lines.append("\t".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_scores(path: str | Path) -> tuple[np.ndarray, tuple[str, ...]]:
    text = read_text(path, DataError, "scores file")
    # (file line number, line) of every non-blank line
    lines = [(ln, line) for ln, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if len(lines) < 2:
        raise DataError(f"{path}: need a class header and at least one row")
    classes = tuple(lines[0][1].split("\t"))
    if "" in classes:
        raise DataError(f"{path}: empty class name in the header")
    repeated = next((c for i, c in enumerate(classes) if c in classes[:i]), None)
    if repeated is not None:
        raise DataError(f"{path}: class {repeated!r} appears twice in the header")
    rows = []
    for ln, line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != len(classes):
            raise DataError(
                f"{path}:{ln}: {len(parts)} fields, header has {len(classes)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise DataError(f"{path}:{ln}: non-numeric score") from None
    scores = np.array(rows, dtype=np.float64)
    bad = ~(np.isfinite(scores) & (scores >= 0))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        value = float(scores[i, j])
        raise DataError(f"{path}:{lines[1 + i][0]}: score {value!r} is not finite and non-negative")
    return scores, classes


# ---------------------------------------------------------------------------
# shared plumbing

# command-line flag -> the RunConfig field it overrides
_FLAG_FIELDS = {"seed": "seed", "workers": "workers", "arch": "arch", "width": "width_mult"}


def _effective_config(args) -> RunConfig:
    updates = {
        name: getattr(args, flag)
        for flag, name in _FLAG_FIELDS.items()
        if getattr(args, flag, None) is not None
    }
    return dataclasses.replace(load_config(args.config), **updates)


def _print_repro(command: str, cfg: RunConfig) -> None:
    print(f"command: {command}")
    print(f"config hash: {config_hash(cfg)}")
    print(f"seed: {cfg.seed}")
    print(
        f"versions: ascpipe {__version__}, numpy {np.__version__}, "
        f"python {platform.python_version()}"
    )
    # float sums, and so float output bytes, depend on the BLAS and its threads
    blas_dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas.threads()
    print(
        f"blas: {blas_dep['name']} {blas_dep['version']}, "
        f"threads: {'unknown' if threads is None else threads}"
    )


def _prepare_out(out, *inputs, is_dir=False) -> Path | None:
    """``--out`` made ready before any work: a directory output is made, and
    a file output's parent. A file output may be neither an existing
    directory (exit 3) nor one of ``inputs`` (exit 2). None stays None."""
    if out is None:
        return None
    out = Path(out)
    if is_dir:
        out.mkdir(parents=True, exist_ok=True)
        return out
    hit = {Path(p).resolve(): p for p in inputs}.get(out.resolve())
    if hit is not None:
        raise ConfigError(f"--out {out} would overwrite the input {hit}")
    if out.is_dir():
        raise DataError(f"--out {out} is a directory, not a file")
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _split_indices(manifest: DatasetManifest, tag: str) -> tuple[int, ...]:
    """Rows tagged ``tag``, or every row when the manifest has no split tags."""
    if any(row.split for row in manifest.rows):
        idx = manifest.split_rows(tag)
        if not idx:
            raise DataError(f"manifest has split tags but no rows tagged {tag}")
        return idx
    return tuple(range(len(manifest)))


def _read_split(path, tag: str) -> tuple[Path, DatasetManifest]:
    """The directory of feature manifest ``path`` and its rows for ``tag``."""
    manifest = read_manifest(path)
    rows = tuple(manifest.rows[i] for i in _split_indices(manifest, tag))
    return Path(path).resolve().parent, DatasetManifest(rows)


def _run_corpus(args, cfg: RunConfig, worker, name_of, *job_args):
    """Run ``worker(i, wav_path, out_path, *job_args)`` on every row i of
    the WAV manifest ``--manifest``; row i writes ``--out``/``name_of(i,
    filename)``. Every failed row is printed, then the command fails.

    Returns the manifest, the output directory, each row's output name
    and each row's worker result.
    """
    out = _prepare_out(args.out, is_dir=True)
    manifest = read_manifest(args.manifest)
    base = Path(args.manifest).resolve().parent
    owner, jobs = {}, []
    for i, row in enumerate(manifest.rows):
        name = name_of(i, Path(row.filename))
        # two jobs writing one file would race
        if name in owner:
            raise DataError(f"rows {owner[name]} and {i} both map to feature file {name}")
        owner[name] = i
        jobs.append((i, str(base / row.filename), str(out / name), *job_args))

    guarded, n_workers = partial(_guarded, worker), min(cfg.workers, len(jobs))
    if n_workers <= 1:
        outcomes = [guarded(job) for job in jobs]
    else:  # at most one process per job
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(guarded, jobs))
    failures = [(i, err) for i, (err, _) in enumerate(outcomes) if err is not None]
    for i, err in failures:
        print(f"row {i} ({manifest.rows[i].filename}): {err}", file=sys.stderr)
    if failures:
        raise DataError(f"{len(failures)} of {len(jobs)} files failed")
    return manifest, out, list(owner), [result for _, result in outcomes]


def _stats_sidecar(model_path: str | Path) -> Path:
    return Path(model_path).with_suffix(".stats.txt")


def _sidecar_stats(model_path: str | Path) -> ScaleStats:
    """The scale stats beside a model; a missing or malformed sidecar is a
    DataError naming it."""
    sidecar = _stats_sidecar(model_path)
    if not sidecar.exists():
        raise DataError(f"missing scale stats sidecar {sidecar}")
    return read_scale_stats(sidecar)


def _hierarchy_from(cfg: RunConfig) -> ClassHierarchy:
    if cfg.hierarchy_path:
        return ClassHierarchy.from_file(cfg.hierarchy_path)
    return ClassHierarchy.default()


def _reorder_columns(scores, names, wanted, path) -> np.ndarray:
    if set(names) != set(wanted) or len(names) != len(wanted):
        raise DataError(
            f"{path}: score columns {names} do not match expected classes {tuple(wanted)}"
        )
    order = [names.index(c) for c in wanted]
    return scores[:, order]


# ---------------------------------------------------------------------------
# worker jobs (module level so process pools can pickle them)


def _guarded(worker, job):
    """(error, None) when one corpus row fails, else (None, result)."""
    try:
        return None, worker(*job)
    except (AscError, OSError) as exc:
        return str(exc), None


def _write_clip_features(clip, out_path: str, spectro):
    feats = extract_clip_features(clip, spectro)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    write_features(out_path, feats)
    return feats


def _extract_job(_index, wav_path, out_path, spectro):
    data = _write_clip_features(load_wav(wav_path), out_path, spectro).data
    return data.min(axis=(0, 1)), data.max(axis=(0, 1)), data.shape


_AUG_OPS = ("pitch_shift", "speed_change", "add_noise", "reverb_drc")


def _augment_job(index, wav_path, out_path, spectro, seed, aug):
    rng = rng_for_item(seed, index)
    op = _AUG_OPS[int(rng.integers(0, len(_AUG_OPS)))]
    clip = load_wav(wav_path)
    if op == "pitch_shift":
        semitones = float(rng.uniform(-aug.pitch_semitones, aug.pitch_semitones))
        out_clip = pitch_shift_by(clip, semitones)
        params = f"semitones={semitones!r}"
    elif op == "speed_change":
        ratio = float(rng.uniform(*aug.speed_range))
        out_clip = speed_change_by(clip, ratio)
        params = f"ratio={ratio!r}"
    elif op == "add_noise":
        out_clip = add_noise(clip, aug.noise_std, rng)
        params = f"noise_std={aug.noise_std!r}"
    else:
        rt60 = float(rng.uniform(*aug.rt60_range))
        rir = synth_rir(rt60, clip.sample_rate, rng)
        out_clip = apply_reverb_drc(clip, rir, CompressorConfig())
        params = f"rt60={rt60!r}"
    _write_clip_features(out_clip, out_path, spectro)
    return op, params


# ---------------------------------------------------------------------------
# commands


def cmd_extract(args, cfg: RunConfig) -> int:
    manifest, out, names, results = _run_corpus(
        args, cfg, _extract_job, lambda _i, src: src.with_suffix(".ascf").as_posix(),
        cfg.spectro,
    )
    channel_counts = {shape[2] for _, _, shape in results}
    if len(channel_counts) != 1:
        raise DataError(f"mixed channel counts across corpus: {sorted(channel_counts)}")

    train_idx = _split_indices(manifest, "train")
    stats = ScaleStats(
        np.minimum.reduce([results[i][0] for i in train_idx]),
        np.maximum.reduce([results[i][1] for i in train_idx]),
    )
    write_scale_stats(out / "scale_stats.txt", stats)
    write_manifest(
        out / "features.tsv",
        [dataclasses.replace(row, filename=name) for row, name in zip(manifest.rows, names)],
    )

    print(f"wrote {len(names)} feature files under {out}")
    print(f"scale stats from {len(train_idx)} training rows -> {out / 'scale_stats.txt'}")
    print(f"feature manifest -> {out / 'features.tsv'}")
    return 0


def cmd_augment(args, cfg: RunConfig) -> int:
    manifest, out, names, results = _run_corpus(
        args, cfg, _augment_job, lambda i, src: f"aug{i:05d}_{src.stem}.ascf",
        cfg.spectro, cfg.seed, cfg.augment,
    )
    # the split tags go last, so the other columns keep their places
    tagged = any(row.split for row in manifest.rows)
    lines = ["filename\tscene_label\tsource_label\tsource_file\taugmentation\tparameters"
             + ("\tsplit" if tagged else "")]
    for name, row, (op, params) in zip(names, manifest.rows, results):
        fields = (name, row.scene_label, row.source_label, row.filename, op, params)
        lines.append("\t".join(fields + ((row.split,) if tagged else ())))
    (out / "augmented.tsv").write_text("\n".join(lines) + "\n")

    print(f"wrote {len(names)} augmented feature files under {out}")
    print(f"provenance manifest -> {out / 'augmented.tsv'}")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    base, subset = _read_split(args.manifest, "train")
    paths = [base / row.filename for row in subset.rows]
    stats_path = base / "scale_stats.txt"
    out = _prepare_out(args.out, args.manifest, stats_path, *paths)
    classes = _hierarchy_from(cfg).label_set(subset.scene_labels())
    ys = one_hot(subset.label_indices(classes), len(classes))

    # each row is read once into xs, the stats may be fitted on it, then it is scaled in place
    for i, path in enumerate(paths):
        feats = read_features(path)
        if i == 0:
            xs = np.empty((len(paths), *feats.shape), dtype=np.float32)
        elif feats.shape != xs.shape[1:]:
            raise DataError(f"{path}: training features must share one shape, "
                            f"got {feats.shape} against the first row's {xs.shape[1:]}")
        xs[i] = feats.data
    stats = read_scale_stats(stats_path) if stats_path.exists() else fit_scale01(map(FeatureTensor, xs))
    for row in xs:
        row[...] = apply_scale01(FeatureTensor(row), stats).data

    t_dim = cfg.online.crop_len if cfg.online.crop_len else xs.shape[1]
    arch_cfg = ArchConfig(
        arch=cfg.arch,
        width_mult=cfg.width_mult,
        n_classes=len(classes),
        input_shape=(t_dim, xs.shape[2], xs.shape[3]),
    )
    graph = build(arch_cfg, seed=cfg.seed)
    losses = train(
        graph,
        xs,
        ys,
        cfg.schedule,
        epochs=cfg.epochs,
        seed=cfg.seed,
        batch_size=cfg.batch_size,
        online=cfg.online,
    )

    save_checkpoint(out, graph)
    write_scale_stats(_stats_sidecar(out), stats)

    print(
        f"trained {cfg.arch} (width {cfg.width_mult:g}, {len(classes)} classes) "
        f"on {len(xs)} items for {cfg.epochs} epochs"
    )
    if losses:
        print(f"final epoch loss: {losses[-1]:.6f}")
    print(f"checkpoint -> {out}")
    print(f"scale stats -> {_stats_sidecar(out)}")
    return 0


def _evaluate_scores(scores: np.ndarray, subset: DatasetManifest, out: Path | None, classes) -> int:
    report = evaluate(scores, subset, classes=classes)
    text = render_report(report)
    print(text)
    if out is not None:
        (out / "report.json").write_text(report_to_json(report))
        (out / "report.txt").write_text(text + "\n")
        write_scores(out / "scores.tsv", scores, report.classes)
        print(f"report -> {out / 'report.json'}")
    return 0


def _scored_items(base: Path, rows, stats: ScaleStats, input_shape):
    """Each row's features, read, checked against the model's input shape,
    scaled and centre-cropped to its frames only when the row is scored."""
    for row in rows:
        path = base / row.filename
        feats = read_features(path)
        if feats.shape[1:] != input_shape[1:] or feats.shape[0] < input_shape[0]:
            raise DataError(f"{path}: features {feats.shape} do not fit the model input "
                            f"{input_shape}; frames cannot be padded")
        start = (feats.shape[0] - input_shape[0]) // 2
        yield apply_scale01(feats, stats).data[start : start + input_shape[0]]


def cmd_evaluate(args, cfg: RunConfig) -> int:
    out = _prepare_out(args.out, is_dir=True)
    if Path(args.model).suffix == ".ascq":
        model = load_quantized(args.model)
        graph, score = model.graph, quantized_forward
    else:
        graph = model = load_checkpoint(args.model)
        score = predict
    stats = _sidecar_stats(args.model)

    base, subset = _read_split(args.manifest, "test")
    classes = _hierarchy_from(cfg).label_set(subset.scene_labels())
    if graph.output_shape != (len(classes),):
        raise DataError(
            f"model emits {graph.output_shape[0]} classes but manifest labels need {len(classes)}"
        )
    scores = score(model, _scored_items(base, subset.rows, stats, graph.input_shape))
    return _evaluate_scores(scores, subset, out, classes)


def cmd_fuse(args, cfg: RunConfig) -> int:
    out = _prepare_out(args.out, args.coarse, args.fine)
    hierarchy = _hierarchy_from(cfg)
    coarse, coarse_names = read_scores(args.coarse)
    fine, fine_names = read_scores(args.fine)
    coarse = _reorder_columns(coarse, coarse_names, hierarchy.superclasses, args.coarse)
    fine = _reorder_columns(fine, fine_names, hierarchy.classes, args.fine)
    if len(coarse) != len(fine):
        raise DataError(
            f"row count mismatch: {args.coarse} has {len(coarse)}, {args.fine} has {len(fine)}"
        )
    fused, preds = two_stage_fuse_batch(coarse, fine, hierarchy)
    write_scores(out, fused, hierarchy.classes)
    counts = np.bincount(preds, minlength=len(hierarchy.classes))
    top = hierarchy.classes[int(np.argmax(counts))]
    print(f"fused {len(fused)} rows; most predicted class: {top}")
    print(f"fused scores -> {out}")
    return 0


def cmd_ensemble(args, cfg: RunConfig) -> int:
    if len(args.scores) < 2:
        raise DataError("ensemble needs at least two score files")
    out = _prepare_out(args.out, *args.scores)
    matrices, classes = [], None
    for path in args.scores:
        scores, names = read_scores(path)
        if classes is None:
            classes = names
        else:
            scores = _reorder_columns(scores, names, classes, path)
        matrices.append(scores)
    averaged = average_ensemble(matrices)
    write_scores(out, averaged, classes)
    print(f"averaged {len(matrices)} members over {len(averaged)} rows")
    print(f"ensemble scores -> {out}")
    return 0


# the paper's Task 1b model size limit, in KB of 1024 bytes
TASK1B_LIMIT_KB = 500


def cmd_quantize(args, cfg: RunConfig) -> int:
    out = _prepare_out(args.out, args.model, _stats_sidecar(args.model))
    graph = load_checkpoint(args.model)
    # read before anything is written: `evaluate` of the .ascq needs them
    stats = _sidecar_stats(args.model)
    qm = quantize_model(graph)
    report = save_quantized(out, qm)
    # the float model's scale stats, so `evaluate` can score the .ascq
    write_scale_stats(_stats_sidecar(out), stats)
    float_bytes = Path(args.model).stat().st_size
    for section, size in dataclasses.asdict(report).items():
        print(f"{section.replace('_', ' ')}: {size}")
    print(f"total bytes: {report.total_bytes}")
    print(
        f"task 1b size: {report.total_bytes / 1024:.1f} KB against the paper's "
        f"{TASK1B_LIMIT_KB} KB limit (1 KB = 1024 bytes)"
    )
    print(f"float checkpoint bytes: {float_bytes}")
    print(f"file size ratio: {report.total_bytes / float_bytes:.4f}")
    print(f"weight blob ratio: {weight_blob_ratio(qm):.4f}")
    print(f"quantized model -> {out}")
    return 0


def cmd_report(args, cfg: RunConfig) -> int:
    path = Path(args.scores)
    if path.suffix == ".json":
        for flag in ("manifest", "out"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--{flag} applies to a scores file, not to report JSON {path}")
        print(render_report(report_from_json(read_text(path, DataError, "report"))))
        return 0
    if args.manifest is None:
        raise ConfigError("report on a scores file needs --manifest")
    out = _prepare_out(args.out, is_dir=True)
    scores, names = read_scores(path)
    _, subset = _read_split(args.manifest, "test")
    if len(subset) != len(scores):
        raise DataError(
            f"{len(scores)} score rows but {len(subset)} evaluated manifest rows"
        )
    return _evaluate_scores(scores, subset, out, names)


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, *, seed=True, workers=False, arch=False):
    sub.add_argument("--config", help="INI run configuration file")
    if seed:
        sub.add_argument("--seed", type=int, help="override the config seed")
    if workers:
        sub.add_argument("--workers", type=int, help="parallel worker processes")
    if arch:
        sub.add_argument("--arch", help="architecture name")
        sub.add_argument("--width", type=float, help="channel width multiplier")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ascpipe",
        description="Acoustic scene classification pipeline",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("extract", help="WAV manifest to feature files + scale stats")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p, workers=True)
    p.set_defaults(func=cmd_extract)

    p = subs.add_parser("augment", help="augmented feature corpus from a WAV manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p, workers=True)
    p.set_defaults(func=cmd_augment)

    p = subs.add_parser("train", help="train a model on a feature manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint file to write")
    _add_common(p, arch=True)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("evaluate", help="evaluate a checkpoint on a feature manifest")
    p.add_argument("model", help="checkpoint file (.ascm), or quantized model (.ascq)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="directory for report.json / report.txt / scores.tsv")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("fuse", help="two-stage fusion of coarse and fine scores")
    p.add_argument("coarse", help="3-superclass scores file")
    p.add_argument("fine", help="10-class scores file")
    p.add_argument("--out", required=True, help="fused scores file to write")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_fuse)

    p = subs.add_parser("ensemble", help="average two or more score files")
    p.add_argument("scores", nargs="+", help="score files to average")
    p.add_argument("--out", required=True, help="averaged scores file to write")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_ensemble)

    p = subs.add_parser("quantize", help="int8 quantization of a checkpoint")
    p.add_argument("model", help="checkpoint file")
    p.add_argument("--out", required=True, help="quantized model file to write")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_quantize)

    p = subs.add_parser("report", help="render a report or evaluate a scores file")
    p.add_argument("scores", help="scores .tsv (with --manifest) or report .json")
    p.add_argument("--manifest")
    p.add_argument("--out", help="directory for report.json / report.txt / scores.tsv")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
        _print_repro(args.command, cfg)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        # an OSError is a path that cannot be read or written
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except AscError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
