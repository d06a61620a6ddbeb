"""Batch command line: extract, augment, train, evaluate, fuse, ensemble,
quantize, report.

Every command prints a reproducibility block (config hash, seed, library
versions) before doing work, and is deterministic given (config, seed)
regardless of the worker count. Exit codes: 0 success, 2 configuration
error, 3 data error, 4 numeric failure.

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
from .errors import AscError, ConfigError, DataError
from .evaluation import evaluate, render_report, report_from_json, report_to_json
from .featio import (
    read_features,
    read_scale_stats,
    write_features,
    write_scale_stats,
)
from .features import ScaleStats, apply_scale01, extract_clip_features, fit_scale01
from .fusion import (
    SCENE_LABELS,
    SUPERCLASS_LABELS,
    ClassHierarchy,
    average_ensemble,
    two_stage_fuse_batch,
)
from .manifest import DatasetManifest, ManifestRow, read_manifest, write_manifest
from .nn import load_checkpoint, one_hot, predict, save_checkpoint, train
from .quant import quantize_model, save_quantized, weight_blob_ratio
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
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read scores file {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise DataError(f"{path}: need a class header and at least one row")
    classes = tuple(lines[0].split("\t"))
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != len(classes):
            raise DataError(
                f"{path}:{ln}: {len(parts)} fields, header has {len(classes)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise DataError(f"{path}:{ln}: non-numeric score") from None
    return np.array(rows, dtype=np.float64), classes


# ---------------------------------------------------------------------------
# shared plumbing


def _effective_config(args) -> RunConfig:
    cfg = load_config(getattr(args, "config", None))
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        updates["workers"] = args.workers
    if getattr(args, "arch", None) is not None:
        updates["arch"] = args.arch
    if getattr(args, "width", None) is not None:
        updates["width_mult"] = args.width
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    return cfg


def _print_repro(command: str, cfg: RunConfig) -> None:
    print(f"command: {command}")
    print(f"config hash: {config_hash(cfg)}")
    print(f"seed: {cfg.seed}")
    print(
        f"versions: ascpipe {__version__}, numpy {np.__version__}, "
        f"python {platform.python_version()}"
    )


def _run_jobs(jobs, worker, n_workers: int):
    if n_workers <= 1 or len(jobs) <= 1:
        return [worker(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(worker, jobs))


def _classes_for(scene_labels) -> tuple[str, ...]:
    seen = set(scene_labels)
    if seen <= set(SCENE_LABELS):
        return SCENE_LABELS
    if seen <= set(SUPERCLASS_LABELS):
        return SUPERCLASS_LABELS
    return tuple(sorted(seen))


def _split_indices(manifest: DatasetManifest, tag: str) -> tuple[int, ...]:
    """Rows tagged ``tag``, or every row when the manifest has no split tags."""
    if any(row.split for row in manifest.rows):
        idx = manifest.split_rows(tag)
        if not idx:
            raise DataError(f"manifest has split tags but no rows tagged {tag}")
        return idx
    return tuple(range(len(manifest)))


def _load_feature_rows(base: Path, rows) -> list:
    tensors = [read_features(base / row.filename) for row in rows]
    shapes = {t.shape for t in tensors}
    if len({s[1:] for s in shapes}) != 1:
        raise DataError(f"feature mel/channel dims differ across rows: {sorted(shapes)}")
    return tensors


def _stats_sidecar(model_path: str | Path) -> Path:
    return Path(model_path).with_suffix(".stats.txt")


def _fit_or_read_stats(base: Path, tensors) -> ScaleStats:
    stats_path = base / "scale_stats.txt"
    if stats_path.exists():
        return read_scale_stats(stats_path)
    return fit_scale01(tensors)


def _crop_to_model(data: np.ndarray, t_model: int, row_name: str) -> np.ndarray:
    t = data.shape[0]
    if t == t_model:
        return data
    if t < t_model:
        raise DataError(
            f"{row_name}: {t} frames, model expects {t_model}; cannot pad"
        )
    start = (t - t_model) // 2
    return data[start : start + t_model]


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


def _extract_job(job):
    index, wav_path, out_path, spectro = job
    try:
        clip = load_wav(wav_path)
        feats = extract_clip_features(clip, spectro)
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        write_features(out_path, feats)
        data = feats.data
        return (
            index,
            None,
            data.min(axis=(0, 1)),
            data.max(axis=(0, 1)),
            feats.shape,
        )
    except (AscError, OSError) as exc:
        return (index, str(exc), None, None, None)


_AUG_OPS = ("pitch_shift", "speed_change", "add_noise", "reverb_drc")


def _augment_job(job):
    index, wav_path, out_path, seed, aug, spectro = job
    try:
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
        feats = extract_clip_features(out_clip, spectro)
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        write_features(out_path, feats)
        return (index, None, op, params)
    except (AscError, OSError) as exc:
        return (index, str(exc), None, None)


# ---------------------------------------------------------------------------
# commands


def cmd_extract(args) -> int:
    cfg = _effective_config(args)
    _print_repro("extract", cfg)
    manifest = read_manifest(args.manifest)
    base = Path(args.manifest).resolve().parent
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    jobs, rel_paths, seen = [], [], {}
    for i, row in enumerate(manifest.rows):
        src = Path(row.filename)
        wav = src if src.is_absolute() else base / src
        rel = src.with_suffix(".ascf").as_posix()
        if rel in seen:
            raise DataError(
                f"rows {seen[rel]} and {i} both map to feature file {rel}"
            )
        seen[rel] = i
        rel_paths.append(rel)
        jobs.append((i, str(wav), str(out / rel), cfg.spectro))

    results = _run_jobs(jobs, _extract_job, cfg.workers)
    failures = [(r[0], r[1]) for r in results if r[1] is not None]
    if failures:
        for i, err in failures:
            print(f"row {i} ({manifest.rows[i].filename}): {err}", file=sys.stderr)
        raise DataError(f"{len(failures)} of {len(jobs)} files failed")

    channel_counts = {r[4][2] for r in results}
    if len(channel_counts) != 1:
        raise DataError(f"mixed channel counts across corpus: {sorted(channel_counts)}")

    train_idx = _split_indices(manifest, "train")
    stats = ScaleStats(
        np.minimum.reduce([results[i][2] for i in train_idx]),
        np.maximum.reduce([results[i][3] for i in train_idx]),
    )
    write_scale_stats(out / "scale_stats.txt", stats)

    new_rows = [
        ManifestRow(rel_paths[i], row.scene_label, row.source_label, row.split)
        for i, row in enumerate(manifest.rows)
    ]
    write_manifest(out / "features.tsv", new_rows)

    print(f"wrote {len(jobs)} feature files under {out}")
    print(f"scale stats from {len(train_idx)} training rows -> {out / 'scale_stats.txt'}")
    print(f"feature manifest -> {out / 'features.tsv'}")
    return 0


def cmd_augment(args) -> int:
    cfg = _effective_config(args)
    _print_repro("augment", cfg)
    manifest = read_manifest(args.manifest)
    base = Path(args.manifest).resolve().parent
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    jobs, rel_paths = [], []
    for i, row in enumerate(manifest.rows):
        src = Path(row.filename)
        wav = src if src.is_absolute() else base / src
        rel = f"aug{i:05d}_{src.stem}.ascf"
        rel_paths.append(rel)
        jobs.append((i, str(wav), str(out / rel), cfg.seed, cfg.augment, cfg.spectro))

    results = _run_jobs(jobs, _augment_job, cfg.workers)
    failures = [(r[0], r[1]) for r in results if r[1] is not None]
    if failures:
        for i, err in failures:
            print(f"row {i} ({manifest.rows[i].filename}): {err}", file=sys.stderr)
        raise DataError(f"{len(failures)} of {len(jobs)} files failed")

    header = "filename\tscene_label\tsource_label\tsource_file\taugmentation\tparameters"
    lines = [header]
    for i, row in enumerate(manifest.rows):
        _, _, op, params = results[i]
        lines.append(
            "\t".join(
                (rel_paths[i], row.scene_label, row.source_label, row.filename, op, params)
            )
        )
    (out / "augmented.tsv").write_text("\n".join(lines) + "\n")

    print(f"wrote {len(jobs)} augmented feature files under {out}")
    print(f"provenance manifest -> {out / 'augmented.tsv'}")
    return 0


def cmd_train(args) -> int:
    cfg = _effective_config(args)
    _print_repro("train", cfg)
    manifest = read_manifest(args.manifest)
    base = Path(args.manifest).resolve().parent
    idx = _split_indices(manifest, "train")
    rows = [manifest.rows[i] for i in idx]

    tensors = _load_feature_rows(base, rows)
    shapes = {t.shape for t in tensors}
    if len(shapes) != 1:
        raise DataError(f"training features must share one shape, got {sorted(shapes)}")
    stats = _fit_or_read_stats(base, tensors)
    xs = np.stack([apply_scale01(t, stats).data for t in tensors])

    classes = _classes_for(row.scene_label for row in rows)
    labels = DatasetManifest(tuple(rows)).label_indices(classes)
    ys = one_hot(labels, len(classes))

    t_dim = cfg.online.crop_len if cfg.online.crop_len else xs.shape[1]
    arch_cfg = ArchConfig(
        arch=cfg.arch,
        width_mult=cfg.width_mult,
        n_classes=len(classes),
        input_shape=(t_dim, xs.shape[2], xs.shape[3]),
    )
    graph = build(arch_cfg, seed=cfg.seed)
    result = train(
        graph,
        xs,
        ys,
        cfg.schedule,
        epochs=cfg.epochs,
        seed=cfg.seed,
        batch_size=cfg.batch_size,
        online=cfg.online,
    )

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, graph)
    write_scale_stats(_stats_sidecar(out), stats)

    print(
        f"trained {cfg.arch} (width {cfg.width_mult:g}, {len(classes)} classes) "
        f"on {len(xs)} items for {cfg.epochs} epochs"
    )
    if result.loss_curve:
        print(f"final epoch loss: {result.loss_curve[-1]:.6f}")
    print(f"checkpoint -> {out}")
    print(f"scale stats -> {_stats_sidecar(out)}")
    return 0


def _evaluate_scores(scores: np.ndarray, manifest_rows, out_dir, classes) -> int:
    sub = DatasetManifest(tuple(manifest_rows))
    report = evaluate(scores, sub, classes=classes)
    text = render_report(report)
    print(text)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report_to_json(report))
        (out / "report.txt").write_text(text + "\n")
        write_scores(out / "scores.tsv", scores, report.classes)
        print(f"report -> {out / 'report.json'}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _effective_config(args)
    _print_repro("evaluate", cfg)
    graph = load_checkpoint(args.model)
    sidecar = _stats_sidecar(args.model)
    if not sidecar.exists():
        raise DataError(f"missing scale stats sidecar {sidecar}")
    stats = read_scale_stats(sidecar)

    manifest = read_manifest(args.manifest)
    base = Path(args.manifest).resolve().parent
    idx = _split_indices(manifest, "test")
    rows = [manifest.rows[i] for i in idx]
    tensors = _load_feature_rows(base, rows)

    t_model = graph.input_shape[0]
    xs = np.stack(
        [
            _crop_to_model(apply_scale01(t, stats).data, t_model, row.filename)
            for t, row in zip(tensors, rows)
        ]
    )
    scores = predict(graph, xs)

    classes = _classes_for(row.scene_label for row in rows)
    if len(classes) != scores.shape[1]:
        raise DataError(
            f"model emits {scores.shape[1]} classes but manifest labels need {len(classes)}"
        )
    return _evaluate_scores(scores, rows, args.out, classes)


def cmd_fuse(args) -> int:
    cfg = _effective_config(args)
    _print_repro("fuse", cfg)
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
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_scores(out, fused, hierarchy.classes)
    counts = np.bincount(preds, minlength=len(hierarchy.classes))
    top = hierarchy.classes[int(np.argmax(counts))]
    print(f"fused {len(fused)} rows; most predicted class: {top}")
    print(f"fused scores -> {out}")
    return 0


def cmd_ensemble(args) -> int:
    cfg = _effective_config(args)
    _print_repro("ensemble", cfg)
    if len(args.scores) < 2:
        raise DataError("ensemble needs at least two score files")
    matrices, classes = [], None
    for path in args.scores:
        scores, names = read_scores(path)
        if classes is None:
            classes = names
        else:
            scores = _reorder_columns(scores, names, classes, path)
        matrices.append(scores)
    averaged = average_ensemble(matrices)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_scores(out, averaged, classes)
    print(f"averaged {len(matrices)} members over {len(averaged)} rows")
    print(f"ensemble scores -> {out}")
    return 0


def cmd_quantize(args) -> int:
    cfg = _effective_config(args)
    _print_repro("quantize", cfg)
    graph = load_checkpoint(args.model)
    qm = quantize_model(graph)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    report = save_quantized(out, qm)
    float_bytes = Path(args.model).stat().st_size
    for section, size in dataclasses.asdict(report).items():
        print(f"{section.replace('_', ' ')}: {size}")
    print(f"total bytes: {report.total_bytes}")
    print(f"float checkpoint bytes: {float_bytes}")
    print(f"file size ratio: {report.total_bytes / float_bytes:.4f}")
    print(f"weight blob ratio: {weight_blob_ratio(qm):.4f}")
    print(f"quantized model -> {out}")
    return 0


def cmd_report(args) -> int:
    cfg = _effective_config(args)
    _print_repro("report", cfg)
    path = Path(args.scores)
    if path.suffix == ".json":
        try:
            text = path.read_text()
        except OSError as exc:
            raise DataError(f"cannot read report {path}: {exc}") from exc
        print(render_report(report_from_json(text)))
        return 0
    if args.manifest is None:
        raise ConfigError("report on a scores file needs --manifest")
    scores, names = read_scores(path)
    manifest = read_manifest(args.manifest)
    idx = _split_indices(manifest, "test")
    rows = [manifest.rows[i] for i in idx]
    if len(rows) != len(scores):
        raise DataError(
            f"{len(scores)} score rows but {len(rows)} evaluated manifest rows"
        )
    return _evaluate_scores(scores, rows, args.out, names)


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
    p.add_argument("model", help="checkpoint file")
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
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except AscError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
