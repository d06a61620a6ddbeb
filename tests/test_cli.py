"""End-to-end tests for the command line and run configuration."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ascpipe
from ascpipe import cli
from ascpipe.audio import AudioClip, save_wav
from ascpipe.cli import main, read_scores, write_scores
from ascpipe.config import _SCHEMA, MAX_WORKERS, RunConfig, config_hash, load_config
from ascpipe.errors import ConfigError, DataError
from ascpipe.featio import read_features, read_scale_stats, write_features
from ascpipe.features import FeatureTensor, apply_scale01, fit_scale01
from ascpipe.fusion import (
    SCENE_LABELS,
    SUPERCLASS_LABELS,
    ClassHierarchy,
    two_stage_fuse_batch,
)
from ascpipe.manifest import read_manifest
from ascpipe.nn import (
    LayerSpec,
    ModelGraph,
    blas,
    fold_batchnorm,
    forward,
    initialize,
    load_checkpoint,
    save_checkpoint,
)
from ascpipe.quant import load_quantized, quantized_forward

INI = """
[spectrogram]
n_fft = 512
win_length = 512
hop = 256
n_mels = 32

[model]
arch = small_fcnn
width_mult = 0.25

[schedule]
first_cycle_len = 50
lr_max = 0.02

[train]
epochs = 3
batch_size = 4

[run]
seed = 7
"""

INI_FAST = INI.replace("epochs = 3", "epochs = 1")


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def write_corpus(root, n=12, amp=0.4, seed=3):
    """n tiny WAVs cycling the three superclasses; returns the manifest path."""
    rng = np.random.default_rng(seed)
    (root / "audio").mkdir(parents=True, exist_ok=True)
    scenes = ("indoor", "outdoor", "transportation")
    devices = ("a", "b", "s1", "s5")
    lines = ["filename\tscene_label\tsource_label\tsplit"]
    for i in range(n):
        freq = 300.0 + 400.0 * (i % 3) + rng.uniform(-30, 30)
        t = np.arange(8000) / 8000.0
        x = amp * np.sin(2 * np.pi * freq * t) + rng.normal(0, 0.02, 8000)
        save_wav(root / "audio" / f"clip{i:02d}.wav", AudioClip(x, 8000))
        split = "train" if i < (3 * n) // 4 else "test"
        lines.append(
            f"audio/clip{i:02d}.wav\t{scenes[i % 3]}\t{devices[i % 4]}\t{split}"
        )
    manifest = root / "meta.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def _record_pools(monkeypatch):
    """Replace the CLI's ProcessPoolExecutor by a stand-in that records the
    size of every pool asked for and runs its jobs in this process, so
    no process is started whatever the size."""
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    return sizes


def dir_bytes(d):
    return {
        p.relative_to(d).as_posix(): p.read_bytes()
        for p in sorted(d.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    manifest = write_corpus(root / "wavs")
    ini = root / "run.ini"
    ini.write_text(INI)
    ini_fast = root / "run_fast.ini"
    ini_fast.write_text(INI_FAST)

    feats = root / "feats"
    assert run_cli("extract", "--manifest", manifest, "--out", feats,
                   "--config", ini) == 0
    model = root / "out" / "model.ascm"
    assert run_cli("train", "--manifest", feats / "features.tsv", "--out",
                   model, "--config", ini) == 0
    evald = root / "out" / "eval"
    assert run_cli("evaluate", model, "--manifest", feats / "features.tsv",
                   "--out", evald, "--config", ini) == 0
    return SimpleNamespace(
        root=root,
        manifest=manifest,
        ini=ini,
        ini_fast=ini_fast,
        feats=feats,
        model=model,
        evald=evald,
    )


# The numeric keys that load at 10**12, each with what then happens. Each
# was checked by running the command at that value on a four-clip corpus:
# every run but epochs' ended within a second, under 50 MB of peak RSS,
# and none started a process.
LOADS_AT_10_12 = {
    "hop": "one frame per clip: extract's deltas exit 3",
    "fmin": "above fmax: extract's mel filterbank exits 3",
    "fmax": "above Nyquist: extract's mel filterbank exits 3",
    "log_floor": "a constant inside the log: extract's scale stats are degenerate, exit 3",
    "noise_std": "scales a noise array of the clip's own shape",
    "width_mult": "zoo.build exits 2 at MAX_PARAMS before it allocates",
    "first_cycle_len": "a schedule length, in arithmetic only",
    "lr_max": "a step size, in arithmetic only",
    "cycle_mult": "a schedule factor, in arithmetic only",
    "epochs": "run time only: each epoch allocates what the one before it freed",
    "batch_size": "a batch holds at most the training set",
    "crop_len": "longer than every tensor: train exits 3 at the first batch",
    "mixup_alpha": "a Beta parameter, one draw per batch",
    "seed": "any non-negative int seeds numpy's generator",
}


class TestRunConfig:
    def test_no_file_gives_defaults(self):
        assert load_config(None) == RunConfig()

    def test_values_parsed(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[spectrogram]\nn_mels = 64\nfmax = none\ndownmix = yes\n"
            "[augment]\nspeed_range = 0.8, 1.2\n"
            "[model]\narch = fcnn\nwidth_mult = 0.5\n"
            "[schedule]\nfirst_cycle_len = 9\nmomentum = 0.8\n"
            "[train]\nepochs = 2\nmixup_alpha = 0.3\n"
            "[run]\nseed = 11\nworkers = 3\n"
            "[paths]\nhierarchy = h.txt\n"
        )
        cfg = load_config(path)
        assert cfg.spectro.n_mels == 64
        assert cfg.spectro.fmax is None
        assert cfg.spectro.downmix is True
        assert cfg.augment.speed_range == (0.8, 1.2)
        assert cfg.arch == "fcnn"
        assert cfg.width_mult == 0.5
        assert cfg.schedule.first_cycle_len == 9
        assert cfg.schedule.momentum == 0.8
        assert cfg.epochs == 2
        assert cfg.online.mixup_alpha == 0.3
        assert cfg.seed == 11
        assert cfg.workers == 3
        assert cfg.hierarchy_path == "h.txt"

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[turbo]\nboost = 1\n")
        with pytest.raises(ConfigError, match=r"unknown config section \[turbo\]"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[model]\narchitecture = fcnn\n")
        with pytest.raises(ConfigError, match="unknown key 'architecture'"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = lots\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.ini")

    def test_bad_arch_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[model]\narch = perceptron\n")
        with pytest.raises(ConfigError, match="unknown architecture"):
            load_config(path)

    def test_hash_stable_and_sensitive(self, tmp_path):
        a = tmp_path / "a.ini"
        a.write_text("[run]\nseed = 1\n")
        b = tmp_path / "b.ini"
        b.write_text("[run]\nseed = 2\n")
        assert config_hash(load_config(a)) == config_hash(load_config(a))
        assert config_hash(load_config(a)) != config_hash(load_config(b))

    def test_every_key_at_its_default_gives_defaults(self, tmp_path):
        def ini_text(value):
            if isinstance(value, bool):
                return "yes" if value else "no"
            if isinstance(value, tuple):
                return ", ".join(str(v) for v in value)
            return "none" if value is None else str(value)

        defaults = RunConfig()
        lines = []
        for section, keys in _SCHEMA.items():
            lines.append(f"[{section}]")
            for key, (attr, name) in keys.items():
                owner = getattr(defaults, attr) if attr else defaults
                lines.append(f"{key} = {ini_text(getattr(owner, name))}")
        path = tmp_path / "all.ini"
        path.write_text("\n".join(lines) + "\n")
        cfg = load_config(path)
        assert cfg == defaults
        assert config_hash(cfg) == config_hash(defaults)

    def test_every_field_has_a_key(self):
        defaults = RunConfig()
        fields = set()
        for f in dataclasses.fields(RunConfig):
            value = getattr(defaults, f.name)
            if dataclasses.is_dataclass(value):
                fields |= {(f.name, g.name) for g in dataclasses.fields(value)}
            else:
                fields.add(("", f.name))
        reachable = {target for keys in _SCHEMA.values() for target in keys.values()}
        assert reachable == fields

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("hop = 256", "hop = 0", "hop must be positive"),
            ("[run]", "[augment]\nspeed_range = 1.5, 0.5\n\n[run]", "speed_range"),
            ("batch_size = 4", "batch_size = 4\nmixup_alpha = -1", "mixup_alpha"),
            ("batch_size = 4", "batch_size = 4\ncrop_len = -3", "crop_len"),
            ("[run]", "[augment]\nrt60_range = 0.5, 0.1\n\n[run]", "rt60_range"),
            ("[run]", "[augment]\nrt60_range = -1, 0\n\n[run]", "rt60_range"),
            ("[run]", "[augment]\npitch_semitones = -5\n\n[run]", "pitch_semitones"),
            ("[run]", "[augment]\nnoise_std = nan\n\n[run]", "noise_std"),
            ("width_mult = 0.25", "width_mult = nan", "width_mult"),
            ("lr_max = 0.02", "lr_max = inf", "lr_max"),
            ("[run]", "[augment]\nrt60_range = 0.1, inf\n\n[run]", "rt60_range"),
            ("[run]", "[augment]\nrt60_range = 1e9, 1e9\n\n[run]", "rt60_range"),
            ("[run]", "[augment]\nrt60_range = 0.1, 10.5\n\n[run]", "rt60_range"),
            ("[run]", "[augment]\npitch_semitones = 300\n\n[run]", "pitch_semitones"),
            ("[run]", "[augment]\npitch_semitones = 24.5\n\n[run]", "pitch_semitones"),
            ("n_mels = 32", "n_mels = 32\nfmin = 3000\nfmax = 1000", "fmin"),
            ("n_mels = 32", "n_mels = 32\nlog_floor = nan", "log_floor"),
            ("seed = 7", "seed = -1", "seed"),
            ("n_fft = 512\nwin_length = 512", "n_fft = 0\nwin_length = 0", "n_fft"),
            ("win_length = 512", "win_length = -5", "win_length"),
            ("n_fft = 512\nwin_length = 512", "n_fft = 1000000000000\nwin_length = 1024", "n_fft"),
            ("n_fft = 512", "n_fft = 16385", "n_fft"),
            ("n_mels = 32", "n_mels = 1000000000", "n_mels"),
            ("n_mels = 32", "n_mels = 258", "n_mels"),
            ("n_mels = 32", "n_mels = 0", "n_mels"),
            # n_fft at most 16 hops, so 128 at the default n_fft of 2048
            ("n_fft = 512\nwin_length = 512\nhop = 256", "hop = 1", "hop must be at least n_fft / 16 = 128"),
            ("hop = 256", "hop = 31", "hop"),
            ("seed = 7", "seed = 7\nworkers = 65", "workers"),
        ],
    )
    def test_out_of_range_value_exits_2(self, ws, tmp_path, capsys, old, new, message):
        ini = tmp_path / "bad.ini"
        ini.write_text(INI_FAST.replace(old, new))
        code = run_cli("train", "--manifest", ws.feats / "features.tsv",
                       "--out", tmp_path / "m.ascm", "--config", ini)
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(ini) in err and message in err

    def test_every_numeric_key_at_10_12_is_rejected_or_known_to_be_safe(self, tmp_path):
        # only load_config runs, so nothing is allocated or started
        defaults = RunConfig()
        loaded = set()
        for section, keys in _SCHEMA.items():
            for key, (attr, name) in keys.items():
                default = getattr(getattr(defaults, attr) if attr else defaults, name)
                if isinstance(default, (bool, str)):
                    continue
                if isinstance(default, tuple):
                    raw = "1e12, 1e12"
                else:  # an int key does not parse "1e12"; fmax's default is None
                    raw = str(10**12) if isinstance(default, int) else "1e12"
                path = tmp_path / f"{key}.ini"
                path.write_text(f"[{section}]\n{key} = {raw}\n")
                try:
                    load_config(path)
                except ConfigError:
                    continue
                loaded.add(key)
        assert loaded == set(LOADS_AT_10_12)

    def test_a_width_past_the_parameter_cap_exits_2(self, ws, tmp_path, capsys):
        # the cap is checked before any parameter is allocated: at width 1e6
        # small_fcnn's conv1 alone would take gigabytes
        ini = tmp_path / "wide.ini"
        ini.write_text(INI_FAST.replace("width_mult = 0.25", "width_mult = 1e6"))
        code = run_cli("train", "--manifest", ws.feats / "features.tsv",
                       "--out", tmp_path / "m.ascm", "--config", ini)
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error: small_fcnn at width_mult 1e+06" in err
        assert "its largest layer 'conv9'" in err
        assert not (tmp_path / "m.ascm").exists()


# each command's arguments, reading its inputs from the workspace ``d``
COMMAND_ARGS = {
    "extract": lambda d, tmp: ["--manifest", d.manifest, "--out", tmp / "o"],
    "augment": lambda d, tmp: ["--manifest", d.manifest, "--out", tmp / "o"],
    "train": lambda d, tmp: ["--manifest", d.feats / "features.tsv", "--out", tmp / "m.ascm"],
    "evaluate": lambda d, tmp: [d.model, "--manifest", d.feats / "features.tsv"],
    "fuse": lambda d, tmp: [d.evald / "scores.tsv", tmp / "fine.tsv", "--out", tmp / "f.tsv"],
    "ensemble": lambda d, tmp: [d.evald / "scores.tsv", d.evald / "scores.tsv", "--out", tmp / "e.tsv"],
    "quantize": lambda d, tmp: [d.model, "--out", tmp / "q.ascq"],
    "report": lambda d, tmp: [d.evald / "report.json"],
}


def _blas_line(threads) -> str:
    dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"blas: {dep['name']} {dep['version']}, threads: {'unknown' if threads is None else threads}"


@pytest.mark.parametrize("missing_input", [False, True], ids=["ok", "missing-input"])
@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_every_command_prints_the_reproducibility_block(
    ws, tmp_path, capsys, command, missing_input
):
    write_scores(tmp_path / "fine.tsv", np.full((3, 10), 0.1), SCENE_LABELS)
    absent = tmp_path / "absent"
    d = SimpleNamespace(manifest=absent / "meta.tsv", feats=absent, model=absent / "m.ascm",
                        evald=absent) if missing_input else ws
    code = run_cli(command, *COMMAND_ARGS[command](d, tmp_path), "--config", ws.ini_fast)
    assert code == (3 if missing_input else 0)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"command: {command}"
    assert lines[1].startswith("config hash: ")
    assert lines[2] == "seed: 7"
    assert lines[3].startswith("versions: ascpipe ")
    assert lines[4] == _blas_line(blas.threads())


def test_the_reproducibility_block_reads_the_blas_thread_count(ws, capsys, monkeypatch):
    # a thread variable set after numpy has loaded OpenBLAS changes nothing,
    # so the line reads OpenBLAS's own count, not the variable
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "16")
    found = blas.threads()

    def line():
        assert run_cli("report", ws.evald / "report.json") == 0
        return capsys.readouterr().out.splitlines()[4]

    assert line() == _blas_line(found)
    with blas.one_thread():
        assert line() == _blas_line(None if found is None else 1)
    monkeypatch.setattr(blas, "_threads", ())  # no OpenBLAS found
    assert line() == _blas_line(None)


def test_the_module_runs_as_a_process(tmp_path):
    # `python3 -m ascpipe.cli`, as the README runs it, exits with main's code
    env = {**os.environ, "PYTHONPATH": str(Path(ascpipe.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "ascpipe.cli", "report", str(tmp_path / "absent.json")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("data error: ")
    lines = proc.stdout.splitlines()
    assert lines[0] == "command: report"
    assert lines[4].startswith("blas: ")


class TestScoreFiles:
    def test_round_trip_exact(self, tmp_path, rng):
        scores = rng.random((7, 10))
        path = tmp_path / "scores.tsv"
        write_scores(path, scores, SCENE_LABELS)
        loaded, classes = read_scores(path)
        assert classes == SCENE_LABELS
        assert np.array_equal(loaded, scores)

    def test_float32_values_round_trip(self, tmp_path, rng):
        scores = rng.random((4, 3)).astype(np.float32)
        path = tmp_path / "scores.tsv"
        write_scores(path, scores, SUPERCLASS_LABELS)
        loaded, _ = read_scores(path)
        assert np.array_equal(loaded, scores.astype(np.float64))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("a\tb\n0.5\n")
        with pytest.raises(DataError, match="fields"):
            read_scores(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("a\tb\n0.5\thigh\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_scores(path)

    def test_errors_name_the_line_of_the_file(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("a\tb\n\n0.5\t0.5\n\n0.5\thigh\n")
        with pytest.raises(DataError, match=r"scores\.tsv:5: non-numeric"):
            read_scores(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("a\tb\n")
        with pytest.raises(DataError, match="at least one row"):
            read_scores(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot read scores"):
            read_scores(tmp_path / "absent.tsv")

    def test_empty_class_rejected(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("bus\t\ttram\n0.2\t0.3\t0.5\n")
        with pytest.raises(DataError, match=r"scores\.tsv: empty class name"):
            read_scores(path)

    def test_repeated_class_rejected(self, tmp_path):
        # a column looked up by name would read the first of the two
        path = tmp_path / "scores.tsv"
        path.write_text("airport\tairport\tbus\n0.2\t0.3\t0.5\n")
        with pytest.raises(DataError, match=r"scores\.tsv: class 'airport' appears twice"):
            read_scores(path)


class TestExtract:
    def test_outputs_present(self, ws):
        rows = read_manifest(ws.feats / "features.tsv").rows
        assert len(rows) == 12
        assert all(r.filename.endswith(".ascf") for r in rows)
        feats = read_features(ws.feats / rows[0].filename)
        # 8000 samples, hop 256 -> 32 frames; delta trimming removes 8
        assert feats.shape == (24, 32, 3)
        assert (ws.feats / "scale_stats.txt").exists()

    def test_reproducibility_block_printed(self, ws, tmp_path, capsys):
        out = tmp_path / "feats"
        assert run_cli("extract", "--manifest", ws.manifest, "--out", out,
                       "--config", ws.ini, "--seed", 42) == 0
        text = capsys.readouterr().out
        assert "command: extract" in text
        assert "config hash: " in text
        assert "seed: 42" in text
        assert "versions: ascpipe" in text
        assert "numpy" in text

    def test_stats_fitted_on_train_rows_only(self, ws, tmp_path):
        # the lone test row is much louder, so its features would move the
        # envelope if it leaked into the fit
        corpus = tmp_path / "wavs"
        (corpus / "audio").mkdir(parents=True)
        rng = np.random.default_rng(5)
        lines = ["filename\tscene_label\tsource_label\tsplit"]
        for i, (amp, split) in enumerate(
            [(0.1, "train"), (0.1, "train"), (0.1, "train"), (0.9, "test")]
        ):
            t = np.arange(8000) / 8000.0
            x = amp * np.sin(2 * np.pi * (400.0 + 60 * i) * t)
            x += rng.normal(0, 0.01, 8000)
            save_wav(corpus / "audio" / f"c{i}.wav", AudioClip(x, 8000))
            lines.append(f"audio/c{i}.wav\tindoor\ta\t{split}")
        (corpus / "meta.tsv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "feats"
        assert run_cli("extract", "--manifest", corpus / "meta.tsv",
                       "--out", out, "--config", ws.ini) == 0

        stats = read_scale_stats(out / "scale_stats.txt")
        manifest = read_manifest(out / "features.tsv")
        train = [
            read_features(out / row.filename)
            for row in manifest.rows
            if row.split == "train"
        ]
        expected = fit_scale01(train)
        assert np.array_equal(stats.mins, expected.mins)
        assert np.array_equal(stats.maxs, expected.maxs)
        everything = fit_scale01(
            [read_features(out / row.filename) for row in manifest.rows]
        )
        assert not (
            np.array_equal(stats.mins, everything.mins)
            and np.array_equal(stats.maxs, everything.maxs)
        )

    def test_deterministic_across_reruns_and_workers(self, ws, tmp_path):
        outs = []
        for name, workers in (("one", 1), ("two", 2), ("rerun", 1)):
            out = tmp_path / name
            assert run_cli("extract", "--manifest", ws.manifest, "--out", out,
                           "--config", ws.ini, "--workers", workers) == 0
            outs.append(dir_bytes(out))
        assert outs[0] == outs[1]
        assert outs[0] == outs[2]

    def test_a_worker_count_past_the_cap_exits_2_before_any_pool(self, tmp_path, capsys, monkeypatch):
        pools = _record_pools(monkeypatch)
        manifest = write_corpus(tmp_path / "wavs", n=2)
        code = run_cli("extract", "--manifest", manifest, "--out", tmp_path / "f",
                       "--workers", 100000)
        assert code == 2 and pools == []
        assert f"workers must lie within [1, {MAX_WORKERS}]" in capsys.readouterr().err
        assert RunConfig(workers=MAX_WORKERS).workers == MAX_WORKERS

    def test_a_pool_has_at_most_one_process_per_row(self, tmp_path, monkeypatch):
        pools = _record_pools(monkeypatch)
        manifest = write_corpus(tmp_path / "wavs", n=2)
        ini = tmp_path / "run.ini"
        ini.write_text(INI)
        outs = []
        for workers in (1, 8):
            out = tmp_path / f"w{workers}"
            assert run_cli("extract", "--manifest", manifest, "--out", out,
                           "--config", ini, "--workers", workers) == 0
            outs.append(dir_bytes(out))
        assert pools == [2]
        assert outs[0] == outs[1]

    def test_empty_manifest_fails(self, tmp_path, capsys):
        manifest = tmp_path / "meta.tsv"
        manifest.write_text("filename\tscene_label\tsource_label\n")
        code = run_cli("extract", "--manifest", manifest, "--out", tmp_path / "o")
        assert code == 3
        assert "empty manifest" in capsys.readouterr().err

    def test_repeated_manifest_column_fails(self, tmp_path, capsys):
        # read by its first scene_label column, the row would be a park
        manifest = tmp_path / "meta.tsv"
        manifest.write_text(
            "filename\tscene_label\tsource_label\tscene_label\n"
            "a.wav\tpark\ta\tbus\n"
        )
        code = run_cli("extract", "--manifest", manifest, "--out", tmp_path / "o")
        assert code == 3
        assert "manifest header repeats columns ['scene_label']" in capsys.readouterr().err

    def test_missing_wav_collected_and_reported(self, tmp_path, capsys):
        manifest = tmp_path / "meta.tsv"
        manifest.write_text(
            "filename\tscene_label\tsource_label\n"
            "gone.wav\tbus\ta\n"
            "also_gone.wav\ttram\tb\n"
        )
        code = run_cli("extract", "--manifest", manifest, "--out", tmp_path / "o")
        assert code == 3
        err = capsys.readouterr().err
        assert "row 0 (gone.wav)" in err
        assert "2 of 2 files failed" in err

    def test_duplicate_feature_target_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "meta.tsv"
        manifest.write_text(
            "filename\tscene_label\tsource_label\n"
            "x.wav\tbus\ta\n"
            "x.wav\ttram\tb\n"
        )
        code = run_cli("extract", "--manifest", manifest, "--out", tmp_path / "o")
        assert code == 3
        assert "both map to feature file" in capsys.readouterr().err


class TestAugment:
    def test_corpus_written_with_provenance(self, ws, tmp_path):
        out = tmp_path / "aug"
        assert run_cli("augment", "--manifest", ws.manifest, "--out", out,
                       "--config", ws.ini) == 0
        manifest = read_manifest(out / "augmented.tsv")
        assert len(manifest) == 12
        header = (out / "augmented.tsv").read_text().splitlines()[0].split("\t")
        assert header == [
            "filename",
            "scene_label",
            "source_label",
            "source_file",
            "augmentation",
            "parameters",
        ]
        ops = {
            line.split("\t")[4]
            for line in (out / "augmented.tsv").read_text().splitlines()[1:]
        }
        assert ops <= {"pitch_shift", "speed_change", "add_noise", "reverb_drc"}
        assert len(ops) > 1
        feats = read_features(out / manifest.rows[0].filename)
        assert feats.shape == (24, 32, 3)

    def test_deterministic_across_workers(self, ws, tmp_path):
        outs = []
        for name, workers in (("one", 1), ("two", 2)):
            out = tmp_path / name
            assert run_cli("augment", "--manifest", ws.manifest, "--out", out,
                           "--config", ws.ini, "--workers", workers) == 0
            outs.append(dir_bytes(out))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("ratio", ["1e-300", "5e-324"])
    def test_a_tiny_speed_ratio_runs(self, ws, tmp_path, ratio):
        # only the kept samples are resampled, so n / ratio, which is huge
        # or infinite here, is never computed
        ini = tmp_path / "slow.ini"
        ini.write_text(INI.replace("[run]", f"[augment]\nspeed_range = {ratio}, {ratio}\n\n[run]"))
        out = tmp_path / "aug"
        assert run_cli("augment", "--manifest", ws.manifest, "--out", out, "--config", ini) == 0
        rows = (out / "augmented.tsv").read_text().splitlines()[1:]
        assert any(row.split("\t")[4] == "speed_change" for row in rows)

    def test_seed_changes_parameters(self, ws, tmp_path):
        texts = []
        for seed in (7, 8):
            out = tmp_path / f"seed{seed}"
            assert run_cli("augment", "--manifest", ws.manifest, "--out", out,
                           "--config", ws.ini, "--seed", seed) == 0
            texts.append((out / "augmented.tsv").read_text())
        assert texts[0] != texts[1]


def _scores_at_blas_threads(model, ws, tmp_path):
    """The scores.tsv bytes of `evaluate` in a fresh process at
    OPENBLAS_NUM_THREADS 1 and 2."""
    src = str(Path(ascpipe.__file__).parents[1])
    scores = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        argv = ["evaluate", str(model), "--manifest", str(ws.feats / "features.tsv"), "--out", str(out)]
        code = f"from ascpipe.cli import main; raise SystemExit(main({argv!r}))"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)
        scores.append((out / "scores.tsv").read_bytes())
    return scores


class TestTrainEvaluate:
    def test_artifacts_written(self, ws):
        assert ws.model.exists()
        assert ws.model.with_suffix(".stats.txt").exists()
        assert (ws.evald / "report.json").exists()
        assert (ws.evald / "report.txt").exists()
        scores, classes = read_scores(ws.evald / "scores.tsv")
        assert classes == SUPERCLASS_LABELS
        assert scores.shape == (3, 3)  # the three test-tagged rows
        assert "A acc. %" in (ws.evald / "report.txt").read_text()

    def test_train_is_deterministic_given_seed(self, ws, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.ascm"
            assert run_cli("train", "--manifest", ws.feats / "features.tsv",
                           "--out", out, "--config", ws.ini_fast) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_changes_checkpoint(self, ws, tmp_path):
        blobs = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}.ascm"
            assert run_cli("train", "--manifest", ws.feats / "features.tsv",
                           "--out", out, "--config", ws.ini_fast,
                           "--seed", seed) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] != blobs[1]

    def test_arch_and_width_flags_override(self, ws, tmp_path, capsys):
        out = tmp_path / "fcnn.ascm"
        assert run_cli("train", "--manifest", ws.feats / "features.tsv",
                       "--out", out, "--config", ws.ini_fast,
                       "--arch", "fcnn", "--width", 0.125) == 0
        assert "trained fcnn (width 0.125" in capsys.readouterr().out

    def test_float_scores_do_not_depend_on_the_blas_thread_count(self, ws, tmp_path):
        # each item is scored on one BLAS thread, however many items run at once
        scores = _scores_at_blas_threads(ws.model, ws, tmp_path)
        assert scores[0] == scores[1]

    def test_evaluate_is_deterministic(self, ws, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("evaluate", ws.model, "--manifest",
                           ws.feats / "features.tsv", "--out", out) == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0] == (ws.evald / "report.json").read_bytes()

    def test_crop_trained_model_evaluates_full_length(self, ws, tmp_path):
        ini = tmp_path / "crop.ini"
        ini.write_text(
            INI_FAST.replace("batch_size = 4", "batch_size = 4\ncrop_len = 16")
        )
        out = tmp_path / "crop.ascm"
        assert run_cli("train", "--manifest", ws.feats / "features.tsv",
                       "--out", out, "--config", ini) == 0
        assert run_cli("evaluate", out, "--manifest",
                       ws.feats / "features.tsv",
                       "--out", tmp_path / "eval") == 0

    def test_evaluate_missing_stats_sidecar(self, ws, tmp_path, capsys):
        orphan = tmp_path / "orphan.ascm"
        orphan.write_bytes(ws.model.read_bytes())
        code = run_cli("evaluate", orphan, "--manifest",
                       ws.feats / "features.tsv")
        assert code == 3
        assert "stats sidecar" in capsys.readouterr().err

    def test_non_finite_stats_sidecar_names_its_line(self, ws, tmp_path, capsys):
        model = tmp_path / "nan.ascm"
        model.write_bytes(ws.model.read_bytes())
        lines = ws.model.with_suffix(".stats.txt").read_text().splitlines()
        sidecar = model.with_suffix(".stats.txt")
        sidecar.write_text("\n".join(["0 nan 1.0"] + lines[1:]) + "\n")
        code = run_cli("evaluate", model, "--manifest", ws.feats / "features.tsv")
        assert code == 3
        assert f"{sidecar}:1: non-finite" in capsys.readouterr().err

    def test_evaluate_without_test_rows(self, ws, tmp_path, capsys):
        manifest = tmp_path / "train_only.tsv"
        lines = (ws.feats / "features.tsv").read_text().splitlines()
        kept = [lines[0]] + [ln for ln in lines[1:] if ln.endswith("\ttrain")]
        manifest.write_text("\n".join(kept) + "\n")
        code = run_cli("evaluate", ws.model, "--manifest", manifest)
        assert code == 3
        assert "no rows tagged test" in capsys.readouterr().err

    def test_train_without_train_rows(self, ws, tmp_path, capsys):
        manifest = tmp_path / "test_only.tsv"
        lines = (ws.feats / "features.tsv").read_text().splitlines()
        kept = [lines[0]] + [ln for ln in lines[1:] if ln.endswith("\ttest")]
        manifest.write_text("\n".join(kept) + "\n")
        code = run_cli("train", "--manifest", manifest,
                       "--out", tmp_path / "m.ascm", "--config", ws.ini_fast)
        assert code == 3
        assert "no rows tagged train" in capsys.readouterr().err

    def test_train_rows_with_two_frame_counts_exit_3(self, ws, tmp_path, capsys):
        rows = [ln.split("\t") for ln in (ws.feats / "features.tsv").read_text().splitlines()]
        for row in rows[1:]:
            row[0] = str(ws.feats / row[0])
        first = next(i for i, row in enumerate(rows) if row[-1] == "train")
        t, f, c = read_features(rows[first][0]).shape
        longer = tmp_path / "longer.ascf"
        write_features(longer, FeatureTensor(np.zeros((t + 1, f, c))))
        rows[first][0] = str(longer)
        manifest = tmp_path / "two_lengths.tsv"
        manifest.write_text("\n".join("\t".join(row) for row in rows) + "\n")
        code = run_cli("train", "--manifest", manifest,
                       "--out", tmp_path / "m.ascm", "--config", ws.ini_fast)
        assert code == 3
        assert "training features must share one shape" in capsys.readouterr().err

    def test_train_holds_the_scaled_set_in_one_array(self, tmp_path):
        # the raw items as read, plus one float32 array their scaled rows
        # go into: 2 sets and a few items' temporaries. Stacking a list of
        # scaled copies would hold 3 sets
        n, shape = 24, (400, 64, 3)
        rng = np.random.default_rng(0)
        lines = ["filename\tscene_label\tsource_label\tsplit"]
        for i in range(n):
            write_features(tmp_path / f"f{i}.ascf", FeatureTensor(rng.standard_normal(shape)))
            scene = ("indoor", "outdoor", "transportation")[i % 3]
            lines.append(f"f{i}.ascf\t{scene}\ta\ttrain")
        (tmp_path / "features.tsv").write_text("\n".join(lines) + "\n")
        ini = tmp_path / "run.ini"
        ini.write_text(INI_FAST.replace("epochs = 1", "epochs = 0"))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert run_cli("train", "--manifest", tmp_path / "features.tsv",
                           "--out", tmp_path / "m.ascm", "--config", ini) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * n * np.prod(shape) * 4

    @pytest.mark.parametrize("suffix", [".ascm", ".ascq"])
    def test_class_count_is_checked_before_any_feature_is_read(
        self, ws, tmp_path, capsys, monkeypatch, suffix
    ):
        model = ws.model
        if suffix == ".ascq":
            model = tmp_path / "model.ascq"
            assert run_cli("quantize", ws.model, "--out", model) == 0
        # the 3-class model against one test row per scene label
        row = next(r for r in read_manifest(ws.feats / "features.tsv").rows if r.split == "test")
        lines = ["filename\tscene_label\tsource_label\tsplit"] + [
            f"{ws.feats / row.filename}\t{label}\t{row.source_label}\ttest"
            for label in SCENE_LABELS
        ]
        manifest = tmp_path / "ten_labels.tsv"
        manifest.write_text("\n".join(lines) + "\n")
        read = []
        monkeypatch.setattr(cli, "read_features", read.append)
        code = run_cli("evaluate", model, "--manifest", manifest)
        assert code == 3
        assert "model emits 3 classes but manifest labels need 10" in capsys.readouterr().err
        assert read == []

    def test_stereo_swap_on_mono_features_is_a_data_error(self, ws, tmp_path, capsys):
        ini = tmp_path / "swap.ini"
        ini.write_text(
            INI_FAST.replace("batch_size = 4", "batch_size = 4\nswap_stereo_blocks = yes")
        )
        code = run_cli("train", "--manifest", ws.feats / "features.tsv",
                       "--out", tmp_path / "m.ascm", "--config", ini)
        assert code == 3
        assert "6-channel" in capsys.readouterr().err

    def test_evaluate_names_a_last_row_with_other_mel_dims(self, ws, tmp_path, capsys):
        lines = (ws.feats / "features.tsv").read_text().splitlines()
        # absolute feature paths, so the manifest can live in tmp_path
        rows = [ln.split("\t") for ln in lines]
        for row in rows[1:]:
            row[0] = str(ws.feats / row[0])
        last = max(i for i, row in enumerate(rows) if row[-1] == "test")
        assert last == len(rows) - 1
        t, f, c = read_features(rows[last][0]).shape
        odd = tmp_path / "odd.ascf"
        write_features(odd, FeatureTensor(np.zeros((t, f + 1, c))))
        rows[last][0] = str(odd)
        manifest = tmp_path / "odd_last.tsv"
        manifest.write_text("\n".join("\t".join(row) for row in rows) + "\n")
        code = run_cli("evaluate", ws.model, "--manifest", manifest)
        err = capsys.readouterr().err
        assert code == 3
        assert f"{odd}: feature mel/channel dims" in err
        assert "Traceback" not in err

    def test_evaluate_of_a_batchnorm_that_cannot_fold_exits_3(self, ws, tmp_path, capsys):
        # float evaluate scores the folded graph: a batchnorm after a relu
        # has no weight to fold into
        layers = [
            LayerSpec("conv2d", "conv1", ("input",), {"filters": 4}),
            LayerSpec("relu", "relu1", ("conv1",)),
            LayerSpec("batchnorm", "bn1", ("relu1",)),
            LayerSpec("global_avg_pool", "gap", ("bn1",)),
            LayerSpec("dense", "fc", ("gap",), {"units": 3}),
            LayerSpec("softmax", "probs", ("fc",)),
        ]
        shape = load_checkpoint(ws.model).input_shape
        model = tmp_path / "bn_after_relu.ascm"
        save_checkpoint(model, initialize(ModelGraph("bn_after_relu", shape, layers)))
        model.with_suffix(".stats.txt").write_bytes(ws.model.with_suffix(".stats.txt").read_bytes())
        out = tmp_path / "eval"
        code = run_cli("evaluate", model, "--manifest", ws.feats / "features.tsv", "--out", out)
        err = capsys.readouterr().err
        assert code == 3
        assert "batchnorm 'bn1' does not follow a foldable layer" in err
        assert "Traceback" not in err
        assert not (out / "scores.tsv").exists()


    @pytest.mark.parametrize("arch", ["resnet", "fsfcnn_s"])
    def test_odd_mel_bins_for_a_band_split_arch_exit_3(self, ws, tmp_path, capsys, arch):
        ini = tmp_path / "odd.ini"
        ini.write_text(INI_FAST.replace("n_mels = 32", "n_mels = 31"))
        feats = tmp_path / "feats"
        assert run_cli("extract", "--manifest", ws.manifest, "--out", feats,
                       "--config", ini) == 0
        code = run_cli("train", "--manifest", feats / "features.tsv",
                       "--out", tmp_path / "m.ascm", "--config", ini, "--arch", arch)
        assert code == 3
        assert "layer 'band_lo': cannot halve odd frequency extent 31" in capsys.readouterr().err

# nine scene classes plus one the default hierarchy does not know, in an
# order that is neither SCENE_LABELS nor sorted
BEACH_CLASSES = ("beach",) + SCENE_LABELS[:9]


class TestCustomLabels:
    def write_manifest(self, ws, tmp_path, classes=BEACH_CLASSES):
        """The workspace features relabelled: one train row per class and
        three test rows of the second to fourth class."""
        rows = read_manifest(ws.feats / "features.tsv").rows
        n = len(classes)
        tagged = [(row, label, "train") for row, label in zip(rows[:n], classes)]
        tagged += [(row, label, "test") for row, label in zip(rows[n - 1:], classes[1:4])]
        lines = ["filename\tscene_label\tsource_label\tsplit"] + [
            f"{ws.feats / row.filename}\t{label}\t{row.source_label}\t{split}"
            for row, label, split in tagged
        ]
        manifest = tmp_path / "custom.tsv"
        manifest.write_text("\n".join(lines) + "\n")
        return manifest

    def scores_header(self, ws, tmp_path, classes):
        """Train and evaluate under a hierarchy of ``classes`` (default
        parents, unknown classes outdoor); the class header of scores.tsv."""
        manifest = self.write_manifest(ws, tmp_path, classes)
        parent = ClassHierarchy.default().parent
        hier = tmp_path / "hier.txt"
        hier.write_text("".join(f"{c} {parent.get(c, 'outdoor')}\n" for c in classes))
        ini = tmp_path / "run.ini"
        ini.write_text(INI_FAST + f"\n[paths]\nhierarchy = {hier}\n")
        model = tmp_path / "m.ascm"
        assert run_cli("train", "--manifest", manifest, "--out", model, "--config", ini) == 0
        assert run_cli("evaluate", model, "--manifest", manifest, "--out", tmp_path / "eval",
                       "--config", ini) == 0
        return read_scores(tmp_path / "eval" / "scores.tsv")[1]

    def test_train_and_evaluate_use_the_hierarchy_order(self, ws, tmp_path):
        assert self.scores_header(ws, tmp_path, BEACH_CLASSES) == BEACH_CLASSES

    def test_four_class_hierarchy_trains_and_evaluates(self, ws, tmp_path):
        classes = ("airport", "park", "bus", "tram")  # under three superclasses
        assert self.scores_header(ws, tmp_path, classes) == classes

    def test_a_class_that_is_also_a_superclass_exits_3(self, ws, tmp_path, capsys):
        # a manifest labelled by superclass must not train as scene classes
        manifest = self.write_manifest(ws, tmp_path, ("indoor",) * 4)
        hier = tmp_path / "hier.txt"
        hier.write_text("airport indoor\nindoor outdoor\n")
        ini = tmp_path / "run.ini"
        ini.write_text(INI_FAST + f"\n[paths]\nhierarchy = {hier}\n")
        code = run_cli("train", "--manifest", manifest, "--out", tmp_path / "m.ascm",
                       "--config", ini)
        assert code == 3
        err = capsys.readouterr().err
        assert "hierarchy names ['indoor'] both as classes and as superclasses" in err
        assert not (tmp_path / "m.ascm").exists()

    def test_custom_labels_without_hierarchy_exit_3(self, ws, tmp_path, capsys):
        manifest = self.write_manifest(ws, tmp_path)
        code = run_cli("train", "--manifest", manifest, "--out", tmp_path / "m.ascm",
                       "--config", ws.ini_fast)
        assert code == 3
        assert "['beach']" in capsys.readouterr().err


class TestFuse:
    def write_pair(self, tmp_path, rng, n=6):
        coarse = rng.dirichlet(np.ones(3), size=n)
        fine = rng.dirichlet(np.ones(10), size=n)
        write_scores(tmp_path / "coarse.tsv", coarse, SUPERCLASS_LABELS)
        write_scores(tmp_path / "fine.tsv", fine, SCENE_LABELS)
        return coarse, fine

    def test_matches_library_fusion(self, tmp_path, rng):
        coarse, fine = self.write_pair(tmp_path, rng)
        out = tmp_path / "fused.tsv"
        assert run_cli("fuse", tmp_path / "coarse.tsv", tmp_path / "fine.tsv",
                       "--out", out) == 0
        fused, classes = read_scores(out)
        expected, _ = two_stage_fuse_batch(coarse, fine, ClassHierarchy.default())
        assert classes == SCENE_LABELS
        assert np.allclose(fused, expected, atol=0, rtol=1e-15)

    def test_permuted_columns_are_reordered(self, tmp_path, rng):
        coarse, fine = self.write_pair(tmp_path, rng)
        perm = rng.permutation(10)
        shuffled = tmp_path / "fine_shuffled.tsv"
        write_scores(shuffled, fine[:, perm],
                     tuple(SCENE_LABELS[i] for i in perm))
        out = tmp_path / "fused.tsv"
        assert run_cli("fuse", tmp_path / "coarse.tsv", shuffled,
                       "--out", out) == 0
        fused, _ = read_scores(out)
        expected, _ = two_stage_fuse_batch(coarse, fine, ClassHierarchy.default())
        assert np.allclose(fused, expected, atol=0, rtol=1e-15)

    def test_custom_hierarchy_from_config(self, tmp_path, rng):
        hier = tmp_path / "hier.txt"
        hier.write_text("calm quiet\nbusy loud\nsiren loud\n")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[paths]\nhierarchy = {hier}\n")
        coarse = rng.dirichlet(np.ones(2), size=4)
        fine = rng.dirichlet(np.ones(3), size=4)
        write_scores(tmp_path / "coarse.tsv", coarse, ("quiet", "loud"))
        write_scores(tmp_path / "fine.tsv", fine, ("calm", "busy", "siren"))
        out = tmp_path / "fused.tsv"
        assert run_cli("fuse", tmp_path / "coarse.tsv", tmp_path / "fine.tsv",
                       "--out", out, "--config", ini) == 0
        fused, classes = read_scores(out)
        h = ClassHierarchy.from_file(hier)
        expected, _ = two_stage_fuse_batch(coarse, fine, h)
        assert classes == ("calm", "busy", "siren")
        assert np.allclose(fused, expected, atol=0, rtol=1e-15)

    def test_row_count_mismatch(self, tmp_path, rng, capsys):
        coarse = rng.dirichlet(np.ones(3), size=4)
        fine = rng.dirichlet(np.ones(10), size=5)
        write_scores(tmp_path / "coarse.tsv", coarse, SUPERCLASS_LABELS)
        write_scores(tmp_path / "fine.tsv", fine, SCENE_LABELS)
        code = run_cli("fuse", tmp_path / "coarse.tsv", tmp_path / "fine.tsv",
                       "--out", tmp_path / "fused.tsv")
        assert code == 3
        assert "row count mismatch" in capsys.readouterr().err

    def test_wrong_class_set(self, tmp_path, rng, capsys):
        coarse = rng.dirichlet(np.ones(3), size=4)
        write_scores(tmp_path / "coarse.tsv", coarse, ("x", "y", "z"))
        write_scores(tmp_path / "fine.tsv", rng.dirichlet(np.ones(10), size=4),
                     SCENE_LABELS)
        code = run_cli("fuse", tmp_path / "coarse.tsv", tmp_path / "fine.tsv",
                       "--out", tmp_path / "fused.tsv")
        assert code == 3
        assert "do not match expected classes" in capsys.readouterr().err


class TestEnsemble:
    def test_average_of_members(self, tmp_path, rng):
        a = rng.dirichlet(np.ones(10), size=5)
        b = rng.dirichlet(np.ones(10), size=5)
        write_scores(tmp_path / "a.tsv", a, SCENE_LABELS)
        write_scores(tmp_path / "b.tsv", b, SCENE_LABELS)
        out = tmp_path / "avg.tsv"
        assert run_cli("ensemble", tmp_path / "a.tsv", tmp_path / "b.tsv",
                       "--out", out) == 0
        averaged, classes = read_scores(out)
        assert classes == SCENE_LABELS
        assert np.allclose(averaged, (a + b) / 2, atol=0, rtol=1e-15)

    def test_single_member_rejected(self, tmp_path, rng, capsys):
        a = rng.dirichlet(np.ones(10), size=5)
        write_scores(tmp_path / "a.tsv", a, SCENE_LABELS)
        code = run_cli("ensemble", tmp_path / "a.tsv", "--out", tmp_path / "o.tsv")
        assert code == 3
        assert "at least two" in capsys.readouterr().err

    def test_permuted_member_columns_reordered(self, tmp_path, rng):
        a = rng.dirichlet(np.ones(3), size=4)
        b = rng.dirichlet(np.ones(3), size=4)
        write_scores(tmp_path / "a.tsv", a, SUPERCLASS_LABELS)
        perm = (2, 0, 1)
        write_scores(tmp_path / "b.tsv", b[:, perm],
                     tuple(SUPERCLASS_LABELS[i] for i in perm))
        out = tmp_path / "avg.tsv"
        assert run_cli("ensemble", tmp_path / "a.tsv", tmp_path / "b.tsv",
                       "--out", out) == 0
        averaged, _ = read_scores(out)
        assert np.allclose(averaged, (a + b) / 2, atol=0, rtol=1e-15)


class TestQuantize:
    def test_quantize_prints_sizes_and_ratio(self, ws, tmp_path, capsys):
        out = tmp_path / "model.ascq"
        assert run_cli("quantize", ws.model, "--out", out) == 0
        text = capsys.readouterr().out
        assert "total bytes:" in text
        blob_line = next(
            ln for ln in text.splitlines() if ln.startswith("weight blob ratio:")
        )
        assert 0.24 <= float(blob_line.split(":")[1]) <= 0.26
        file_line = next(
            ln for ln in text.splitlines() if ln.startswith("file size ratio:")
        )
        assert float(file_line.split(":")[1]) <= 0.30
        qm = load_quantized(out)
        assert qm.weights

    def test_prints_the_task_1b_size_and_copies_the_sidecar(self, ws, tmp_path, capsys):
        out = tmp_path / "q" / "model.ascq"
        assert run_cli("quantize", ws.model, "--out", out) == 0
        lines = capsys.readouterr().out.splitlines()
        size = out.stat().st_size
        assert f"task 1b size: {size / 1024:.1f} KB against the paper's 500 KB limit (1 KB = 1024 bytes)" in lines
        assert (
            out.with_suffix(".stats.txt").read_bytes()
            == ws.model.with_suffix(".stats.txt").read_bytes()
        )

    def test_int8_scores_do_not_depend_on_the_blas_thread_count(self, ws, tmp_path):
        # integer sums are exact in any order, however BLAS splits them
        model = tmp_path / "model.ascq"
        assert run_cli("quantize", ws.model, "--out", model) == 0
        scores = _scores_at_blas_threads(model, ws, tmp_path)
        assert scores[0] == scores[1]

    def test_quantize_beside_the_model_keeps_the_one_sidecar(self, ws, tmp_path):
        # model.ascm and model.ascq in one directory share model.stats.txt
        model = tmp_path / "model.ascm"
        model.write_bytes(ws.model.read_bytes())
        stats = ws.model.with_suffix(".stats.txt").read_bytes()
        model.with_suffix(".stats.txt").write_bytes(stats)
        assert run_cli("quantize", model, "--out", tmp_path / "model.ascq") == 0
        assert model.with_suffix(".stats.txt").read_bytes() == stats

    def test_missing_model(self, tmp_path, capsys):
        code = run_cli("quantize", tmp_path / "absent.ascm",
                       "--out", tmp_path / "o.ascq")
        assert code == 3
        assert "cannot read checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sidecar,message",
        [(None, "missing scale stats sidecar {}"), ("0 0.0 1.0\n2 0.0 1.0\n", "{}:2: channel indices")],
        ids=["missing", "malformed"],
    )
    def test_a_model_without_valid_scale_stats_writes_nothing(self, ws, tmp_path, capsys, sidecar, message):
        # `evaluate` of the .ascq would exit 3 on it, so quantize does first
        model = tmp_path / "model.ascm"
        model.write_bytes(ws.model.read_bytes())
        stats = model.with_suffix(".stats.txt")
        if sidecar is not None:
            stats.write_text(sidecar)
        out = tmp_path / "q" / "model.ascq"
        assert run_cli("quantize", model, "--out", out) == 3
        assert message.format(stats) in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".stats.txt").exists()


class TestEvaluateQuantized:
    @pytest.fixture
    def ascq(self, ws, tmp_path):
        out = tmp_path / "model.ascq"
        assert run_cli("quantize", ws.model, "--out", out) == 0
        return out

    @pytest.mark.parametrize("suffix", [".ascm", ".ascq"])
    def test_scores_are_the_per_item_forward_of_the_scaled_cropped_items(
        self, ws, ascq, tmp_path, suffix
    ):
        model = ascq if suffix == ".ascq" else ws.model
        assert run_cli("evaluate", model, "--manifest", ws.feats / "features.tsv",
                       "--out", tmp_path / "eval") == 0
        scores, _ = read_scores(tmp_path / "eval" / "scores.tsv")

        # float and int8 both score the batchnorm-folded graph, item by item
        qm = load_quantized(ascq)
        folded = fold_batchnorm(load_checkpoint(ws.model))
        stats = read_scale_stats(model.with_suffix(".stats.txt"))
        t_model = qm.graph.input_shape[0]
        items = []
        for row in read_manifest(ws.feats / "features.tsv").rows:
            if row.split == "test":
                data = apply_scale01(read_features(ws.feats / row.filename), stats).data
                lo = (data.shape[0] - t_model) // 2
                items.append(data[lo : lo + t_model])
        if suffix == ".ascq":
            want = quantized_forward(qm, np.stack(items))
        else:
            want = np.concatenate([forward(folded, item[None]) for item in items])
        assert np.array_equal(scores, want)

    def test_truncated_model_exits_3(self, ws, ascq, tmp_path, capsys):
        short = tmp_path / "short.ascq"
        short.write_bytes(ascq.read_bytes()[:-5])
        short.with_suffix(".stats.txt").write_bytes(ascq.with_suffix(".stats.txt").read_bytes())
        code = run_cli("evaluate", short, "--manifest", ws.feats / "features.tsv")
        err = capsys.readouterr().err
        assert code == 3
        assert "truncated" in err
        assert "Traceback" not in err


class TestReport:
    def test_scores_report_matches_evaluate(self, ws, tmp_path):
        out = tmp_path / "rep"
        assert run_cli("report", ws.evald / "scores.tsv", "--manifest",
                       ws.feats / "features.tsv", "--out", out) == 0
        assert (out / "report.json").read_bytes() == (
            ws.evald / "report.json"
        ).read_bytes()

    def test_renders_stored_json(self, ws, capsys):
        assert run_cli("report", ws.evald / "report.json") == 0
        text = capsys.readouterr().out
        assert "A acc. %" in text
        assert "confusion matrix" in text

    @pytest.mark.parametrize(
        "field, damage",
        [
            ("group_confusion", lambda groups: {k: [[1]] for k in groups}),
            ("classes", lambda classes: []),
            ("group_confusion", lambda groups: {k: [[[n, n] for n in row] for row in m]
                                                for k, m in groups.items()}),
            ("group_confusion", lambda groups: {k: [[0] * len(m)] * len(m) for k, m in groups.items()}),
            ("group_confusion", lambda groups: {k: [[-n for n in row] for row in m]
                                                for k, m in groups.items()}),
            ("group_confusion", lambda groups: {k: [[n / 2 for n in row] for row in m]
                                                for k, m in groups.items()}),
            ("group_confusion", lambda groups: list(groups.values())),
            ("classes", lambda classes: classes[:1] * len(classes)),
            ("classes", lambda classes: [""] + classes[1:]),
            ("val_loss", lambda loss: math.nan),
            ("val_loss", lambda loss: math.inf),
            ("val_loss", lambda loss: -3.0),
            ("group_confusion", lambda groups: {k: [[True, *m[0][1:]], *m[1:]]
                                                for k, m in groups.items()}),
            ("val_loss", lambda loss: True),
            ("val_loss", lambda loss: str(loss)),
        ],
        ids=["matrix-1x1", "no-classes", "matrix-3d", "matrices-zeroed", "matrices-negative",
             "matrices-fractional", "matrices-not-an-object", "repeated-class", "empty-class",
             "loss-nan", "loss-infinite", "loss-negative", "matrix-boolean-count", "loss-boolean",
             "loss-string"],
    )
    def test_malformed_json_exit_3(self, ws, tmp_path, capsys, field, damage):
        payload = json.loads((ws.evald / "report.json").read_text())
        payload[field] = damage(payload[field])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run_cli("report", bad) == 3
        assert "bad report JSON" in capsys.readouterr().err

    def test_summaries_are_derived_from_the_counts(self, ws, tmp_path, capsys):
        # stored summaries that contradict the confusion matrix are not read
        payload = json.loads((ws.evald / "report.json").read_text())
        payload["per_class_accuracy"] = [12.5] * len(payload["classes"])
        payload["avg_accuracy_items"] = payload["avg_accuracy_groups"] = 12.5
        payload["group_order"] = ["A"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run_cli("report", bad) == 0
        text = capsys.readouterr().out
        assert "12.5" not in text
        assert text.endswith((ws.evald / "report.txt").read_text())

    @pytest.mark.parametrize(
        "damage",
        [
            lambda payload: payload["groups"]["A"].update(accuracy=250.0),
            lambda payload: payload.update(confusion=[[1] * len(row) for row in payload["confusion"]]),
            lambda payload: payload["groups"]["A"].update(count=1),
        ],
        ids=["group-accuracy-250", "confusion-contradicts", "group-count-contradicts"],
    )
    def test_group_values_are_derived_from_the_group_matrices(self, ws, tmp_path, capsys, damage):
        payload = json.loads((ws.evald / "report.json").read_text())
        damage(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run_cli("report", bad) == 0
        assert capsys.readouterr().out.endswith((ws.evald / "report.txt").read_text())

    def test_report_json_without_group_matrices_exit_3(self, ws, tmp_path, capsys):
        payload = json.loads((ws.evald / "report.json").read_text())
        del payload["group_confusion"]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(payload))
        assert run_cli("report", old) == 3
        assert "rerun evaluate" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--manifest", "--out"])
    def test_report_json_takes_no_manifest_or_out(self, ws, tmp_path, capsys, flag):
        out = tmp_path / "rep"
        assert run_cli("report", ws.evald / "report.json", flag, out) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_scores_without_manifest(self, ws, capsys):
        code = run_cli("report", ws.evald / "scores.tsv")
        assert code == 2
        assert "needs --manifest" in capsys.readouterr().err

    def test_row_count_mismatch(self, ws, tmp_path, rng, capsys):
        bad = tmp_path / "bad.tsv"
        write_scores(bad, rng.dirichlet(np.ones(3), size=9), SUPERCLASS_LABELS)
        code = run_cli("report", bad, "--manifest", ws.feats / "features.tsv")
        assert code == 3
        assert "score rows" in capsys.readouterr().err
