"""Smoke test of the benchmark on tiny inputs: output schema and metric
names only, no timings.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ARCHS = ("small_fcnn", "mobnet", "resnet")
NAMED = {
    "frontend": ["setup_s", "peak_rss_mb", "extract_clips_per_s", "augment_clips_per_s"],
    "train": ["setup_s", "peak_rss_mb"]
    + [f"train_items_per_s.{a}" for a in ARCHS]
    + [f"train_peak_rss_mb.{a}" for a in ARCHS],
    "infer": [
        "setup_s", "peak_rss_mb",
        "eval_items_per_s.small_fcnn", "eval_items_per_s.mobnet",
        "int8_items_per_s.small_fcnn", "int8_top1_agreement.small_fcnn",
    ],
}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--seed", "3", "--seconds", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    for metric in out["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_benchmark_metric_is_printed(workload, trace):
    out = _result(_bench("--workload", workload, "--trace", str(trace), "--smoke"))
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_one_command_prints_every_named_metric():
    out = _result(_bench("--workload", "all", "--trace", "0", "--smoke"))
    wanted = {f"{w}.{name}" for w, names in NAMED.items() for name in names}
    assert set(out["metrics"]) == wanted


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "frontend", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
