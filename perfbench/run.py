"""ascpipe benchmark: seeded synthetic workloads through the public CLI.

    python3 perfbench/run.py --workload {frontend,train,infer,all} --seed N
        [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a checkout; the program under test is the checkout's
`src/ascpipe`. With --trace 0 the run prints the end-to-end metrics, with
--trace 1 the per-layer metrics from a traced round plus the tracing
overhead. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only when
every correctness check passed. See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPS = 5
RUN_BUDGET_S = 170  # a run must end within 180 s; later commands time out instead
STAGE_SLOTS = ("stage1", "stage2", "stage3")


class Bench:
    """Runs launcher processes and counts attempted and failed checks."""

    def __init__(self, work: Path, blas_threads: int, warm_mb: int):
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.warm_mb = warm_mb
        self.attempted = 0
        self.failed = 0
        self.notes: dict = {}
        self._jobs = 0
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(blas_threads)

    def _warm_memory(self) -> None:
        """Touch warm_mb of memory in a throwaway process. A virtual machine
        that hands freed guest memory back to its host, as the reference
        machine does, makes the next process to touch it pay again: there a
        command run a few seconds after the previous one read up to 40 %
        slower than one run straight after it."""
        code = f"import numpy as np; np.ones({self.warm_mb} << 20, dtype=np.uint8)"
        try:
            subprocess.run([sys.executable, "-c", code], check=False, timeout=self._time_left())
        except subprocess.TimeoutExpired:
            pass  # run() has killed it; the command that follows times out too

    def _time_left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {message}", file=sys.stderr)
        return ok

    def note(self, key: str, value) -> None:
        self.notes[key] = value

    def run(self, command, trace: bool) -> dict:
        """Run a CLI argv list, or an int8 job spec, in a launcher process."""
        self._jobs += 1
        stem = self.work / f"job{self._jobs:04d}"
        job = {"src": str(SRC), "result": f"{stem}.result.json", "trace": trace}
        job["argv" if isinstance(command, list) else "int8"] = command
        Path(f"{stem}.json").write_text(json.dumps(job))
        if self.warm_mb:
            self._warm_memory()
        with open(f"{stem}.log", "w") as log:
            # its own session, so a timeout also ends the command's worker processes
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "launch.py"), f"{stem}.json"],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, start_new_session=True,
            )
            try:
                proc.wait(timeout=self._time_left())
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        text = Path(f"{stem}.log").read_text()
        try:
            result = json.loads(Path(f"{stem}.result.json").read_text())
        except (OSError, ValueError):
            result = {"exit": -1, "wall_s": math.inf, "peak_rss_mb": 0.0, "extra": {}}
        result["log"] = text
        return result


def environment(seed: int, workers: int, blas_threads: int) -> dict:
    import numpy as np

    mem_kb = 0
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb / 1024.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads,
        "workers": workers,
        "seed": seed,
        "commit": commit,
    }


def _median_stages(rounds) -> dict:
    keys = rounds[0].stages.keys()
    return {
        k: tuple(statistics.median(r.stages[k][j] for r in rounds) for j in range(2))
        for k in keys
    }


def run_workload(name: str, args) -> tuple[dict, dict, Bench]:
    """Returns (metrics for the JSON line, named metrics, bench)."""
    import workloads as W

    sizes = W.SMOKE if args.smoke else W.FULL
    nproc = len(os.sched_getaffinity(0))
    if name == "frontend":
        wl, blas_threads = W.Frontend(sizes, args.seed), 1
        workers = 1 if args.trace else nproc
    else:
        wl = W.Train(sizes, args.seed) if name == "train" else W.Infer(sizes, args.seed)
        blas_threads, workers = nproc, 1

    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(work, blas_threads, 0 if args.smoke else wl.warm_mb)
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            d = work / f"setup{rep}"
            d.mkdir()
            t0 = time.perf_counter()
            wl.setup(d)
            setup_times.append(time.perf_counter() - t0)
        setup_s = statistics.median(setup_times)

        rounds_dir = work / "rounds"
        if args.trace:
            plain = wl.round(bench, rounds_dir, False, workers, True)
            traced = wl.round(bench, rounds_dir, True, workers, True)
            rounds = [traced]
        else:
            # a fixed round count per --seconds, so both sides of a comparison do the same work
            n_rounds = max(1, int(args.seconds // wl.round_s))
            rounds = [wl.round(bench, rounds_dir, False, workers, i == 0) for i in range(n_rounds)]
        stages = _median_stages(rounds)

        env = environment(args.seed, workers, blas_threads)
        env["rounds"] = len(rounds)
        env["setup_s_reps"] = setup_times
        env.update(bench.notes)

        named = {"setup_s": (setup_s, "s")}
        named.update(wl.named(stages))
        named["peak_rss_mb"] = (statistics.median(r.peak_rss_mb for r in rounds), "MB")
        if args.trace:
            metrics = wl.per_layer(traced)
            metrics[f"{name}.trace_overhead_s"] = traced.wall_s - plain.wall_s
            units = {k: u for k, u, _ in W.per_layer_catalog()}
            out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
            _write_trace(name, args, env, traced, plain)
        else:
            out = {"setup_s": {"value": setup_s, "unit": "s"}}
            out["peak_rss_mb"] = {"value": named["peak_rss_mb"][0], "unit": "MB"}
            for slot, stage in zip(STAGE_SLOTS, wl.stage_names):
                out[f"{slot}_items_per_s"] = {"value": stages[stage][0], "unit": "items/s"}
                out[f"{slot}_peak_rss_mb"] = {"value": stages[stage][1], "unit": "MB"}
            env["stages"] = dict(zip(STAGE_SLOTS, wl.stage_names))
            env["per_round"] = [r.stages for r in rounds]
            env["commands"] = [
                {str(k): {f: r.get(f) for f in ("wall_s", "cpu_s", "extra")} for k, r in rnd.results.items()}
                for rnd in rounds
            ]
        _report(name, args, env, named, out)
        return out, named, bench
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _write_trace(name, args, env, traced, plain) -> None:
    import tracing

    commands = {}
    for key, r in traced.results.items():
        label = key if isinstance(key, str) else "-".join(key)
        spans = r.get("spans", [])
        summary = tracing.summarize(spans)
        layers_s = sum(v["self_s"] for k, v in summary.items() if k.startswith("nn.layers."))
        commands[label] = {
            "wall_s": r["wall_s"],
            "untraced_wall_s": plain.results[key]["wall_s"],
            "nn_layers_self_s": layers_s,
            "unattributed_s": r["wall_s"] - tracing.root_busy(spans),
            "counts": r.get("counts", {}),
            "summary": summary,
            "spans": [{"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in spans],
        }
        if layers_s:
            print(f"{label}: nn.layers self time is {layers_s / r['wall_s']:.0%} of the command's wall time")
    path = OUT / f"trace-{name}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": name, "env": env, "commands": commands}, indent=1))
    print(f"spans -> {path}")


def _report(name, args, env, named, out) -> None:
    print(f"== {name} (seed {args.seed}, trace {args.trace})")
    print("env: " + json.dumps(env, default=str))
    if name == "frontend" and args.trace:
        print("note: the traced frontend run uses --workers 1 so every span lands in one process")
    if not args.trace:
        for key, (value, unit) in named.items():
            print(f"  {key:34s} {value:14.6g} {unit}")
    else:
        for key, m in out.items():
            print(f"  {key:50s} {m['value']:14.6g} {m['unit']}")
    result = {"workload": name, "seed": args.seed, "trace": args.trace, "env": env, "metrics": out,
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}}
    (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str)
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("frontend", "train", "infer", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args()

    if not (SRC / "ascpipe" / "cli.py").is_file():
        print(f"no ascpipe source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)

    names = ("frontend", "train", "infer") if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        out, named, bench = run_workload(name, args)
        attempted += bench.attempted
        failed += bench.failed
        print(f"{name}: {bench.failed} failed of {bench.attempted} attempted")
        if args.workload == "all" and not args.trace:
            metrics.update({f"{name}.{k}": {"value": v, "unit": u} for k, (v, u) in named.items()})
        else:
            metrics.update(out)
    if args.trace and args.workload != "all":
        import workloads

        # every per-layer metric appears; layers this workload never enters read 0
        unused = {k: {"value": 0, "unit": u} for k, u, _ in workloads.per_layer_catalog()}
        metrics = {**unused, **metrics}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
