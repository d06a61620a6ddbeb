"""Run one ascpipe command in this process and write a result file.

    python3 perfbench/launch.py JOB.json

JOB.json holds `src` (the ascpipe source tree to import), `result` (where
to write the result), `trace` (install span wrappers first) and either
`argv` (a CLI command, run through `ascpipe.cli.main`) or `int8` (the
library int8 path: quantize, save, load, quantized forward).

The result holds the exit code, the wall and CPU time of the command
itself (interpreter start-up and imports excluded), the peak RSS of this
process and of its worker processes, and, when traced, the spans and
counts.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _import_ascpipe(src: str):
    sys.path.insert(0, src)
    import ascpipe

    if not Path(ascpipe.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported ascpipe from {ascpipe.__file__}, not from {src}")


def _cpu_seconds() -> float:
    """User plus system time of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _int8_job(spec: dict) -> dict:
    """Quantize a float checkpoint and score the items of a feature manifest."""
    from ascpipe import cli, quant
    from ascpipe.featio import read_features, read_scale_stats
    from ascpipe.features import apply_scale01
    from ascpipe.fusion import SCENE_LABELS
    from ascpipe.manifest import read_manifest
    from ascpipe.nn import load_checkpoint

    import numpy as np

    graph = load_checkpoint(spec["model"])
    stats = read_scale_stats(Path(spec["model"]).with_suffix(".stats.txt"))
    manifest = read_manifest(spec["manifest"])
    base = Path(spec["manifest"]).parent
    t_model = graph.input_shape[0]
    items = []
    for row in manifest.rows:
        data = apply_scale01(read_features(base / row.filename), stats).data
        lo = (data.shape[0] - t_model) // 2
        items.append(data[lo : lo + t_model])
    xs = np.stack(items)

    t0 = time.perf_counter()
    qm = quant.quantize_model(graph)
    t1 = time.perf_counter()
    quant.save_quantized(spec["out_model"], qm)
    t2 = time.perf_counter()
    loaded = quant.load_quantized(spec["out_model"])
    t3, c3 = time.perf_counter(), _cpu_seconds()
    scores = quant.quantized_forward(loaded, xs)
    t4, c4 = time.perf_counter(), _cpu_seconds()
    cli.write_scores(spec["out_scores"], scores, SCENE_LABELS)
    return {"items": len(xs), "quantize_s": t1 - t0, "save_s": t2 - t1, "load_s": t3 - t2, "forward_s": t4 - t3,
            "forward_cpu_s": c4 - c3}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    _import_ascpipe(job["src"])
    tracer = None
    if job.get("trace"):
        sys.path.insert(0, str(HERE))
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    from ascpipe import cli

    extra: dict = {}
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    if "argv" in job:
        try:
            code = cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code if isinstance(exc.code, int) else 2
    else:
        extra = _int8_job(job["int8"])
        code = 0
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    sys.stdout.flush()

    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {"exit": code, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": kb / 1024.0, "extra": extra}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
