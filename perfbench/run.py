"""Benchmark command for the ``plas`` pipeline.

    python3 perfbench/run.py --workload desk-train --seed 0 --seconds 20 --trace 0

Run from the repository root. With ``--trace 0`` it prints every end-to-end
metric; with ``--trace 1`` it prints every per-layer metric, the span table
and the tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The run manifest, the
learning results and (traced) the spans go to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BLAS_THREADS = 1  # one thread: the host is shared and the timings steadier
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy loads its BLAS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_plas():
    """Imports the package from this checkout's ``src``, or exits with code 1."""
    if not (SRC / "plas" / "__init__.py").is_file():
        sys.exit(f"perfbench: no plas sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import plas

    if Path(plas.__file__).resolve().parent != SRC / "plas":
        sys.exit(f"perfbench: imported plas from {plas.__file__}, not from {SRC}")


def _manifest(args) -> dict:
    import platform
    import subprocess

    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
        commit = done.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": {"name": blas.get("name"),
                                             "version": blas.get("version")},
        "blas_threads": BLAS_THREADS, "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _import_plas()
    import resource
    import shutil

    from perfbench import pipeline, trace

    if args.workload not in pipeline.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(pipeline.WORKLOADS)}")
    workload = pipeline.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out"
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / f"work-{stem}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = pipeline.run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = dict(pipeline.END_TO_END)
    try:
        if args.trace:
            values = pipeline.per_layer(result)
            units = {m.name: m.unit for m in pipeline.LAYER_METRICS}
            units.update(pipeline.TRACE_METRICS)
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = pipeline.end_to_end(result, peak_mb)
    except (ValueError, KeyError, ArithmeticError) as e:  # a metric with nothing measured
        values = {}
        result.failed += 1
        result.errors.append(f"metrics: {e!r}")

    details = {"manifest": _manifest(args), "fingerprints": result.fingerprints,
               "errors": result.errors, "setup_adjusted_s": result.setup_walls,
               "round_adjusted_s": {"untraced": result.round_walls[False],
                                    "traced": result.round_walls[True]},
               "stage_runs": [vars(r) for r in result.stage_runs]}
    if args.trace:
        spans = result.tracer.spans
        details["spans"] = trace.summarize(spans)
        trace.write_spans(out_dir / f"{stem}.spans.jsonl", spans)
    (out_dir / f"{stem}.json").write_text(json.dumps(details, indent=1, default=str),
                                          encoding="utf-8")

    for error in result.errors:
        print(error, file=sys.stderr)
    if args.trace:
        print(f"{'span':44} {'calls':>9} {'total_s':>9} {'self_s':>9}  parents")
        for name, row in details["spans"].items():
            parents = ", ".join(f"{p} x{n}" for p, n in list(row["parents"].items())[:3])
            print(f"{name:44} {row['calls']:9d} {row['total_s']:9.4f} {row['self_s']:9.4f}"
                  f"  {parents}")
    for name, value in values.items():
        print(f"{name:48} {value:14.6g} {units[name]}")
    print(json.dumps({"manifest": details["manifest"], "fingerprints": result.fingerprints},
                     default=str))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
