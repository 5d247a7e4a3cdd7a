"""natmt benchmark: one workload per process, run from the repository root.

    python3 perfbench/run.py --workload short --seed 1 --seconds 45 --trace 0

Prints each metric as `name value unit`, then `info {...}` (environment,
seeds, output digest, sample counts, exact counters, length criterion), and
as its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1` repeats
each phase's operations with natmt's functions wrapped and reports the
per-layer metrics. BENCHMARK.json lists both sets with units and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "cpu_model": cpu_model()}


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=float)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "natmt" / "__init__.py").is_file():
        print(f"perfbench: natmt sources not found under {SRC}", file=sys.stderr)
        return 2

    # one BLAS thread, set before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workload as W

    if args.workload not in W.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    result = W.execute(W.WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), ROOT)
    units = dict(W.per_layer_names() if args.trace else W.E2E)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in result["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    info = dict(result["info"], workload=args.workload, trace=args.trace,
                environment=environment())
    print("info " + dumps(info))
    print(dumps({"correct": result["failed"] == 0,
                   "attempted": result["attempted"],
                   "failed": result["failed"],
                   "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
