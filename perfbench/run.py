"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload train-full --seed 0 --seconds 30 \
        --trace 0

Run from the repository root; the package is imported from `src/`. With
`--trace 0` the last stdout line carries every end-to-end metric of
BENCHMARK.json; with `--trace 1` it carries every per-layer metric, from a
run whose first half is untraced and whose second half records spans.
See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path.cwd()
BLAS_THREADS = 1

# BLAS reads its thread count when NumPy loads, so pin it before any import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# Stay on one CPU: on shared hosts the CPUs can differ in speed by tens of
# percent, and a run the scheduler moves between them measures a mixture.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dcswin" / "__init__.py").is_file():
        _fail(f"no src/dcswin package under {ROOT}; run from the repository "
              "root")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import bench

    if args.workload not in bench.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(bench.WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
              ROOT / ".perfbench_out")


if __name__ == "__main__":
    main()
