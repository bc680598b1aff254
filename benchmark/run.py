"""Seeded end-to-end and per-layer benchmark of mahaknn's scenario harness.

Run from the repository root (the package is imported from ./src):

    python3 benchmark/run.py --workload whitened-descriptor --seed 0 --seconds 35 --trace 0

This file checks the tree, pins the BLAS thread count before numpy loads,
and hands over to bench.py; see README.md for what a run measures. The last
line of standard output is one JSON object with the metrics that
BENCHMARK.json lists for the chosen --trace mode.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

# Fixed, and no higher than any machine's core count, so runs compare across machines.
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    for needed in (src / "mahaknn" / "__init__.py", root / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed} not found; run from the repository root", file=sys.stderr)
            return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import mahaknn

    if Path(mahaknn.__file__).resolve().parent != (src / "mahaknn").resolve():
        print(f"error: imported mahaknn from {mahaknn.__file__}, not from {src}", file=sys.stderr)
        return 2
    import bench

    return bench.run(args, root, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
