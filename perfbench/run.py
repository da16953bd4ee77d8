#!/usr/bin/env python3
"""The landmix benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a landmix checkout: it imports the package from
``src/`` and exits with code 2, printing no result, when there is none.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Chains run in this
process (``--parallel 1``) with BLAS threads pinned to 1.  See
perfbench/README.md for the workloads and the meaning of every metric.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="The landmix benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short chains and few replicates, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "landmix" / "__init__.py").is_file():
        print(f"error: no landmix package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main())
