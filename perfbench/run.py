"""dilation-forge benchmark: one workload, one seed, in one process.

    python3 perfbench/run.py --workload deep-fock --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

The last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A table of the same
metrics goes to standard error, and the full record (environment, input sizes
and hash, samples, failures) to ``perfbench/out/``.  The exit code is 0 only
when every correctness check passed.  See README.md in this directory.
"""

import argparse
import os
import subprocess
import sys
from time import perf_counter

# BLAS and OpenMP read these once, when numpy loads them; the process must
# start with them, so run_one() re-executes itself when they are missing.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
WORKLOAD_NAMES = ("deep-fock", "wide-tuple", "cli-roundtrip")  # as in workloads.WORKLOADS


def run_one(args) -> int:
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        env = {**os.environ, **PINNED_ENV}
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *args.argv], env)
    if not os.path.isfile(os.path.join(SRC, "dilation_forge", "__init__.py")):
        print(f"error: no dilation_forge package under {SRC}", file=sys.stderr)
        return 2

    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import dilation_forge
    import bench
    import_s = perf_counter() - t0
    if not os.path.abspath(dilation_forge.__file__).startswith(SRC + os.sep):
        print(f"error: imported dilation_forge from {dilation_forge.__file__}", file=sys.stderr)
        return 2
    return bench.run(args.workload, args.seed, args.seconds, args.trace, import_s)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
        print(done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "", flush=True)
        status = status or done.returncode
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.argv = list(argv)
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
