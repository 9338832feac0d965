"""Benchmark of toscert: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload objective-surface --seed 0 --seconds 20 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` they are
the per-layer ones from a traced run, plus the tracing overhead. Without
`--workload` each workload runs in a fresh process of its own, one after
the other. See perfbench/README.md.
"""

import argparse
import os
import sys

# fixed before numpy loads; the cold set-up processes inherit it
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("objective-surface", "linear-duality", "lqr-demo")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args):
    import subprocess
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None):
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "toscert")):
        print(f"toscert sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return _run_all(args)
    sys.path[:0] = [SRC, ROOT]
    from perfbench import harness
    return harness.run(args.workload, args.seed, args.seconds, args.trace,
                       ROOT, SRC, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
