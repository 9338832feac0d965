"""Timed rounds, set-up timing, the checks and the result line."""

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from . import workloads

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


def run(name, seed, seconds, trace, root, src, blas_threads):
    out_root = os.path.join(root, ".perfbench_out")
    os.makedirs(out_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_root)
    try:
        wl = workloads.make(name, seed, work_dir)
        bench = _Bench(wl)
        if trace:
            metrics = bench.traced(seconds)
        else:
            metrics = bench.untraced(seconds, work_dir, root, src)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    n_rounds = len(bench.round_s)
    print(f"workload {name}  seed {seed}  trace {trace}  BLAS threads "
          f"{blas_threads}  rounds {n_rounds}  operations {bench.attempted} "
          f"({bench.attempted // n_rounds} a round)  failed {bench.failed}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:24s} {value:14.6f} {unit}")
    for err in bench.errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


class _Bench:
    def __init__(self, wl):
        self.wl = wl
        self.round_s = []
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _round(self):
        """One timed pass over the workload's operations; returns the outcomes
        of those that did not fail."""
        ops = self.wl.operations()
        lat, outs = [], []
        t_round = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as exc:
                # counted as a failed operation; the round goes on
                traceback.print_exc()
                out = exc
            lat.append(time.perf_counter() - t0)
            outs.append(out)
        round_s = time.perf_counter() - t_round
        good = [o for o in outs
                if not isinstance(o, Exception) and not self.wl.failed(o)]
        self.round_s.append(round_s)
        self.latencies += lat
        self.attempted += len(outs)
        self.failed += len(outs) - len(good)
        return good

    def _check(self, good, first):
        self.errors += self.wl.check_round(good)
        if first:
            self.errors += self.wl.check_once(good)

    def untraced(self, seconds, work_dir, root, src):
        setup_s = self._setup(work_dir, root, src)
        peak_rss_mb = None
        while not self.round_s or sum(self.round_s) < seconds:
            good = self._round()
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self._check(good, len(self.round_s) == 1)
        lat_ms = [1e3 * t for t in self.latencies]
        return {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(self.round_s), "s"),
            "op_p50_ms": (statistics.median(lat_ms), "ms"),
            "op_p90_ms": (statistics.quantiles(lat_ms, n=10)[-1], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def traced(self, seconds):
        """Untraced and traced rounds in turn; per-layer figures come from the
        traced ones, and the overhead is the difference of their medians."""
        from . import tracing
        tracer = tracing.Tracer()
        plain, traced = [], []
        while not traced or sum(self.round_s) < seconds:
            on = len(plain) > len(traced)
            if on:
                tracer.install()
            try:
                good = self._round()
            finally:
                tracer.restore()
            (traced if on else plain).append(self.round_s[-1])
            self._check(good, len(self.round_s) == 1)
        overhead_s = statistics.median(traced) - statistics.median(plain)
        return tracer.metrics(len(traced), overhead_s)

    def _setup(self, work_dir, root, src):
        """Median wall time of cold processes, each paying the user's set-up."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        times = []
        for _ in range(SETUP_REPEATS):
            cmd = self.wl.setup_command(work_dir)
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                                  timeout=SETUP_TIMEOUT_S)
            times.append(time.perf_counter() - t0)
            self.errors += self.wl.check_setup(work_dir, proc.returncode)
        return statistics.median(times)
