"""Per-layer spans for the traced run, recorded from outside the program.

`Tracer.install()` replaces module attributes of `toscert` with timing
wrappers and `restore()` puts the originals back; nothing in `src/` changes.
Spans nest on one stack, so a layer's self time is its spans' durations
minus the time of the spans directly beneath them. Counts are kept at the
same boundaries.
"""

import dataclasses
import time
from collections import Counter, defaultdict

from toscert import certify, lqrdemo, sdpcore, tos

_BUILDERS = ("build_qc_triplet", "build_w0", "build_w1", "build_w2",
             "build_dual_data", "schur_extend", "eta_vector")
_PRODUCERS = ("certify_objective_rate", "certify_residual_rate",
              "certify_linear_rate", "linear_rate_value", "dual_linear_rate")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.statuses = Counter()
        self.iters_reported = 0
        self.issued = 0
        self._stack = []
        self._undo = []

    def _wrap(self, fn, span, layer, after=None):
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.calls[span] += 1
                self.total[span] += dt
                self.self_time[layer] += dt - children[0]
            return after(out) if after else out
        return wrapper

    def _patch(self, owner, attr, span, layer, after=None):
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(orig, span, layer, after))

    def install(self):
        self._patch(sdpcore, "solve_sdp", "solve_sdp", "sdpcore", self._solved)
        self._patch(sdpcore, "feasibility_margin", "margin", "sdpcore")
        self._patch(sdpcore, "_ipm", "ipm", "sdpcore")
        self._patch(sdpcore, "_steplen", "steplen", "sdpcore")
        self._patch(sdpcore, "max_eig", "max_eig", "lmikit")
        self._patch(certify, "max_eig", "max_eig", "lmikit")
        for name in _BUILDERS:
            self._patch(certify, name, "build", "lmikit")
        for name in _PRODUCERS:
            self._patch(certify, name, name, "certify", self._produced)
        self._patch(tos, "run", "run", "tos")
        self._patch(tos, "tos_step", "tos_step", "tos")
        self._patch(tos.IterateTrace, "to_csv", "csv", "lqrdemo")
        self._patch(lqrdemo, "assemble_oracles", "assemble", "lqrdemo",
                    self._oracles)

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _solved(self, sol):
        self.statuses[sol.status] += 1
        self.iters_reported += sol.iterations
        return sol

    def _produced(self, out):
        if isinstance(out, certify.RateCertificate):
            self.issued += 1
        return out

    def _oracles(self, out):
        oracle, *rest = out
        spans = {name: self._wrap(getattr(oracle, name), name, "tos")
                 for name in ("prox_g", "grad_h", "prox_f", "objective")}
        return (dataclasses.replace(oracle, **spans), *rest)

    def metrics(self, rounds, overhead_s):
        """Per-round figures, each as (value, unit)."""
        c, t = self.calls, self.total
        per = lambda v: v / rounds
        ratio = lambda a, b: a / b if b else 0.0
        iters = c["steplen"] / 4
        steps = c["tos_step"]
        solves = c["solve_sdp"]
        st = self.statuses
        record = t["run"] - t["tos_step"] - t["objective"]
        return {
            "sdpcore.solves": (per(solves), "count"),
            "sdpcore.solve_s": (per(t["solve_sdp"]), "s"),
            "sdpcore.iters_run": (per(iters), "count"),
            "sdpcore.iters_reported": (per(self.iters_reported), "count"),
            "sdpcore.iter_us": (1e6 * ratio(t["ipm"], iters), "us"),
            "sdpcore.steplen_s": (per(t["steplen"]), "s"),
            "sdpcore.margin_solves": (per(c["margin"]), "count"),
            "sdpcore.margin_s": (per(t["margin"]), "s"),
            "sdpcore.optimal": (per(st[sdpcore.STATUS_OPTIMAL]), "count"),
            "sdpcore.undecided": (per(st[sdpcore.STATUS_MAX_ITERATIONS]
                                      + st[sdpcore.STATUS_NUMERICAL_FAILURE]),
                                  "count"),
            "sdpcore.decisive_ratio": (ratio(st[sdpcore.STATUS_OPTIMAL]
                                             + st[sdpcore.STATUS_INFEASIBLE],
                                             solves), "ratio"),
            "lmikit.maxeig_calls": (per(c["max_eig"]), "count"),
            "lmikit.maxeig_s": (per(t["max_eig"]), "s"),
            "lmikit.build_s": (per(t["build"]), "s"),
            "certify.self_s": (per(self.self_time["certify"]), "s"),
            "certify.issued": (per(self.issued), "count"),
            "tos.steps": (per(steps), "count"),
            "tos.step_us": (1e6 * ratio(t["tos_step"], steps), "us"),
            "tos.prox_g_us": (1e6 * ratio(t["prox_g"], c["prox_g"]), "us"),
            "tos.grad_h_us": (1e6 * ratio(t["grad_h"], c["grad_h"]), "us"),
            "tos.prox_f_us": (1e6 * ratio(t["prox_f"], c["prox_f"]), "us"),
            "tos.objective_us": (1e6 * ratio(t["objective"], c["objective"]),
                                 "us"),
            "tos.record_us": (1e6 * ratio(record, steps), "us"),
            "lqrdemo.assemble_s": (per(t["assemble"]), "s"),
            "lqrdemo.csv_s": (per(t["csv"]), "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }
