"""The three workloads: inputs from a seed, the timed operations, the checks.

A workload object gives
- `setup_command(work_dir)`: the argv of the cold process that `setup_s` times;
- `check_setup(work_dir, returncode)`: what that process left behind;
- `operations()`: one round, a list of zero-argument callables, each one
  operation returning an outcome;
- `check_round(outcomes)`: cheap checks, run on every round;
- `check_once(outcomes)`: checks too slow for every round, run on the first.

Module attributes of `toscert` are looked up at call time (`certify.x(...)`,
not `from ... import x`), so the traced run sees every call.
"""

import json
import math
import os
import sys

import numpy as np

from toscert import certify, lqrdemo

from . import checks

SURFACE_LEVELS = (1.0, 3.0, 10.0, 30.0)
SURFACE_ALPHAS = (0.05, 5.0, 30)
REFERENCE_SAMPLE = 8

# criterion 5's class sets: (f, g, h) as (m, L) and the stepsize range
LINEAR_SETS = {
    "a": (((1, 100 / 7), (4, 50), (0, 1 / 9)), (1e-2, 10.0)),
    "b": (((1, 7), (0.03, 2), (0.01, 0.05)), (2e-2, 100.0)),
    "c": (((1, math.inf), (0, 5), (0, 1 / 9)), (2e-2, 10.0)),
    "d": (((0, math.inf), (1, 10), (0, 20)), (1e-3, 10.0)),
    "e": (((20, 20), (0, math.inf), (0, 70)), (1e-3, 1.0)),
    "f": (((0, 50), (0, math.inf), (2, 30)), (4e-3, 1.0)),
}
LINEAR_POINTS = 25

# the defaults of `toscert demo-lqr`
LQR_SIZE = (20, 5, 20)
LQR_LAMBDAS = (0.25, 0.5, 1.0, 1.5)
LQR_ITERS = 2000


def seeded_grid(lo, hi, count, seed):
    """geomspace(lo, hi, count) at seed 0; otherwise one log-uniform draw in
    the cell of each grid point (half a grid step either side, clipped)."""
    grid = np.geomspace(lo, hi, count)
    if seed == 0:
        return [float(a) for a in grid]
    half = 0.5 * math.log(hi / lo) / (count - 1)
    rng = np.random.default_rng(seed)
    out = []
    for a in grid:
        left = max(math.log(a) - half, math.log(lo))
        right = min(math.log(a) + half, math.log(hi))
        out.append(math.exp(rng.uniform(left, right)))
    return out


def _cli_certify(work_dir, doc):
    path = os.path.join(work_dir, "problem.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    out = os.path.join(work_dir, "cert.json")
    if os.path.exists(out):
        os.remove(out)
    return [sys.executable, "-m", "toscert.cli", "certify", path, "--out", out]


def _check_cli_output(work_dir, returncode, expected):
    """The cold CLI call agrees with the same certificate made in process."""
    with open(os.path.join(work_dir, "cert.json")) as fh:
        doc = json.load(fh)
    if expected is None:
        if returncode != 3 or doc.get("error") != "infeasible":
            return [f"cold certify: exit {returncode}, {doc}; expected a refusal"]
        return []
    if returncode != 0:
        return [f"cold certify: exit {returncode}, {doc}"]
    got = certify.certificate_from_json(json.dumps(doc))
    if got.rate() != expected.rate() or got.lam != expected.lam:
        return [f"cold certify gave {got}, in process {expected}"]
    return []


class Workload:
    def check_once(self, outcomes):
        return []

    def failed(self, outcome):
        """True for an operation counted as failed rather than as a wrong output."""
        return False


def _certify_or_none(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except certify.CertificationError:
        return None


class ObjectiveSurface(Workload):
    """Criterion 9's surface: certify_objective_rate over (Lf, Lh, alpha)."""

    name = "objective-surface"

    def __init__(self, seed):
        self.seed = seed
        alphas = seeded_grid(*SURFACE_ALPHAS, seed)
        self.points = [(a, lf, lh) for lf in SURFACE_LEVELS
                       for lh in SURFACE_LEVELS for a in alphas]
        self.refused = None

    def _problem(self, point):
        alpha, lf, lh = point
        return {"mode": certify.MODE_OBJECTIVE, "alpha": alpha,
                "f": {"m": 0, "L": lf}, "g": {"m": 0, "L": "inf"},
                "h": {"m": 0, "L": lh}}

    def setup_command(self, work_dir):
        return _cli_certify(work_dir, self._problem(self.points[0]))

    def check_setup(self, work_dir, returncode):
        expected = _certify_or_none(certify.certify_objective_rate,
                                    *self.points[0])
        return _check_cli_output(work_dir, returncode, expected)

    def operations(self):
        def op(point):
            return lambda: (point, _certify_or_none(
                certify.certify_objective_rate, *point))
        return [op(p) for p in self.points]

    def check_round(self, outcomes):
        errs = []
        surface = {}
        for point, cert in outcomes:
            key = point[1:]
            surface.setdefault(key, -math.inf)
            if cert is not None:
                errs += checks.objective_certificate(point, cert)
                surface[key] = max(surface[key], cert.theta)
        # refusals are checked against the reference on the first round only
        refused = [p for p, c in outcomes if c is None]
        if self.refused is None:
            self.refused = refused
        elif refused != self.refused:
            errs.append("refusals differ between rounds of the same inputs")
        return errs + checks.objective_monotone(surface)

    def check_once(self, outcomes):
        unit = certify.certify_objective_rate(1.0, 1.0, 1.0)
        errs = checks.objective_at_unit_point(unit.theta)
        issued = [(p, c.theta) for p, c in outcomes if c is not None]
        rng = np.random.default_rng([self.seed, 1])
        sample = rng.choice(len(issued), min(REFERENCE_SAMPLE, len(issued)),
                            replace=False)
        for i in sample:
            errs += checks.objective_against_reference(*issued[i])
        for point, cert in outcomes:
            if cert is None:
                errs += checks.objective_against_reference(point, None)
        return errs


class LinearDuality(Workload):
    """Criterion 5's sweep: joint and pinned linear rates and the dual.

    The stepsizes are criterion 5's grid at every seed. Between 3 and 6
    pinned refusals fall in the small-alpha cells of sets a, c, d and f when
    alpha is drawn inside the cells, so a seeded grid would make the share of
    failed operations depend on the seed; the fixed grid keeps the 4 that
    seed 0 shows in every round.
    """

    name = "linear-duality"

    def __init__(self, seed):
        self.sets = {name: tuple(raw) for name, (raw, _) in LINEAR_SETS.items()}
        self.points = [(name, float(a)) for name, (_, (lo, hi))
                       in LINEAR_SETS.items()
                       for a in np.geomspace(lo, hi, LINEAR_POINTS)]

    def _classes(self, name):
        return certify.ProblemClasses(*(certify.RegularityClass(m, L)
                                        for m, L in self.sets[name]))

    def setup_command(self, work_dir):
        name, alpha = self.points[0]
        doc = {"mode": certify.MODE_LINEAR, "alpha": alpha}
        for fn, (m, L) in zip("fgh", self.sets[name]):
            doc[fn] = {"m": m, "L": "inf" if math.isinf(L) else L}
        return _cli_certify(work_dir, doc)

    def check_setup(self, work_dir, returncode):
        name, alpha = self.points[0]
        expected = _certify_or_none(certify.certify_linear_rate, alpha,
                                    self._classes(name))
        return _check_cli_output(work_dir, returncode, expected)

    def operations(self):
        def op(name, alpha):
            return lambda: self._point(name, alpha)
        return [op(*p) for p in self.points]

    def _point(self, name, alpha):
        classes = self._classes(name)
        joint = _certify_or_none(certify.certify_linear_rate, alpha, classes)
        pinned = None
        if joint is not None:
            lam = joint.lam
            pinned = _certify_or_none(certify.certify_linear_rate, alpha,
                                      classes, lam=lam)
        else:
            # no contraction: the pinned program is solved for the dual check
            lam = certify.linear_rate_value(alpha, classes)[1]
        if pinned is not None:
            rho2 = pinned.rho2
        else:
            rho2 = certify.linear_rate_value(alpha, classes, lam=lam)[0]
        dual = certify.dual_linear_rate(alpha, lam, classes)
        return {"set": name, "alpha": alpha, "joint": joint, "pinned": pinned,
                "rho2": rho2, "dual": dual,
                "failed": joint is not None and pinned is None}

    def failed(self, outcome):
        """The pinned request refused at the lambda of an issued joint certificate."""
        return outcome["failed"]

    def check_round(self, outcomes):
        errs = []
        rates = {name: [] for name in self.sets}
        for rec in outcomes:
            alpha = rec["alpha"]
            spec = self.sets[rec["set"]]
            for cert in (rec["joint"], rec["pinned"]):
                if cert is not None:
                    errs += checks.linear_certificate(alpha, spec, cert)
            errs += checks.primal_dual(alpha, rec["rho2"], rec["dual"])
            rates[rec["set"]].append(rec["rho2"])
        for name, rho2s in rates.items():
            errs += checks.contracts(name, rho2s)
        return errs


class LqrDemo(Workload):
    """`toscert demo-lqr` at its defaults, one run_sweep call per lambda."""

    name = "lqr-demo"

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.inst = lqrdemo.build_instance(seed, *LQR_SIZE)
        inst = self.inst
        self.qp = checks.CondensedLqr(inst.a, inst.b, inst.q, inst.r,
                                      inst.horizon, inst.x_init)
        self.fstar = None

    def setup_command(self, work_dir):
        code = ("from toscert import lqrdemo; lqrdemo.assemble_oracles("
                f"lqrdemo.build_instance({self.seed}, {', '.join(map(str, LQR_SIZE))}))")
        return [sys.executable, "-c", code]

    def check_setup(self, work_dir, returncode):
        return [] if returncode == 0 else [f"lqr set-up exited {returncode}"]

    def _out_dir(self, lam):
        return os.path.join(self.work_dir, f"lambda_{lam:g}")

    def operations(self):
        def op(lam):
            out = self._out_dir(lam)
            os.makedirs(out, exist_ok=True)
            return lambda: lqrdemo.run_sweep(self.inst, [lam], LQR_ITERS,
                                             out_dir=out)[0]
        return [op(lam) for lam in LQR_LAMBDAS]

    def check_round(self, outcomes):
        if self.fstar is None:
            self.fstar = self.qp.solve()[0]
        errs = []
        for rec in outcomes:
            errs += checks.lqr_run(self.qp, self.fstar, rec,
                                   self._out_dir(rec["lambda"]))
        return errs


def make(name, seed, work_dir):
    if name == ObjectiveSurface.name:
        return ObjectiveSurface(seed)
    if name == LinearDuality.name:
        return LinearDuality(seed)
    if name == LqrDemo.name:
        return LqrDemo(seed, work_dir)
    raise ValueError(f"unknown workload {name}")

