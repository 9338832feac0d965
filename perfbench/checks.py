"""Checks on the program's outputs, independent of `toscert`.

Every check returns a list of error messages; an empty list is a pass. The
matrices come from `formulas`, the references are computed here with LAPACK
and scipy, and nothing is imported from `toscert`.
"""

import csv
import json
import math
import os

import numpy as np

from . import formulas

NSD_TOL = 1e-8
# theta* at (alpha, Lf, Lh) = (1, 1, 1): 50-digit bisection on the
# face-reduced 3x3 LMI
THETA_111 = 0.6740881063
THETA_111_TOL = 1e-6
REFERENCE_TOL = 1e-7
# a refusal is wrong when the reference finds a rate at least this large
REFUSAL_THETA = 1e-6
DUAL_TOL = 1e-6
CONTRACT_TOL = 1e-6
LQR_OBJECTIVE_TOL = 1e-9
LQR_DYNAMICS_TOL = 1e-9


def objective_certificate(point, cert):
    """An issued objective-rate certificate: theta > 0, sigma >= 0, LMI NSD."""
    alpha, lf, lh = point
    errs = []
    if not cert.theta > 0:
        errs.append(f"{point}: theta {cert.theta} is not positive")
    if not min(cert.sigma) >= 0:
        errs.append(f"{point}: negative multiplier {cert.sigma}")
    top = formulas.max_eig(formulas.objective_lmi(
        cert.theta, cert.lam, cert.sigma, alpha, lf, lh))
    if not top <= NSD_TOL:
        errs.append(f"{point}: W1 + sum sigma Q has eigenvalue {top:.3e}")
    return errs


def objective_monotone(surface):
    """theta*(Lf, Lh), the best rate over the alpha grid, nonincreasing in both."""
    errs = []
    for (lf, lh), best in surface.items():
        for nxt in ((lf2, lh) for lf2, lh2 in surface if lh2 == lh and lf2 > lf):
            if surface[nxt] > best + 1e-7:
                errs.append(f"theta* rises from Lf={lf} to Lf={nxt[0]} at Lh={lh}")
        for nxt in ((lf, lh2) for lf2, lh2 in surface if lf2 == lf and lh2 > lh):
            if surface[nxt] > best + 1e-7:
                errs.append(f"theta* rises from Lh={lh} to Lh={nxt[1]} at Lf={lf}")
    return errs


def objective_at_unit_point(theta):
    if abs(theta - THETA_111) > THETA_111_TOL:
        return [f"theta at (1, 1, 1) is {theta!r}, expected {THETA_111}"]
    return []


def objective_against_reference(point, theta):
    """theta issued at point (None for a refusal) against the bisection reference."""
    ref = formulas.ObjectiveReference(*point)
    if theta is None:
        if ref.admits(REFUSAL_THETA):
            best = ref.theta_max()
            return [f"{point}: refused, but theta {best[0]:.6g} is feasible"]
        return []
    best = ref.theta_max()
    if best is None:
        return [f"{point}: theta {theta} issued, reference finds none"]
    if abs(theta - best[0]) > REFERENCE_TOL:
        return [f"{point}: theta {theta!r}, reference {best[0]!r}"]
    return []


def linear_certificate(alpha, classes, cert):
    """An issued linear-rate certificate: rho2 < 1, sigma >= 0, W2 LMI NSD."""
    errs = []
    if not cert.rho2 < 1.0:
        errs.append(f"alpha {alpha}: rho2 {cert.rho2} >= 1")
    if not min(cert.sigma) >= 0:
        errs.append(f"alpha {alpha}: negative multiplier {cert.sigma}")
    top = formulas.linear_lmi_top(cert.rho2, cert.lam, cert.sigma, alpha,
                                  classes)
    if not top <= NSD_TOL:
        errs.append(f"alpha {alpha}: W2 + sum sigma Q has eigenvalue {top:.3e}")
    return errs


def primal_dual(alpha, rho2, dual):
    if not abs(rho2 - dual) <= DUAL_TOL:
        return [f"alpha {alpha}: pinned rho2 {rho2!r}, dual {dual!r}"]
    return []


def contracts(name, rho2s):
    if not any(r < 1.0 - CONTRACT_TOL for r in rho2s):
        return [f"class set {name} contracts nowhere on its grid"]
    return []


class CondensedLqr:
    """The demo's control problem with the states eliminated.

    x = F u + g0 through the dynamics, so the problem is the box-constrained
    quadratic program min 0.5 u^T H u + c^T u + k over -1 <= u <= 1.
    """

    def __init__(self, a, b, q, r, horizon, x_init):
        n, m = b.shape
        self.n, self.m, self.horizon = n, m, horizon
        f = np.zeros(((horizon + 1) * n, horizon * m))
        g0 = np.zeros((horizon + 1) * n)
        g0[:n] = x_init
        for t in range(1, horizon + 1):
            g0[t * n:(t + 1) * n] = a @ g0[(t - 1) * n:t * n]
            f[t * n:(t + 1) * n] = a @ f[(t - 1) * n:t * n]
            f[t * n:(t + 1) * n, (t - 1) * m:t * m] = b
        qbar = np.kron(np.eye(horizon + 1), q)
        self.h = f.T @ qbar @ f + np.kron(np.eye(horizon), r)
        self.c = f.T @ qbar @ g0
        self.k = 0.5 * float(g0 @ qbar @ g0)
        self.a, self.b, self.x_init = a, b, x_init

    def value(self, u):
        return 0.5 * float(u @ self.h @ u) + float(self.c @ u) + self.k

    def solve(self):
        """(optimal value, optimal inputs): a direct solve where the box is
        inactive, otherwise L-BFGS-B polished on its active set."""
        u = np.linalg.solve(self.h, -self.c)
        if np.abs(u).max() <= 1.0:
            return self.value(u), u
        from scipy.optimize import minimize
        res = minimize(self.value, np.clip(u, -1, 1),
                       jac=lambda v: self.h @ v + self.c, method="L-BFGS-B",
                       bounds=[(-1.0, 1.0)] * u.size,
                       options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 10000})
        u = res.x
        for _ in range(20):
            grad = self.h @ u + self.c
            fixed = (np.abs(u) >= 1.0 - 1e-9) & (np.sign(u) * grad <= 0)
            free = ~fixed
            u_new = np.clip(np.where(fixed, np.sign(u), u), -1, 1)
            hf = self.h[np.ix_(free, free)]
            rhs = -(self.c[free] + self.h[np.ix_(free, fixed)] @ u_new[fixed])
            u_new[free] = np.linalg.solve(hf, rhs)
            if np.abs(u_new).max() > 1.0 + 1e-12 or np.array_equal(u_new, u):
                break
            u = u_new
        grad = self.h @ u + self.c
        # KKT: zero gradient inside the box, gradient pointing outward on it
        inner = np.abs(u) < 1.0 - 1e-9
        kkt = max(np.abs(grad[inner]).max(initial=0.0),
                  np.maximum(np.sign(u[~inner]) * grad[~inner], 0).max(initial=0.0))
        if kkt > 1e-8 * max(1.0, np.abs(self.c).max()):
            raise ArithmeticError(f"condensed QP not solved, KKT residual {kkt:.2e}")
        return self.value(u), u

    def dynamics_residual(self, w):
        """Largest |x_{t+1} - A x_t - B u_t| and |x_0 - x_init| along w."""
        n, m, horizon = self.n, self.m, self.horizon
        xs = w[:(horizon + 1) * n].reshape(horizon + 1, n)
        us = w[(horizon + 1) * n:].reshape(horizon, m)
        res = xs[1:] - xs[:-1] @ self.a.T - us @ self.b.T
        return max(np.abs(res).max(), np.abs(xs[0] - self.x_init).max())


def lqr_run(qp, fstar, result, out_dir):
    """One lambda run of the demo: final objective, feasibility and files."""
    lam = result["lambda"]
    trace = result["trace"]
    errs = []
    f_final = trace.objective[-1]
    if not abs(f_final - fstar) <= LQR_OBJECTIVE_TOL * abs(fstar):
        errs.append(f"lambda {lam}: final f(x_B) {f_final!r}, QP optimum {fstar!r}")
    x_b = trace.x_b
    scale = max(1.0, max(np.abs(x).max() for x in x_b))
    dyn = max(qp.dynamics_residual(x) for x in x_b)
    if not dyn <= LQR_DYNAMICS_TOL * scale:
        errs.append(f"lambda {lam}: x_B misses the dynamics by {dyn:.3e}")
    u0 = (qp.horizon + 1) * qp.n
    if max(np.abs(x[u0:]).max() for x in trace.x_a) > 1.0:
        errs.append(f"lambda {lam}: x_A leaves the input box")
    return errs + lqr_files(result, out_dir)


def lqr_files(result, out_dir):
    """The written trace CSV and summary.json agree with the returned trace."""
    lam = result["lambda"]
    trace = result["trace"]
    errs = []
    with open(os.path.join(out_dir, f"trace_lambda_{lam:g}.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    running = math.inf
    body = rows[1:]
    if len(body) != len(trace.residual_norm2):
        errs.append(f"lambda {lam}: CSV has {len(body)} rows")
    for k, (row, r2, obj) in enumerate(zip(body, trace.residual_norm2,
                                           trace.objective)):
        running = min(running, r2)
        want = [k, r2, running, obj]
        got = [int(row[0]), float(row[1]), float(row[2]), float(row[4])]
        if got != want:
            errs.append(f"lambda {lam}: CSV row {k} is {row}, trace gives {want}")
            break
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    want = [{k: v for k, v in result.items() if k != "trace"}]
    if summary != want:
        errs.append(f"lambda {lam}: summary.json {summary} differs from {want}")
    return errs
