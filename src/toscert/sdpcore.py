"""A small dense SDP engine for the certificate programs.

Solves  minimize c^T y  subject to  F0 + sum_i y_i F_i <= 0 (as a matrix
inequality), with C = -F0 and A_i = F_i exactly as given. A sign
constraint y_i >= 0 is a row of the LMI like any other: a -1 on a
diagonal entry of F_i's own. The engine is a primal-dual path-following
interior point method with Mehrotra predictor-corrector steps and dense
Cholesky Newton solves. The certificate LMIs have at most 11 rows (at
most 7 beside their diagonal sign and bound rows) and at most 9
variables, so a bespoke dense method is plenty.

Every program takes one run of the loop, at the constants DEFAULT_FEAS_TOL
and DEFAULT_MAX_ITER, and no second solve is made. An infeasible one is
refused when the run's own primal iterate gives a Farkas ray for the LMI
(Vandenberghe and Boyd, SIAM Rev. 1996): a W >= 0 with F0 . W >
DEFAULT_FEAS_TOL tr W beside which every F_i . W is small. The sign rows
are rows of the LMI, so W covers them with no rule of their own. The ray
is x projected onto {X : A_i . X = 0} along span(A_i), taken when its
smallest eigenvalue is >= 0. "Small" is at most 1e-4 of F0 . W in the
equilibrated units of the IPM, and the projection's A_i . X_p are zero up
to rounding, so a refusal rules out every y of equilibrated 1-norm below
(-C . X_p) / max |A_i . X_p| >= 1e4, whatever the scale of the data. When
x is nearly singular the projection can leave the cone; the run then goes
on. `solve_sdp`'s slack audits every row, sign rows included. The public
strict-feasibility oracle `feasibility_margin` hands `solve_sdp` the
program with one more variable t, so `_ipm` has one caller.

At that size an iteration costs library calls more than arithmetic. Each
iterate keeps the lower Cholesky factor from the dpotrf that accepted its
step (x and z are factored afresh only after a centrality restart or a
refused step); dtrtri inverts it, Z^-1 = L_z^-T L_z^-1, and the Newton
system and the four step lengths share these. Eigenvalues are taken only
for step lengths and the projected ray. The loop takes LAPACK from
`toscert._lapack` alone (scipy's `_flapack`, the objects
`scipy.linalg.lapack` exposes), never from numpy.linalg, so one LAPACK
build decides every result.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dpotrf, dpotrs, dtrtri
from .lmikit import eigvalsh, max_eig, sym_check

DEFAULT_FEAS_TOL = 1e-8
DEFAULT_GAP_TOL = 1e-8
DEFAULT_MAX_ITER = 200

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITERATIONS = "maxIterations"
STATUS_NUMERICAL_FAILURE = "numericalFailure"


@dataclass(frozen=True)
class LinearSdp:
    """min objective . y  s.t.  f0 + sum y_i fi[i] <= 0."""
    objective: np.ndarray
    f0: np.ndarray
    fi: tuple

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        f0 = sym_check(self.f0)
        fi = tuple(sym_check(m) for m in self.fi)
        if not np.isfinite(c).all():
            raise ValueError("objective must be finite")
        if len(fi) != c.size:
            raise ValueError("inconsistent variable count")
        for m in fi:
            if m.shape != f0.shape:
                raise ValueError("constraint matrices must share one shape")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "fi", fi)

    @property
    def nvars(self):
        return self.objective.size


@dataclass(frozen=True)
class SdpSolution:
    status: str
    y: np.ndarray
    objective: float
    slack: float
    iterations: int
    pres: float = 0.0
    dres: float = 0.0
    gap: float = 0.0


def _norm(a):
    """Frobenius norm, by numpy.linalg.norm's own formula."""
    v = a.ravel(order="K")
    return math.sqrt(v.dot(v))


def _chol(m):
    """Lower dpotrf factor of m; LinAlgError where dpotrf fails."""
    f, info = dpotrf(m, lower=1, clean=1)
    if info:
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return f


def _step(m, dm, a):
    """(a, m + a*dm, its lower factor), a halved until dpotrf succeeds.

    (0.0, m, None) when nothing down to a <= 1e-12 is PD. dpotrf accepts
    a NaN, so a factor that is not finite raises LinAlgError.
    """
    while True:
        s = m + a * dm
        f, info = dpotrf(s, lower=1, clean=1)
        if not info:
            if not np.isfinite(f).all():
                raise np.linalg.LinAlgError("step is not finite")
            return a, s, f
        if not a > 1e-12:
            return 0.0, m, None
        a *= 0.5


def _steplen(li, dx):
    """Largest a <= 1e6 keeping x + a*dx PD; li is x's inverse lower factor."""
    lam = eigvalsh(li @ dx @ li.T)[0]  # dsyevd reads only the lower half
    return 1e6 if lam >= -1e-14 else -1.0 / lam


def _ipm(c, f0, fs, gap_tol):
    """The predictor-corrector loop: (y, iters, pres, dres, gap, status).

    y and the residuals are those of the best iterate seen; iters is the
    number of iterations run. status is optimal (converged), infeasible (x
    is a Farkas ray), numericalFailure, or maxIterations (31 iterations
    without improvement on the best, or DEFAULT_MAX_ITER run out).
    """
    feas_tol = DEFAULT_FEAS_TOL
    m = len(fs)
    n = f0.shape[0]
    b = -np.asarray(c, float)

    # diagonal equilibration of C = -F0 and A_i = F_i, followed by
    # per-variable and objective scaling
    t = np.abs(f0) + sum(np.abs(a) for a in fs)
    deq = 1.0 / np.sqrt(np.maximum(np.sqrt((t ** 2).sum(axis=1)), 1e-10))
    dmat = np.diag(deq)
    cmat = dmat @ -f0 @ dmat
    amats = [dmat @ a @ dmat for a in fs]
    s = np.array([max(_norm(a), 1e-30) for a in amats])
    amats = [a / si for a, si in zip(amats, s)]
    b = b / s
    cscale = max(_norm(cmat), 1.0)
    cmat = cmat / cscale
    b = b / cscale

    avec = np.stack([a.ravel() for a in amats])
    astack = avec.reshape(m, n, n)
    # x projected onto {X : A_i . X = 0} is X_p = x - sum u_i A_i, u = G^-1 A x
    # with G = (A_i . A_j) (ridged like the Newton system's matrix, so a zero
    # or repeated A_i cannot break the factor); with G^-1 folded into the A_i,
    # diag(X_p) and C . X_p cost one small product each
    pav = dpotrs(_chol(avec @ avec.T + 1e-13 * np.eye(m)), avec, lower=1)[0]
    pdiag = pav[:, ::n + 1]
    pc = pav @ cmat.ravel()
    deq2 = deq ** 2

    eye = np.eye(n)
    eye_m = np.eye(m)
    x = np.eye(n)
    z = np.eye(n)
    fx = fz = None
    y = np.zeros(m)
    bn = 1.0 + _norm(b)
    cn = 1.0 + _norm(cmat)
    best = None
    status = STATUS_MAX_ITERATIONS
    noimp = 0
    restarts = 0
    for it in range(DEFAULT_MAX_ITER):
        ax = avec @ x.ravel()
        rp = b - ax
        rd = cmat - (y @ avec).reshape(n, n) - z
        mu = np.vdot(x, z) / n
        pres = _norm(rp) / bn
        dres = _norm(rd) / cn
        pobj, dobj = np.vdot(cmat, x), b @ y
        gap = abs(pobj - dobj) / (1.0 + abs(dobj) + abs(pobj))
        err = max(pres, dres, gap)
        if best is None or err < 0.9999 * best[0]:
            best = (err, y.copy(), pres, dres, gap)
            noimp = 0
        else:
            noimp += 1
        if pres < feas_tol and dres < feas_tol and gap < gap_tol:
            status = STATUS_OPTIMAL
            break
        # the ray: X_p = x - sum u_i A_i, with A X_p = 0 up to rounding. It
        # proves infeasibility when W = D X_p D >= 0, D = diag(deq), has
        # F0 . W above feas_tol tr W and every scaled A_i . X_p is ~0 beside
        # -C . X_p. Its diagonal and C . X_p screen it before it is formed
        # and its eigenvalues taken
        dp = x.diagonal() - ax @ pdiag
        if (dp.min() >= 0
                and -cscale * (pobj - ax @ pc) > feas_tol * (deq2 @ dp)):
            xp = x - (ax @ pav).reshape(n, n)
            cxp = np.vdot(cmat, xp)
            if (-cscale * cxp > feas_tol * (deq2 @ xp.diagonal())
                    and np.abs(avec @ xp.ravel()).max() <= 1e-4 * -cxp
                    and eigvalsh(xp)[0] >= 0):
                status = STATUS_INFEASIBLE
                break
        if noimp > 30:
            break
        try:
            # one lower factor per iterate, kept from the step that made it;
            # its dtrtri inverse serves the Newton system and the step lengths
            fx = _chol(x) if fx is None else fx
            fz = _chol(z) if fz is None else fz
            lx = dtrtri(fx, lower=1)[0]
            lz = dtrtri(fz, lower=1)[0]
            zi = lz.T @ lz
            zax = (zi @ astack @ x).reshape(m, n * n)
            mmat = avec @ zax.T
            mmat = 0.5 * (mmat + mmat.T)
            reg = 1e-13 * max(np.trace(mmat) / m, 1.0)
            mc, info = dpotrf(mmat + reg * eye_m, clean=0)
            if info:
                raise np.linalg.LinAlgError("Schur matrix is not PD")
            rdx = rd @ x

            def newton(sigmu, corr):
                szx = sigmu * zi - x
                base = szx - zi @ (rdx + corr)  # every A_i is symmetric
                dy = dpotrs(mc, rp - avec @ base.ravel())[0]
                dz = rd - (dy @ avec).reshape(n, n)
                dxr = szx - zi @ (dz @ x + corr)
                return dy, 0.5 * (dxr + dxr.T), dz

            dy_a, dx_a, dz_a = newton(0.0, 0.0)
            ap = min(_steplen(lx, dx_a), 1.0)
            ad = min(_steplen(lz, dz_a), 1.0)
            mu_aff = np.vdot(x + ap * dx_a, z + ad * dz_a) / n
            sigma = min(max((max(mu_aff, 0.0) / mu) ** 3, 1e-10), 1.0)
            dy, dx, dz = newton(sigma * mu, dz_a @ dx_a)
            _, x, fx = _step(x, dx, min(0.98 * _steplen(lx, dx), 1.0))
            ad, z, fz = _step(z, dz, min(0.98 * _steplen(lz, dz), 1.0))
            y = y + ad * dy
            # centrality recovery: if mu collapsed far below the duality gap
            # the iterate is jammed on the boundary; lift it back toward the
            # central path and continue
            mun = np.vdot(x, z) / n
            gn = abs(np.vdot(cmat, x) - b @ y)
            if mun * n < 1e-3 * gn and restarts < 10:
                delta = np.sqrt(gn / n)
                x = x + delta * eye
                z = z + delta * eye
                fx = fz = None
                restarts += 1
        except np.linalg.LinAlgError:
            status = STATUS_NUMERICAL_FAILURE
            break
    else:
        it = DEFAULT_MAX_ITER
    # a break at loop index it comes after it iterations
    err, yb, pres, dres, gap = best
    return yb * cscale / s, it, pres, dres, gap, status


def solve_sdp(problem, gap_tol=DEFAULT_GAP_TOL):
    """Solve a LinearSdp; the reported slack is an independent eigenvalue audit.

    gap_tol is the one setting; DEFAULT_FEAS_TOL and DEFAULT_MAX_ITER are
    read at the call. One IPM run decides the status: `optimal` when it
    converges and the audit passes, `infeasible` when its primal iterate,
    projected onto the constraints' null space, is a Farkas ray for the
    LMI, `numericalFailure` when its Newton system breaks down or F(y)
    overflows the float range (slack inf), and `maxIterations` otherwise.
    A ray rules out each y of equilibrated 1-norm up to a bound that only
    rounding sets, and at least 1e4 (see the module docstring).
    """
    if not 0 < gap_tol <= 1e-2:
        raise ValueError("gap_tol must lie in (0, 1e-2]")
    if problem.nvars == 0:
        slack = _audit_slack(problem.f0, (), np.zeros(0))
        return SdpSolution(STATUS_OPTIMAL if slack <= DEFAULT_FEAS_TOL
                           else STATUS_INFEASIBLE, np.zeros(0), 0.0, slack, 0)
    y, iters, pres, dres, gap, status = _ipm(
        problem.objective, problem.f0, problem.fi, gap_tol)
    try:
        slack = _audit_slack(problem.f0, problem.fi, y)
    except ValueError:  # max_eig: F(y) overflows the float range
        slack, status = math.inf, STATUS_NUMERICAL_FAILURE
    if status == STATUS_OPTIMAL and not slack <= DEFAULT_FEAS_TOL:
        status = STATUS_MAX_ITERATIONS
    obj = float(problem.objective @ y)
    return SdpSolution(status, y, obj, slack, iters, pres, dres, gap)


def _audit_slack(f0, fi, y):
    m = f0.copy()
    for yi, a in zip(y, fi):
        m = m + yi * a
    return max_eig(m)


def feasibility_margin(f0, fi):
    """Largest t with f0 + sum y_i fi[i] + t I <= 0; strict feasibility oracle.

    Returns (t_star, y). A positive t_star certifies strict feasibility and
    t_star < -DEFAULT_FEAS_TOL certifies infeasibility of the LMI.
    """
    n = np.shape(f0)[0]
    c = np.zeros(len(fi) + 1)
    c[-1] = -1.0
    sol = solve_sdp(LinearSdp(c, f0, tuple(fi) + (np.eye(n),)))
    return float(sol.y[-1]), sol.y[:-1]


def analytic_instances():
    """Three closed-form test programs with optimal values 1, 2, 2."""
    inst1 = LinearSdp(np.array([1.0]), np.array([[1.0]]),
                      (np.array([[-1.0]]),))
    inst2 = LinearSdp(np.array([-1.0]), np.array([[-2.0]]),
                      (np.array([[1.0]]),))
    # y >= 0 as the diagonal rows 2 and 3
    inst3 = LinearSdp(
        np.array([1.0, 1.0]),
        np.pad(np.array([[0.0, 1.0], [1.0, 0.0]]), (0, 2)),
        (np.diag([-1.0, 0.0, -1.0, 0.0]), np.diag([0.0, -1.0, 0.0, -1.0])))
    return [
        (inst1, 1.0),   # optimal y = 1
        (inst2, 2.0),   # optimal y = 2, objective -2
        (inst3, 2.0),   # optimal objective y1 + y2 = 2 at y = (1, 1)
    ]
