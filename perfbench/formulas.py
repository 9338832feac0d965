"""The certificate matrices, written out here from the splitting method itself.

Nothing in this module imports `toscert`: the checks compare the program's
certificates against these matrices, so they must not share its code.

Deviations from a fixed point are stacked as v = (x_B, y, x_A, z). One
splitting step moves z by lam (x_A - x_B) = -lam (e . v), with
e = (1, 0, -1, 0), so

    |z+|^2 - rho2 |z|^2 = lam^2 (e.v)^2 - 2 lam (e.v)(e3.v) + (1 - rho2) (e3.v)^2.

Each prox or gradient step supplies one pair (point, alpha * subgradient) on
which the interpolation inequality of its function class holds:
g at (alpha x_B, z - x_B), h at (alpha x_B, 2 x_B - y - z) and f at
(alpha x_A, y - x_A).
"""

import math

import numpy as np

LAM_MIN = 1e-6
LAM_MAX = 4.0

_E = np.array([1.0, 0.0, -1.0, 0.0])
_E3 = np.array([0.0, 0.0, 0.0, 1.0])
# equal deviations of x_B, y, x_A and z: every objective-rate matrix
# vanishes on it, so the objective LMI is solved on its complement
_ONES = np.ones(4)
_FACE = np.linalg.svd(_ONES[None, :])[2][1:].T  # orthonormal basis of ones-perp


def interpolation_matrix(m, L):
    """2x2 form q with (x, d) q (x, d) >= 0 for an (m, L) function."""
    if math.isinf(L):
        return np.array([[-m, 0.5], [0.5, 0.0]])
    return np.array([[-m * L / (m + L), 0.5], [0.5, -1.0 / (m + L)]])


def constraint_matrices(alpha, f, g, h):
    """4x4 constraint matrices for g, h and f, in that order.

    f, g, h are (m, L) pairs; the order matches the multipliers that the
    certificates report.
    """
    pairs = (
        (g, np.array([[alpha, 0, 0, 0], [-1, 0, 0, 1]], float)),
        (h, np.array([[alpha, 0, 0, 0], [2, -1, 0, -1]], float)),
        (f, np.array([[0, 0, alpha, 0], [0, 1, -1, 0]], float)),
    )
    return [s.T @ interpolation_matrix(*cls) @ s for cls, s in pairs]


def step_difference(lam):
    """|z+|^2 - |z|^2 as a quadratic form in v."""
    return lam ** 2 * np.outer(_E, _E) - lam * (np.outer(_E, _E3) +
                                                np.outer(_E3, _E))


def objective_gap_form(alpha, Lf, Lh):
    """Quadratic upper bound on the objective gap that theta multiplies in W1."""
    c = 1.0 / (alpha ** 2 * Lh)
    a = 0.5 / alpha + 0.5 * Lf
    return np.array([
        [1.0 / alpha + 0.5 * Lf - 2.0 * c, c, -a, c],
        [c, -0.5 * c, 0.0, -0.5 * c],
        [-a, 0.0, 0.5 * Lf, 0.0],
        [c, -0.5 * c, 0.0, -0.5 * c],
    ])


def w1(theta, lam, alpha, Lf, Lh):
    return step_difference(lam) + theta * objective_gap_form(alpha, Lf, Lh)


def w2(rho2, lam):
    return step_difference(lam) + (1.0 - rho2) * np.outer(_E3, _E3)


def objective_classes(Lf, Lh):
    return (0.0, Lf), (0.0, math.inf), (0.0, Lh)


def objective_lmi(theta, lam, sigma, alpha, Lf, Lh):
    """W1 + sum sigma_i Q_i for an objective-rate certificate."""
    qs = constraint_matrices(alpha, *objective_classes(Lf, Lh))
    return w1(theta, lam, alpha, Lf, Lh) + sum(s * q for s, q in zip(sigma, qs))


def max_eig(m):
    return float(np.linalg.eigvalsh(0.5 * (m + m.T))[-1])


class ObjectiveReference:
    """Largest objective rate theta at one (alpha, Lf, Lh), without an SDP solver.

    Every feasible W1 + sum sigma_i Q_i vanishes on v = (1, 1, 1, 1), which
    fixes sigma as a linear function of (theta, lam); the LMI is then checked
    on the complement of v. phi(theta, lam), the largest of the top
    eigenvalue there and the -sigma_i, is jointly convex, so its minimum over
    lam is convex in theta: golden section in lam inside bisection in theta.
    """

    def __init__(self, alpha, Lf, Lh):
        qs = constraint_matrices(alpha, *objective_classes(Lf, Lh))
        qv = np.column_stack([q @ _ONES for q in qs])
        t = objective_gap_form(alpha, Lf, Lh)
        # M v = 0: sum sigma_i Q_i v = -theta T v + lam e
        self.s_theta = np.linalg.lstsq(qv, -t @ _ONES, rcond=None)[0]
        self.s_lam = np.linalg.lstsq(qv, _E, rcond=None)[0]
        u = _FACE
        qsum = lambda s: sum(si * q for si, q in zip(s, qs))
        self.a_theta = u.T @ (t + qsum(self.s_theta)) @ u
        self.a_lam = u.T @ (-(np.outer(_E, _E3) + np.outer(_E3, _E))
                            + qsum(self.s_lam)) @ u
        self.a_lam2 = u.T @ np.outer(_E, _E) @ u

    def sigma(self, theta, lam):
        return theta * self.s_theta + lam * self.s_lam

    def phi(self, theta, lam):
        m = theta * self.a_theta + lam * self.a_lam + lam ** 2 * self.a_lam2
        return max(max_eig(m), float(np.max(-self.sigma(theta, lam))))

    def psi(self, theta, iters=80):
        """min over lam in [LAM_MIN, LAM_MAX] of phi(theta, lam); (value, lam)."""
        return _golden(lambda lam: self.phi(theta, lam), LAM_MIN, LAM_MAX, iters)

    def theta_max(self, tol=1e-11):
        """(theta*, lam*), or None when no theta >= 0 is feasible."""
        lo = 0.0
        if self.psi(0.0)[0] > 0.0:
            # psi is convex: look for its minimum over theta >= 0
            hi = self._infeasible_above(1.0)
            val, lo = _golden(lambda th: self.psi(th)[0], 0.0, hi, 80)
            if val > 0.0:
                return None
        hi = self._infeasible_above(max(2.0 * lo, 1.0))
        while hi - lo > tol * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if self.psi(mid)[0] <= 0.0:
                lo = mid
            else:
                hi = mid
        return lo, self.psi(lo)[1]

    def admits(self, theta):
        """True when some theta' >= theta is feasible."""
        p0, p1 = self.psi(0.0)[0], self.psi(theta)[0]
        if p1 <= 0.0:
            return True
        if p1 >= p0:
            return False   # convex and rising beyond theta
        best = self.theta_max()
        return best is not None and best[0] >= theta

    def _infeasible_above(self, start):
        hi = start
        while self.psi(hi)[0] <= 0.0:
            hi *= 2.0
            if hi > 1e12:
                raise ArithmeticError("objective rate unbounded")
        return hi


def _golden(fun, lo, hi, iters):
    """Minimum of a convex function on [lo, hi] by golden section; (value, x)."""
    r = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = fun(d)
    ends = [(fun(lo), lo), (fun(hi), hi), (fc, c), (fd, d)]
    return min(ends)


def linear_lmi_top(rho2, lam, sigma, alpha, classes):
    """Top eigenvalue of W2 + sum sigma_i Q_i, on the subspace that infinite
    multipliers leave.

    A multiplier reported as inf belongs to a constraint matrix that is
    negative semidefinite on the running subspace: the LMI is then checked
    on its null space there, one such matrix at a time.
    """
    qs = constraint_matrices(alpha, *classes)
    m = w2(rho2, lam) + sum(s * q for s, q in zip(sigma, qs)
                            if not math.isinf(s))
    u = np.eye(4)
    pending = [q for s, q in zip(sigma, qs) if math.isinf(s)]
    while pending and u.shape[1] > 0:
        for i, q in enumerate(pending):
            ev, vec = np.linalg.eigh(u.T @ q @ u)
            tol = 1e-10 * max(np.abs(ev).max(), 1e-30)
            if ev[-1] <= tol:
                u = u @ vec[:, np.abs(ev) <= tol]
                del pending[i]
                break
        else:
            return math.inf   # an infinite multiplier on an indefinite constraint
    if u.shape[1] == 0:
        return -math.inf
    return max_eig(u.T @ m @ u)
