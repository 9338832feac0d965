"""Matrix builders and the audit eigenvalue for rate certification.

This module is the one place the certificate matrices are written, each a
small dense symmetric matrix: the quadratic-constraint blocks Q(m, L), their
4x4 sandwiched versions Q1..Q3 (with the direction s_i of each one that a
class with m == L makes negative semidefinite, Q_i = -(1/2m) s_i s_i^T),
the Lyapunov difference matrices W0/W1/W2 and the parts they are built
from, the face of the sublinear programs, the Schur-complement extension,
and the data of the dual rate program. `certify` assembles its programs
and audits from these and keeps no copy. All builders are pure functions
of their arguments. `max_eig`, LAPACK's top eigenvalue, is the audit
margin of every certificate, taken on the 4x4 LMI W + sum sigma_i Q_i.
`eigvalsh` is the one eigenvalue routine of the package: `max_eig` and
the IPM loop both call it.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dsyevd

KRON_DIM_CAP = 64


@dataclass(frozen=True)
class RegularityClass:
    """Strong convexity modulus m and Lipschitz gradient constant L.

    L may be math.inf for nonsmooth functions, in which case 1/L = 0.
    """
    m: float
    L: float

    def __post_init__(self):
        if not (0 <= self.m < math.inf):
            raise ValueError("m must be finite and >= 0")
        if not (self.L > 0):
            raise ValueError("L must be > 0")
        if self.m > self.L:
            raise ValueError("m must not exceed L")

    @property
    def smooth(self):
        return math.isfinite(self.L)


def sym_check(m):
    """Validate and return a finite symmetric matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(m, m.T):
        m = 0.5 * (m + m.T)
    return m


def qc_base(cls):
    """The 2x2 quadratic-constraint matrix Q(m, L).

    Entries -mL/(m+L), 1/2, -1/(m+L); for infinite L the limits -m and 0.
    """
    m, L = cls.m, cls.L
    if math.isinf(L):
        return np.array([[-m, 0.5], [0.5, 0.0]])
    return np.array([[-m * L / (m + L), 0.5], [0.5, -1.0 / (m + L)]])


def _selectors(alpha):
    s1 = np.array([[alpha, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 1.0]])
    s2 = np.array([[alpha, 0.0, 0.0, 0.0], [2.0, -1.0, 0.0, -1.0]])
    s3 = np.array([[0.0, 0.0, alpha, 0.0], [0.0, 1.0, -1.0, 0.0]])
    return s1, s2, s3


def build_qc_triplet(alpha, f, g, h):
    """The three sandwiched constraint matrices (Q1 for g, Q2 for h, Q3 for f).

    Each is S^T Q(m, L) S for the selector S picking the right deviation
    combination out of v = (x_B - x_B*, y - y*, x_A - x_A*, z - z*).
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    s1, s2, s3 = _selectors(alpha)
    q1 = s1.T @ qc_base(g) @ s1
    q2 = s2.T @ qc_base(h) @ s2
    q3 = s3.T @ qc_base(f) @ s3
    return q1, q2, q3


def nsd_directions(alpha, f, g, h):
    """{i: s_i} for each Q_i of build_qc_triplet that is NSD, i.e. m == L.

    Q(m, m) = -(1/2m) (m, -1)(m, -1)^T, so Q_i = -(1/2m) s_i s_i^T with
    s_i = S_i^T (m, -1); for m < L, Q(m, L) is indefinite (its determinant
    is -(m - L)^2 / (4 (m + L)^2)), and so is Q_i.
    """
    return {i: s.T @ np.array([c.m, -1.0])
            for i, (s, c) in enumerate(zip(_selectors(alpha), (g, h, f)))
            if c.m == c.L}


# The face of the sublinear programs (every m = 0): each selector maps
# v = (1, 1, 1, 1) to (alpha, 0), so Q_i v = (alpha / 2) r_i with r_i the
# integer second row of S_i, and FACE_FOLD, the integer left inverse of
# [r_1 r_2 r_3], fixes sigma from M v = 0. FACE_BASIS spans v-perp; the
# residual program also annihilates w = (0, -1, 0, 1), and RESIDUAL_BASIS
# is an orthonormal basis of {v, w}-perp.
FACE_FOLD = np.array([[0, -1, -1, 1], [0, -1, -1, 0], [0, 0, -1, 0]])
FACE_BASIS = np.array([[1, 1, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]], float)
RESIDUAL_BASIS = (np.array([[1, 0, -1, 0], [1, -1, 1, -1]]).T
                  / [math.sqrt(2.0), 2.0])


def face_sigma(alpha, w):
    """-(2 / alpha) FACE_FOLD W v, the sigma with (W + sum sigma_i Q_i) v = 0.

    It takes no float literal, so it is exact for Fraction alpha and W.
    """
    return -(2 / alpha) * (FACE_FOLD @ w.sum(axis=1))


# The parts every certificate LMI is written from, here and nowhere else.
# W0, W1 and W2 share the relaxation part lam^2 RELAX_P + lam RELAX_LIN, with
# RELAX_P = eta(1) eta(1)^T, and differ in their rate term: theta / alpha^2
# RELAX_P for W0, theta w1_slope for W1 and (1 - rho2) RATE_E for W2.
RELAX_P = np.array([
    [1.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
    [-1.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
])
RELAX_LIN = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [-1.0, 0.0, 1.0, 0.0],
])
RATE_E = np.diag([0.0, 0.0, 0.0, 1.0])


def relaxation(lam):
    """lam^2 RELAX_P + lam RELAX_LIN, the part W0, W1 and W2 share."""
    return lam ** 2 * RELAX_P + lam * RELAX_LIN


def w0_rate(theta, alpha):
    """The rate term theta / alpha^2 RELAX_P of W0."""
    return theta / alpha ** 2 * RELAX_P


def w1_slope(alpha, Lf, Lh):
    """The coefficient of theta in W1."""
    c = 1.0 / (alpha ** 2 * Lh)
    b = -(0.5 / alpha + Lf / 2.0)
    return np.array([
        [1.0 / alpha + Lf / 2.0 - 2.0 * c, c, b, c],
        [c, -c / 2.0, 0.0, -c / 2.0],
        [b, 0.0, Lf / 2.0, 0.0],
        [c, -c / 2.0, 0.0, -c / 2.0],
    ])


def build_w0(lam, theta, alpha):
    """The 4x4 Lyapunov difference matrix of the residual-rate certificate."""
    if not (lam > 0 and theta > 0 and alpha > 0):
        raise ValueError("lam, theta, alpha must be positive")
    return relaxation(lam) + w0_rate(theta, alpha)


def build_w1(lam, theta, alpha, Lf, Lh):
    """The 4x4 Lyapunov difference matrix of the objective-rate certificate."""
    if not (lam > 0 and alpha > 0 and theta >= 0):
        raise ValueError("lam, alpha must be positive and theta nonnegative")
    if not (math.isfinite(Lf) and math.isfinite(Lh) and Lf > 0 and Lh > 0):
        raise ValueError("Lf and Lh must be finite and positive")
    return relaxation(lam) + theta * w1_slope(alpha, Lf, Lh)


def build_w2(lam, rho2):
    """The 4x4 Lyapunov difference matrix of the linear-rate certificate."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    if not (0 < rho2 <= 1):
        raise ValueError("rho2 must lie in (0, 1]")
    return relaxation(lam) + (1.0 - rho2) * RATE_E


def eta_vector(lam):
    return np.array([lam, 0.0, -lam, 0.0])


def schur_extend(m, lam):
    """Border a 4x4 matrix with eta = (lam, 0, -lam, 0) and corner -1.

    The caller passes m with the eta eta^T part already removed; the 5x5
    result is negative semidefinite iff m + eta eta^T is.
    """
    m = sym_check(m)
    if m.shape != (4, 4):
        raise ValueError("m must be 4x4")
    eta = eta_vector(lam)
    out = np.empty((5, 5))
    out[:4, :4] = m
    out[:4, 4] = eta
    out[4, :4] = eta
    out[4, 4] = -1.0
    return out


def build_dual_data(lam):
    """Data (W_O, W_I, G) of the dual rate program; W2 = W_O - rho2 W_I."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    g = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [-1.0, 0.0, 2.0, -1.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ])
    return relaxation(lam) + RATE_E, RATE_E.copy(), g


def eigvalsh(m):
    """Ascending eigenvalues of a symmetric matrix, from its lower triangle.

    Calls LAPACK's dsyevd directly, as numpy.linalg.eigvalsh does, without
    numpy's gufunc set-up, which costs as much as the solve at n <= 9.
    """
    w, _, info = dsyevd(m, compute_v=0, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dsyevd")
    return w


def max_eig(m):
    """Largest eigenvalue of a symmetric matrix (LAPACK's dsyevd)."""
    return float(eigvalsh(sym_check(m))[-1])


def kron_identity(base, d):
    """The Kronecker product base kron I_d (cross-validation of the d=1 use)."""
    base = sym_check(base)
    if d < 1:
        raise ValueError("d must be >= 1")
    if base.shape[0] * d > KRON_DIM_CAP:
        raise ValueError("requested dimension exceeds cap")
    return np.kron(base, np.eye(d))
