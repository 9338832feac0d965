"""Matrix builders and the audit eigenvalue for rate certification.

This module is the one place the certificate matrices are written, each a
small dense symmetric matrix: the quadratic-constraint blocks Q(m, L), their
4x4 sandwiched versions Q1..Q3 (with the direction s_i of each one that a
class with m == L makes negative semidefinite, Q_i = -(1/2m) s_i s_i^T),
the Lyapunov difference matrices W0/W1/W2 and the parts they are built
from, the closed forms that solve the sublinear LMIs, the Schur extension
and the data of the dual rate program. `certify` assembles its programs,
rates and audits from these and keeps no copy. All builders are pure
functions of their arguments. `max_eig`, LAPACK's top eigenvalue, is the
audit margin of every certificate, taken on the 4x4 LMI W + sum sigma_i Q_i.
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
    if not (m == m.T).all():
        m = 0.5 * (m + m.T)
    return m


def _qc_entries(cls):
    """Q(m, L) row by row: -mL/(m+L), 1/2, 1/2, -1/(m+L); for infinite L
    the limits -m and 0."""
    m, L = cls.m, cls.L
    if math.isinf(L):
        return [-m, 0.5, 0.5, 0.0]
    return [-m * L / (m + L), 0.5, 0.5, -1.0 / (m + L)]


def qc_base(cls):
    """The 2x2 quadratic-constraint matrix Q(m, L), entries _qc_entries."""
    return np.array(_qc_entries(cls)).reshape(2, 2)


def _selectors(alpha):
    s1 = np.array([[alpha, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 1.0]])
    s2 = np.array([[alpha, 0.0, 0.0, 0.0], [2.0, -1.0, 0.0, -1.0]])
    s3 = np.array([[0.0, 0.0, alpha, 0.0], [0.0, 1.0, -1.0, 0.0]])
    return s1, s2, s3


# _selectors(alpha) stacked, as _SELECT + alpha _SELECT_ALPHA: the same floats
_SELECT = np.array(_selectors(0.0))
_SELECT_ALPHA = np.array(_selectors(1.0)) - _SELECT


def build_qc_triplet(alpha, f, g, h):
    """The three sandwiched constraint matrices (Q1 for g, Q2 for h, Q3 for f).

    Each is S^T Q(m, L) S for the selector S picking the right deviation
    combination out of v = (x_B - x_B*, y - y*, x_A - x_A*, z - z*). All
    three come from one batched product (S^T Q) S of the (3, 2, 4) selector
    stack, returned as a (3, 4, 4) array; bitwise the three products alone.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    s = _SELECT + alpha * _SELECT_ALPHA
    q = np.array(_qc_entries(g) + _qc_entries(h) + _qc_entries(f))
    q = q.reshape(3, 2, 2)
    return s.transpose(0, 2, 1) @ q @ s


def nsd_directions(alpha, f, g, h):
    """{i: s_i} for each Q_i of build_qc_triplet that is NSD, i.e. m == L.

    Q(m, m) = -(1/2m) (m, -1)(m, -1)^T, so Q_i = -(1/2m) s_i s_i^T with
    s_i = S_i^T (m, -1); for m < L, Q(m, L) is indefinite (its determinant
    is -(m - L)^2 / (4 (m + L)^2)), and so is Q_i.
    """
    return {i: s.T @ np.array([c.m, -1.0])
            for i, (s, c) in enumerate(zip(_selectors(alpha), (g, h, f)))
            if c.m == c.L}


def residual_rate(alpha, lam, Lh):
    """The residual LMI's largest theta, alpha^2 lam (4 - alpha Lh - 2 lam)
    / 2. This and the next two solve the sublinear LMIs (`certify` has the
    proofs); with no float literal, each is exact for Fraction arguments."""
    return alpha ** 2 * lam * (4 - alpha * Lh - 2 * lam) / 2


def objective_cubic(alpha, Lf, Lh, lam, line):
    """The coefficients (c3, c2, c1, c0) in theta of p(theta, lam), with
    det = 2 p / (Lf Lh alpha^4) on the objective LMI's face. line is
    alpha Lh + 2 lam - 4, the factor of c0 that cancels near the refusal
    line: a caller with float data passes it rounded from its exact value."""
    f, h = alpha * Lf, alpha * Lh
    return (Lf, 4 * lam ** 2 - 8 * lam - 8 * f * lam,
            8 * alpha * lam ** 2 * (2 * f - h - 3 * lam + 6),
            16 * alpha ** 2 * lam ** 3 * line)


def objective_quintic(alpha, Lf, Lh):
    """q5..q0 of q(lam), with Res_theta(p, dp/dlam) = -4096 alpha^4 lam^6 q."""
    f, h = alpha * Lf, alpha * Lh
    return (16, -4 * (f - 8 * h + 36),
            16 * (f ** 2 + 5 * f * h + f + h ** 2 - 15 * h + 32),
            4 * (f ** 2 * h - 20 * f ** 2 + 23 * f * h ** 2 - 99 * f * h
                 - 4 * f - 28 * h ** 2 + 164 * h - 224),
            4 * (16 * f ** 3 * h + 14 * f ** 2 * h ** 2 - 16 * f ** 2 * h
                 + 32 * f ** 2 + 13 * f * h ** 3 - 80 * f * h ** 2
                 + 160 * f * h - 4 * h ** 3 + 56 * h ** 2 - 192 * h + 192),
            (h - 4) * (16 * f ** 3 * h + 13 * f ** 2 * h ** 2
                       - 8 * f ** 2 * h + 16 * f ** 2 + 8 * f * h ** 3
                       - 40 * f * h ** 2 + 80 * f * h + 16 * (h - 2) ** 2))


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
    return relaxation(lam) + theta / alpha ** 2 * RELAX_P


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
