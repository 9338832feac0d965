"""Certificate producers for the three convergence regimes.

Sublinear residual and objective rates in closed form, with no solve; the
linear rate (the Schur-extended W2 program, solved by sdpcore) and its dual
cross-check; stepsize sweeps, and empirical Lyapunov validation on traces.
"""

import functools
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import sdpcore
from ._lapack import null_space
# build_w2 and schur_extend are unused here; the traced benchmark patches them
from .lmikit import (RATE_E, RELAX_LIN, RegularityClass, build_dual_data,
                     build_qc_triplet, build_w0, build_w1, build_w2,
                     eta_vector, max_eig, nsd_directions, objective_cubic,
                     objective_quintic, relaxation, residual_rate,
                     schur_extend)

LAM_MIN = 1e-6
LAM_MAX = 4.0
# the largest entry a program may hold: the IPM's equilibration squares and
# sums a row's entries, and 1e150 leaves that room below the float range
PROGRAM_ENTRY_MAX = 1e150
# alpha Lh at or above 4 - 2 LAM_MIN is refused: the line as an integer ratio
_REFUSAL_NUM, _REFUSAL_DEN = (4 - 2 * Fraction(LAM_MIN)).as_integer_ratio()

MODE_RESIDUAL = "sublinearResidual"
MODE_OBJECTIVE = "sublinearObjective"
MODE_LINEAR = "linear"

SENTINEL_RATE = {MODE_RESIDUAL: 0.0, MODE_OBJECTIVE: 0.0, MODE_LINEAR: 1.0}

CLOSED_FORM = "closedForm"  # the sublinear certificates' provenance

# empirical_lyapunov_check's slack: a step's, relative to the value before
# it, and the cumulative rate bound's, relative to the bound
LYAPUNOV_REL_TOL = 1e-7
LYAPUNOV_BOUND_TOL = 1e-6


class CertificationError(Exception):
    pass


@dataclass(frozen=True)
class ProblemClasses:
    f: RegularityClass
    g: RegularityClass
    h: RegularityClass


@dataclass(frozen=True)
class RateCertificate:
    mode: str
    alpha: float
    lam: float
    sigma: tuple
    margin: float
    provenance: str
    theta: float = None
    rho2: float = None

    def rate(self):
        return self.rho2 if self.mode == MODE_LINEAR else self.theta


def certificate_to_json(cert):
    def enc(v):
        if v is None:
            return None
        return "inf" if math.isinf(v) else float(v)
    doc = {
        "mode": cert.mode,
        "alpha": cert.alpha,
        "lambda": cert.lam,
        "sigma": [enc(s) for s in cert.sigma],
        "margin": cert.margin,
        "provenance": cert.provenance,
    }
    if cert.mode == MODE_LINEAR:
        doc["rho2"] = cert.rho2
    else:
        doc["theta"] = cert.theta
    return json.dumps(doc, indent=2)


def certificate_from_json(text):
    doc = json.loads(text)
    def dec(v):
        return math.inf if v == "inf" else float(v)
    return RateCertificate(
        mode=doc["mode"], alpha=doc["alpha"], lam=doc["lambda"],
        sigma=tuple(dec(s) for s in doc["sigma"]), margin=doc["margin"],
        provenance=doc["provenance"], theta=doc.get("theta"),
        rho2=doc.get("rho2"))


def check_assumption1(classes):
    """Some strong convexity, some smoothness of f or g, and smooth h."""
    m_sum = classes.f.m + classes.g.m + classes.h.m
    inv = (0.0 if math.isinf(classes.f.L) else 1.0 / classes.f.L) + \
          (0.0 if math.isinf(classes.g.L) else 1.0 / classes.g.L)
    h_ok = not math.isinf(classes.h.L)
    return m_sum > 0 and inv > 0 and h_ok


def _face(alpha, classes, g=None):
    """Kept indices and orthonormal columns U of the face sigma_i = inf leaves.

    Q_i is NSD exactly when its class has m == L, and then
    Q_i = -(1/2m) s_i s_i^T (lmikit.nsd_directions): its multiplier's optimum
    escapes to infinity, which leaves the LMI on s_i-perp. Every other Q_i
    keeps a finite multiplier, however close its m is to L. With g, the
    face is that of the matrices g^T Q_i g, orthogonal to every g^T s_i.
    """
    dirs = nsd_directions(alpha, classes.f, classes.g, classes.h)
    keep = [i for i in range(3) if i not in dirs]
    if not dirs:
        return keep, np.eye(4)
    rows = np.array(list(dirs.values()))
    return keep, null_space(rows if g is None else rows @ g)


def symbolic_sublinear(lam, Lh):
    """The residual rate on alpha = (2 - lam) / Lh: (2 - lam)^3 lam / 2Lh^2."""
    if not 0 < Lh < math.inf:
        raise CertificationError("Lh must be finite and positive")
    cert = certify_residual_rate((2.0 - lam) / Lh, lam, _case1_classes(Lh))
    return replace(cert, provenance="symbolic")


@functools.lru_cache(maxsize=256)
def _case1_classes(Lh, Lf=math.inf):
    return ProblemClasses(RegularityClass(0.0, Lf),
                          RegularityClass(0.0, math.inf),
                          RegularityClass(0.0, Lh))


def _bordered(a):
    """a with one zero row and column appended (np.pad's result, cheaper)."""
    out = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    out[:-1, :-1] = a
    return out


def _program(c, coefs, rows, u=None, joint=False):
    """min c y with F(y) = F_0 + sum y_i F_i <= 0 as a LinearSdp, where F_i
    is u^T coefs_i u (coefs_i itself for u=None) and then diag(rows_i): each
    sign or bound constraint sits on the diagonal in a row of its own.

    With joint, y_2 is lam with coefs_2 = RELAX_LIN: its square enters
    through the Schur border eta(lam) with corner -1, and LAM_MIN <= lam <=
    LAM_MAX come first on the diagonal. Raises FloatingPointError when an
    entry of c, of a block or of a row exceeds PROGRAM_ENTRY_MAX.
    """
    if joint:
        u = _bordered(u)
        u[4, -1] = 1.0
        coefs = [_bordered(m) for m in coefs]
        coefs[0][4, 4] = -1.0
        coefs[2][:4, 4] = coefs[2][4, :4] = eta_vector(1.0)
        bounds = np.zeros((len(coefs), 2))
        bounds[0], bounds[2] = (LAM_MIN, -LAM_MAX), (-1.0, 1.0)
        rows = np.hstack([bounds, rows])
    blocks = coefs if u is None else [u.T @ m @ u for m in coefs]
    k = len(blocks[0])
    mats = [np.diag(np.concatenate([np.zeros(k), d])) for d in rows]
    for p, b in zip(mats, blocks):
        p[:k, :k] = b
    if not all(np.abs(a).max() <= PROGRAM_ENTRY_MAX for a in (c, *mats)):
        raise FloatingPointError("program data beyond the float range")
    return sdpcore.LinearSdp(c, mats[0], tuple(mats[1:]))


def _horner(coefs, x):
    value = 0.0
    for c in coefs:
        value = value * x + c
    return value


def _roots_between(coefs, lo, hi):
    """The roots in (lo, hi) where a polynomial (highest power first) changes
    sign; one at most lies between two of its derivative's, and degree 1 is
    solved outright. Newton, kept in each bracket [a, b] whose ends differ in
    sign (rtsafe): x replaces the end of its sign, so the root stays in
    [a, b], and a step that leaves (a, b) or is not half the one two before
    bisects. A step below 4 ulps ends it. Values and slopes are _horner's
    recurrence written out; each end is evaluated once."""
    n = len(coefs) - 1
    if n == 1:
        x = -coefs[1] / coefs[0]
        return [x] if lo < x < hi else []
    slope = [c * (n - i) for i, c in enumerate(coefs[:-1])]
    a, fa, roots = lo, 0.0, []
    for c in coefs:
        fa = fa * a + c
    for b in [*_roots_between(slope, lo, hi), hi]:
        fb = 0.0
        for c in coefs:
            fb = fb * b + c
        if fa * fb < 0:
            u, v, x, last, older = a, b, 0.5 * (a + b), b - a, b - a
            while u < x < v and last > 4 * math.ulp(x):
                fx = d = 0.0
                for c in coefs:
                    d = d * x + fx
                    fx = fx * x + c
                u, v = (x, v) if (fx < 0) == (fa < 0) else (u, x)
                step = fx / d if d else math.inf
                if step and not (u < x - step < v and 2 * abs(step) <= older):
                    step = x - 0.5 * (u + v)
                x, last, older = x - step, abs(step), last
            roots.append(x)
        a, fa = b, fb
    return roots


def _smallest_root(c3, c2, c1, c0):
    """The smallest root of a cubic with three positive roots: -c0 / (c3 t2
    t3) by Vieta, t2 <= t3 from the trigonometric formula, so it keeps its
    relative accuracy as c0 -> 0, then one Newton step; 0.0 on roundoff."""
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    p, q = c - b * b / 3, (2 * b * b - 9 * c) * b / 27 + d
    r = math.sqrt(max(-p / 3, 0.0))
    phi = math.acos(max(-1.0, min(1.0, -q / (2 * r) / r / r))) if r else 0.0
    t3 = 2 * r * math.cos(phi / 3) - b / 3
    t2 = 2 * r * math.cos((phi - 2 * math.pi) / 3) - b / 3
    t = -d / (t3 * t2) if t3 * t2 > 0 else 0.0
    slope = (3 * c3 * t + 2 * c2) * t + c1
    return t - _horner((c3, c2, c1, c0), t) / slope if t and slope > 0 else t


def _closed_form(mode, alpha, classes, rate, lmi):
    """The certificate of (theta, lam) = rate(), lmi(theta, lam) = (W, every
    sigma_i), or a refusal, also where a float step leaves the float range,
    divides by zero or forms NaN (-1/L_h = -inf makes the audit's Q_i NaN)."""
    try:
        theta, lam = rate()
        if not theta > 0:
            raise CertificationError(f"no positive theta: rounds to {theta}")
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            w, s = lmi(theta, lam)
            if not (math.isfinite(s) and np.isfinite(w).all()):
                raise OverflowError
            margin = audit(w, (s, s, s), alpha, classes)
    except (OverflowError, ZeroDivisionError, FloatingPointError):
        raise CertificationError("closed form overflows or underflows here")
    if margin > sdpcore.DEFAULT_FEAS_TOL:
        raise CertificationError(
            f"the closed-form certificate fails the audit by {margin:.3g}")
    return RateCertificate(mode=mode, alpha=alpha, lam=lam, sigma=(s, s, s),
                           margin=margin, provenance=CLOSED_FORM, theta=theta)


def certify_residual_rate(alpha, lam, classes):
    """Maximal theta with W0 + sum sigma_i Q_i <= 0 at (alpha, lam), in closed
    form, for nonsmooth f and g, Lh-smooth h and every m = 0. v = (1, 1, 1, 1)
    and w = (0, -1, 0, 1) have v^T M v = w^T M w = 0 for the LMI M, so
    M <= 0 needs M v = M w = 0: sigma_i = 2 lam / alpha. On the basis
    (1, 0, -1, 0), (1, -1, 1, -1) of {v, w}-perp, M is N with N_22 = -32 lam
    / (Lh alpha) and det N = -64 lam (Lh alpha^3 lam + 2 alpha^2 lam^2
    - 4 alpha^2 lam + 2 theta) / (Lh alpha^3): M <= 0 iff theta <=
    lmikit.residual_rate, concave in lam; lam=None takes its maximum
    (4 - alpha Lh) / 4, clipped to [LAM_MIN, LAM_MAX]. Exact in Fraction,
    theta is issued one ulp below its nearest float.
    """
    lh = classes.h.L
    if classes != _case1_classes(lh) or math.isinf(lh):
        raise CertificationError(
            "residual-rate certification needs m = 0 throughout, "
            "nonsmooth f and g, and Lipschitz h")
    if not 0 < alpha < math.inf:
        raise CertificationError("alpha must be positive and finite")
    if lam is not None and not 0 < lam < math.inf:
        raise CertificationError("lam must be positive and finite")
    a, lh = Fraction(alpha), Fraction(lh)
    def rate(lam=lam):
        if lam is None:
            lam = min(max(float((4 - a * lh) / 4), LAM_MIN), LAM_MAX)
        theta = float(residual_rate(a, Fraction(lam), lh))
        return math.nextafter(theta, 0.0), lam
    return _closed_form(MODE_RESIDUAL, alpha, classes, rate, lambda t, lam: (
        build_w0(lam, t, alpha), 2.0 * lam / alpha))


def _split_below_line(alpha, Lh):
    """(h_hi, h_lo), each rounded once, with alpha Lh = h_hi + h_lo exactly;
    refused at or above alpha Lh = 4 - 2 LAM_MIN. Exact in integers, from
    the floats' integer ratios: Python's int true division rounds correctly.
    """
    (a_num, a_den), (l_num, l_den) = (alpha.as_integer_ratio(),
                                      Lh.as_integer_ratio())
    num, den = a_num * l_num, a_den * l_den  # alpha Lh = num / den
    if num * _REFUSAL_DEN >= _REFUSAL_NUM * den:
        raise CertificationError(
            "alpha * Lh >= 4 - 2 LAM_MIN: no lam in [LAM_MIN, LAM_MAX] gives "
            "a positive theta (Davis-Yin range lam <= 2 - alpha Lh / 2)")
    h_hi = num / den
    hi_num, hi_den = h_hi.as_integer_ratio()
    return h_hi, (num * hi_den - hi_num * den) / (den * hi_den)


def certify_objective_rate(alpha, Lf, Lh):
    """Maximal theta for the objective-value rate over lam in [LAM_MIN,
    LAM_MAX], in closed form; f and h are smooth (L = Lf, Lh), g nonsmooth
    and every m = 0. For the LMI M:
    - v = (1, 1, 1, 1) has v^T M v = 0, so M <= 0 needs M v = 0: sigma_i =
      (2 alpha lam - theta) / alpha^2. On a basis of v-perp M is theta B +
      N(lam), det = 2 p(theta, lam) / (Lf Lh alpha^4) with p the cubic
      lmikit.objective_cubic, B > 0 and N(lam) <= 0 iff alpha Lh + 2 lam <= 4
      (Davis and Yin's range, Set-Valued Var. Anal. 25, 2017; the tests check
      all three in Fraction): alpha Lh >= 4 - 2 LAM_MIN is refused.
    - Below lam_R = (4 - alpha Lh) / 2, N(lam) < 0, so p's roots (the
      pencil's eigenvalues) are positive and M <= 0 iff theta <= theta*(lam),
      the smallest. sigma > 0 there, as p(2 alpha lam, lam) > 0.
    - theta*(lam_R) = 0, as p's constant term vanishes. An interior maximum
      lies on an eigenvalue branch, analytic in lam (Rellich), where
      dtheta/dlam = 0 or two branches cross: p and dp/dlam share a root, so
      q(lam) = 0 (lmikit.objective_quintic); lam* is LAM_MIN or such a root.
    - The refusal test is exact, and c0's factor alpha Lh + 2 lam - 4 is
      rounded once: _split_below_line gives alpha Lh = h_hi + h_lo exactly,
      in integer arithmetic (a float product's rounding error is a float,
      short of underflow), and fsum rounds h_hi + h_lo + 2 lam - 4 once.
    theta*(lam*) is issued less 2^-42 of itself: it is within a few ulps.
    """
    if not 0 < alpha < math.inf:
        raise CertificationError("alpha must be positive and finite")
    if not (math.isfinite(Lf) and math.isfinite(Lh) and Lf > 0 and Lh > 0):
        raise CertificationError("Lf and Lh must be finite and positive")
    h_hi, h_lo = _split_below_line(alpha, Lh)
    def theta_at(lam):
        line = math.fsum((h_hi, h_lo, 2 * lam, -4.0))
        return _smallest_root(*objective_cubic(alpha, Lf, Lh, lam, line)), lam
    def rate():
        theta, lam = max(map(theta_at, [LAM_MIN, *_roots_between(
            objective_quintic(alpha, Lf, Lh), LAM_MIN, 2 - alpha * Lh / 2)]))
        return theta * (1.0 - 2.0 ** -42), lam
    return _closed_form(
        MODE_OBJECTIVE, alpha, _case1_classes(Lh, Lf), rate, lambda t, lam: (
            build_w1(lam, t, alpha, Lf, Lh), (2 * alpha * lam - t) / alpha**2))


def linear_rate_value(alpha, classes, lam=None):
    """Optimal rho2 of the linear-rate program, unclipped.

    Minimizes rho2 over W2 + sum s_i Q_i <= 0, W2 = RATE_E - rho2 RATE_E +
    R(lam) with R = lmikit.relaxation, on _face: s_i = inf exactly for each
    class with m == L. rho2 >= 0 and each variable s_i >= 0 sit on the
    diagonal. A pinned lam puts R(lam) in the constant; with lam=None, lam
    is a variable in [LAM_MIN, LAM_MAX] (the joint form of _program).
    Solved at sdpcore's default tolerances and iteration budget.
    Returns (rho2, lam, sigma, status). Refused unless alpha and a pinned
    lam are positive and finite, and, before numpy can warn, when alpha^2
    overflows the Q_i, a pinned lam^2 overflows, or an entry of the
    program exceeds PROGRAM_ENTRY_MAX.
    """
    if not 0 < alpha < math.inf:
        raise CertificationError("alpha must be positive and finite")
    if lam is not None and not 0 < lam < math.inf:
        raise CertificationError("lam must be positive and finite")
    if not check_assumption1(classes):
        raise CertificationError("assumption1 violated")
    joint = lam is None
    try:
        with np.errstate(over="raise", invalid="raise"):
            qs = build_qc_triplet(alpha, classes.f, classes.g, classes.h)
            keep, u = _face(alpha, classes)
            coefs = ([RATE_E, -RATE_E, RELAX_LIN] if joint
                     else [RATE_E + relaxation(lam), -RATE_E])
            signs = [1, *range(len(coefs), len(coefs) + len(keep))]
            coefs += [qs[i] for i in keep]
            rows = np.zeros((len(coefs), len(signs)))
            rows[signs, range(len(signs))] = -1.0
            c = np.zeros(len(coefs) - 1)
            c[0] = 1.0
            prob = _program(c, coefs, rows, u, joint)
    except (FloatingPointError, OverflowError):  # OverflowError: lam ** 2
        raise CertificationError("linear-rate program overflows here")
    sol = sdpcore.solve_sdp(prob)
    sigma = np.full(3, math.inf)
    sigma[keep] = sol.y[1 + joint:]
    lam_out = float(min(max(sol.y[1], LAM_MIN), LAM_MAX)) if joint else lam
    return (float(sol.y[0]), lam_out, tuple(float(s) for s in sigma),
            sol.status)


def audit(w, sigma, alpha, classes):
    """Audit margin of a certificate: top eigenvalue of W + sum sigma_i Q_i.

    One audit serves every mode: w is the mode's 4x4 W0, W1 or W2, also
    where the program is Schur-extended; the Q_i are those of (alpha,
    classes). An infinite sigma_i is the limit of an NSD Q_i, whose class
    has m == L: the LMI is then checked on _face(alpha, classes). For a
    class with m != L it proves nothing, and the margin is inf.
    """
    qs = build_qc_triplet(alpha, classes.f, classes.g, classes.h)
    finite = [math.isfinite(s) for s in sigma]
    m = w
    for s, q, ok in zip(sigma, qs, finite):
        if ok:
            m = m + s * q
    if not all(finite):
        keep, u = _face(alpha, classes)
        if any(math.isinf(sigma[i]) for i in keep):
            return math.inf
        m = u.T @ m @ u
    return max_eig(m)


def certify_linear_rate(alpha, classes, lam=None):
    """Linear-rate certificate rho2 < 1, jointly over lam unless pinned.

    Refused where linear_rate_value refuses, when the program is
    infeasible, when 1 - rho2 is not above sdpcore.DEFAULT_FEAS_TOL, when
    the audit margin of the rebuilt LMI exceeds it, as for every producer,
    or when the margin plus the audit's rounding bound exceeds it: the top
    eigenvalue of M = W2 + sum sigma_i Q_i is computed to within a few eps
    times the Frobenius norm of |W2| + sum |sigma_i| |Q_i| (finite sigma_i),
    which large alpha^2 sigma_i can make exceed the features of W2 (Rump,
    BIT 46, 2006); the bound taken is 16 eps times that norm.
    """
    rho2, lam_out, sigma, status = linear_rate_value(alpha, classes, lam)
    if status == sdpcore.STATUS_INFEASIBLE:
        raise CertificationError("linear-rate program infeasible")
    # a contraction within the solver's tolerance of 1 is roundoff
    if not 1.0 - rho2 > sdpcore.DEFAULT_FEAS_TOL:
        raise CertificationError("no linear certificate at this alpha")
    # W_O - rho2 W_I is W2 also at the rho2 <= 0 of a solve cut short
    w_o, w_i, _ = build_dual_data(lam_out)
    w2 = w_o - rho2 * w_i
    margin = audit(w2, sigma, alpha, classes)
    # a solve cut short may stop at a rate its multipliers do not prove
    if margin > sdpcore.DEFAULT_FEAS_TOL:
        raise CertificationError(
            f"linear-rate program ended {status} and its LMI fails the audit"
            f" by {margin:.3g}")
    qs = build_qc_triplet(alpha, classes.f, classes.g, classes.h)
    rounding = 16 * np.finfo(float).eps * np.linalg.norm(abs(w2) + sum(
        abs(s) * abs(q) for s, q in zip(sigma, qs) if math.isfinite(s)))
    if margin + rounding > sdpcore.DEFAULT_FEAS_TOL:
        raise CertificationError(
            f"the float audit cannot resolve the linear-rate LMI: margin "
            f"{margin:.3g} plus its rounding bound {rounding:.3g}")
    return RateCertificate(
        mode=MODE_LINEAR, alpha=alpha, lam=lam_out, sigma=sigma,
        margin=margin, provenance="sdp", rho2=rho2)


def dual_linear_rate(alpha, lam, classes, return_z=False):
    """Optimal value of the dual rate program at fixed (alpha, lam).

    Maximizes Tr(G^T W_O G Z) over Z >= 0 with the trace normalization
    Tr(G^T W_I G Z) = 1 and the scalar QC inequalities tr(G^T Q_i G Z) >= 0
    on the diagonal (_program, on the face). The G^T Q_i G of a class with
    m == L is -(1/2m) (G^T s_i)(G^T s_i)^T, so its inequality forces Z onto
    the face orthogonal to G^T s_i (_face with g = G); it is eliminated up
    front. Z runs over z0 plus the span of the symmetric units, each less
    its trace times z0. Solved at sdpcore's default tolerances; refused
    when the program is infeasible, when its data build overflows (alpha^2
    in the Q_i, even one the face drops, or lam^2), as the primal's does,
    when the solve's audit slack overflows, or when the slack exceeds
    sdpcore.DEFAULT_FEAS_TOL, as a solve cut short leaves it. alpha and
    lam must be positive and finite.
    """
    if not 0 < alpha < math.inf:
        raise CertificationError("alpha must be positive and finite")
    if not 0 < lam < math.inf:
        raise CertificationError("lam must be positive and finite")
    if not check_assumption1(classes):
        raise CertificationError("assumption1 violated")
    try:
        with np.errstate(over="raise", invalid="raise"):
            qs = build_qc_triplet(alpha, classes.f, classes.g, classes.h)
            w_o, w_i, gm = build_dual_data(lam)
            keep, u = _face(alpha, classes, gm)
            pr, nmat, *rr = [u.T @ (gm.T @ m @ gm) @ u
                             for m in (w_o, w_i, *(qs[i] for i in keep))]
            iu, ju = np.triu_indices(u.shape[1])
            units = np.zeros((len(iu), *nmat.shape))
            units[range(len(iu)), iu, ju] = 1.0
            units[range(len(iu)), ju, iu] = 1.0
            traces = np.where(iu == ju, nmat[iu, ju],
                              nmat[iu, ju] + nmat[ju, iu])
            k0 = np.argmax(abs(traces))
            t0 = traces[k0]
            if abs(t0) < 1e-12:
                raise CertificationError(
                    "normalization unreachable on the subspace")
            z0 = units[k0] / t0
            basis = np.delete(
                units - (traces / t0)[:, None, None] * units[k0], k0, axis=0)
            zs = [z0, *basis]
            rows = np.array([[-np.trace(rm @ z) for rm in rr] for z in zs])
            c = np.array([-np.trace(pr @ b) for b in basis])
            prob = _program(c, [-z for z in zs], rows)
    except (FloatingPointError, OverflowError):  # OverflowError: lam ** 2
        raise CertificationError("dual program overflows here")
    sol = sdpcore.solve_sdp(prob)
    if sol.status == sdpcore.STATUS_INFEASIBLE:
        raise CertificationError("dual program infeasible")
    if math.isinf(sol.slack):  # its audit overflowed
        raise CertificationError("dual program overflows here")
    if sol.slack > sdpcore.DEFAULT_FEAS_TOL:
        raise CertificationError(f"dual program ended {sol.status} and fails"
                                 f" its audit by {sol.slack:.3g}")
    zred = z0 + sum(yk * b for yk, b in zip(sol.y, basis))
    val = float(np.trace(pr @ zred))
    if return_z:
        return val, u @ zred @ u.T
    return val


def certify_rate(mode, alpha, classes, lam=None):
    """The certificate of one mode at one stepsize; lam=None optimizes it.

    The objective mode always optimizes lam, so a lam for it is a
    ValueError. Only the linear producer solves; every producer gates its
    audit margin on sdpcore.DEFAULT_FEAS_TOL.
    """
    if mode == MODE_OBJECTIVE and lam is not None:
        raise ValueError("the objective mode optimizes lambda; "
                         "it takes no pinned lambda")
    if mode == MODE_LINEAR:
        return certify_linear_rate(alpha, classes, lam=lam)
    if mode == MODE_RESIDUAL:
        return certify_residual_rate(alpha, lam, classes)
    if mode == MODE_OBJECTIVE:
        return certify_objective_rate(alpha, classes.f.L, classes.h.L)
    raise ValueError(f"unknown mode {mode}")


def sweep_alpha(alpha_grid, classes, mode, lam=None):
    """Rate curve over a stepsize grid plus the grid-optimal point.

    Infeasible points carry the sentinel rate (1 for linear, 0 for the
    sublinear modes) and feasible=False in the curve records.
    """
    grid = list(alpha_grid)
    if not grid:
        raise CertificationError("empty alpha grid")
    curve = []
    for alpha in grid:
        try:
            cert = certify_rate(mode, alpha, classes, lam)
            curve.append({"alpha": alpha, "rate": cert.rate(),
                          "lambda": cert.lam, "feasible": True})
        except CertificationError:
            curve.append({"alpha": alpha, "rate": SENTINEL_RATE[mode],
                          "lambda": None, "feasible": False})
    feas = [rec for rec in curve if rec["feasible"]]
    if not feas:
        raise CertificationError("no feasible point on the alpha grid")
    if mode == MODE_LINEAR:
        best = min(feas, key=lambda rec: (rec["rate"], rec["alpha"]))
    else:
        best = max(feas, key=lambda rec: (rec["rate"], -rec["alpha"]))
    return curve, (best["alpha"], best["rate"])


def empirical_lyapunov_check(trace, fixed_point, cert, fstar=None):
    """Validate a certificate's Lyapunov decrease and rate bound on a trace.

    Returns a report dict with per-iteration violations (empty means pass)
    and the cumulative rate-bound comparison.
    """
    zstar = np.asarray(fixed_point, dtype=float)
    zs = np.asarray(trace.z)
    if zs.shape[1] != zstar.size:
        raise ValueError("dimension mismatch between trace and fixed point")
    dist2 = ((zs - zstar) ** 2).sum(axis=1)
    violations = []
    detail = {}
    if cert.mode == MODE_LINEAR:
        rho2 = cert.rho2
        # iterates at the round-off floor carry no rate information
        floor = (100.0 * np.finfo(float).eps) ** 2 * (1.0 + zstar @ zstar)
        for k in range(len(dist2) - 1):
            lim = rho2 * dist2[k]
            slack = LYAPUNOV_REL_TOL * max(dist2[k], 1e-300)
            if dist2[k + 1] > lim + slack and dist2[k + 1] > floor:
                violations.append(k)
        k_arr = np.arange(len(dist2))
        bound = dist2[0] * rho2 ** k_arr * (1.0 + LYAPUNOV_BOUND_TOL)
        bound_ok = bool((dist2 <= bound).all())
        detail["max_ratio"] = float(
            np.sqrt(np.max(dist2[1:] / np.maximum(dist2[:-1], 1e-300))))
    elif cert.mode in (MODE_RESIDUAL, MODE_OBJECTIVE):
        # theta-weighted sums of the squared residuals or the objective gaps
        if cert.mode == MODE_RESIDUAL:
            seq = np.asarray(trace.residual_norm2)
        elif fstar is None:
            raise ValueError("objective mode needs the optimal value fstar")
        else:
            seq = np.asarray(trace.objective) - fstar
        theta = cert.theta
        v = dist2[:len(seq) + 1] + theta * np.concatenate(
            [[0.0], np.cumsum(seq)])[:len(dist2)]
        for k in range(len(v) - 1):
            if v[k + 1] > v[k] + LYAPUNOV_REL_TOL * max(v[k], 1e-300):
                violations.append(k)
        running_min = np.minimum.accumulate(seq)
        ks = np.arange(1, len(seq) + 1)
        bound_ok = bool((running_min * theta * ks
                         <= dist2[0] * (1.0 + LYAPUNOV_BOUND_TOL)).all())
        detail["worst_product"] = float(np.max(running_min * theta * ks))
    else:
        raise ValueError(f"unknown mode {cert.mode}")
    return {"violations": violations, "bound_ok": bound_ok,
            "initial_dist2": float(dist2[0]), **detail}
