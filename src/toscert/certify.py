"""Certificate producers for the three convergence regimes.

Sublinear residual rate (feasibility of W0 + sum sigma_i Q_i <= 0, theta
maximized), sublinear objective rate (the Schur-extended W1 program), linear
rate (the Schur-extended W2 program) and its dual cross-check, stepsize
sweeps, and empirical Lyapunov validation of certificates on solver traces.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sdpcore
from ._lapack import null_space
# build_w2 and schur_extend are unused here; the traced benchmark patches them
from .lmikit import (FACE_BASIS, RATE_E, RELAX_LIN, RESIDUAL_BASIS,
                     RegularityClass, build_dual_data, build_qc_triplet,
                     build_w0, build_w1, build_w2, eta_vector, face_sigma,
                     max_eig, nsd_directions, relaxation, schur_extend,
                     w0_rate, w1_slope)

LAM_MIN = 1e-6
LAM_MAX = 4.0

MODE_RESIDUAL = "sublinearResidual"
MODE_OBJECTIVE = "sublinearObjective"
MODE_LINEAR = "linear"

SENTINEL_RATE = {MODE_RESIDUAL: 0.0, MODE_OBJECTIVE: 0.0, MODE_LINEAR: 1.0}


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


def _qc_mats(alpha, classes):
    return list(build_qc_triplet(alpha, classes.f, classes.g, classes.h))


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
    """Closed-form residual-rate certificate for one Lipschitz operator."""
    if not (0 < lam < 2):
        raise CertificationError("lam must lie in (0, 2)")
    if not (math.isfinite(Lh) and Lh > 0):
        raise CertificationError("Lh must be finite and positive")
    alpha = (2.0 - lam) / Lh
    theta = (2.0 - lam) ** 3 * lam / (2.0 * Lh ** 2)
    sig = 2.0 * lam / alpha
    margin = audit(build_w0(lam, theta, alpha), (sig, sig, sig), alpha,
                   _case1_classes(Lh))
    return RateCertificate(
        mode=MODE_RESIDUAL, alpha=alpha, lam=lam, sigma=(sig, sig, sig),
        margin=margin, provenance="symbolic", theta=theta)


def _case1_classes(Lh):
    return ProblemClasses(RegularityClass(0.0, math.inf),
                          RegularityClass(0.0, math.inf),
                          RegularityClass(0.0, Lh))


def _require_case1(classes):
    c = classes
    ok = (c.f.m == 0 and c.g.m == 0 and c.h.m == 0
          and math.isinf(c.f.L) and math.isinf(c.g.L) and c.h.L < math.inf)
    if not ok:
        raise CertificationError(
            "residual-rate certification needs m = 0 throughout, "
            "nonsmooth f and g, and Lipschitz h")


def _bordered(a):
    """a with one zero row and column appended (np.pad's result, cheaper)."""
    out = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    out[:-1, :-1] = a
    return out


def _rate_program(sense, const, rate, alpha, classes, lam=None, basis=None):
    """const + t rate + R(lam) + sum s_i Q_i <= 0 as a LinearSdp on its face.

    t >= 0 is the rate, minimized for sense = 1 and maximized for sense = -1;
    R(lam) = lmikit.relaxation(lam). A pinned lam puts R(lam) in the
    constant. With lam=None, lam is the variable after t: its square enters
    through the Schur border eta(lam) with corner -1, and
    LAM_MIN <= lam <= LAM_MAX sits on the diagonal. The caller picks the
    face by the program's structure. A sublinear program (every m = 0)
    passes its basis: M v = 0 fixes s = S (1, t[, lam]) by
    lmikit.face_sigma, S is folded into the coefficients, s >= 0 sits on
    the diagonal and the LMI is kept on the basis. Otherwise the s_i are
    variables, except s_i = inf for each Q_i whose class has m == L, and
    the LMI is kept on _face. Last on the diagonal, each in a row of its
    own, come t >= 0 and each variable s_i >= 0. Returns the program and
    a map from its solution to (t, lam, s).
    """
    qs = _qc_mats(alpha, classes)
    joint = lam is None
    if joint:
        coefs = [const, rate, RELAX_LIN]
    else:
        coefs = [const + relaxation(lam), rate]
    n0 = len(coefs)
    if basis is not None:
        fold = np.column_stack([face_sigma(alpha, w) for w in coefs])
        coefs = [w + sum(s * q for s, q in zip(col, qs))
                 for w, col in zip(coefs, fold.T)]
        keep, u = [], basis
    else:
        fold = np.zeros((0, n0))
        keep, u = _face(alpha, classes)
        coefs += [qs[i] for i in keep]
    signs = [1, *range(2 + joint, len(coefs))]
    tail = np.zeros((len(coefs), 2 * joint + len(fold) + len(signs)))
    tail[:n0, 2 * joint:-len(signs)] = -fold.T
    tail[signs, range(-len(signs), 0)] = -1.0
    if joint:
        u = _bordered(u)
        u[4, -1] = 1.0
        coefs = [_bordered(m) for m in coefs]
        coefs[0][4, 4] = -1.0
        coefs[2][:4, 4] = coefs[2][4, :4] = eta_vector(1.0)
        tail[0, :2] = LAM_MIN, -LAM_MAX
        tail[2, :2] = -1.0, 1.0
    blocks = [u.T @ m @ u for m in coefs]
    k = len(blocks[0])
    mats = [np.diag(np.concatenate([np.zeros(k), d])) for d in tail]
    for p, b in zip(mats, blocks):
        p[:k, :k] = b
    c = np.zeros(len(mats) - 1)
    c[0] = sense
    prob = sdpcore.LinearSdp(c, mats[0], tuple(mats[1:]))

    def unpack(sol):
        t = float(sol.y[0])
        lam_out = float(min(max(sol.y[1], LAM_MIN), LAM_MAX)) if joint else lam
        if len(fold):
            sigma = fold @ np.array([1.0, t, lam_out][:n0])
        else:
            sigma = np.full(len(qs), math.inf)
            sigma[keep] = sol.y[1 + joint:]
        return t, lam_out, tuple(float(s) for s in sigma)
    return prob, unpack


def certify_residual_rate(alpha, lam, classes,
                          feas_tol=sdpcore.DEFAULT_FEAS_TOL,
                          gap_tol=sdpcore.DEFAULT_GAP_TOL,
                          max_iter=sdpcore.DEFAULT_MAX_ITER):
    """Maximal theta with W0 + sum sigma_i Q_i <= 0 at fixed (alpha, lam).

    With lam=None the relaxation parameter is optimized jointly through the
    Schur-extended form, searched over [LAM_MIN, LAM_MAX]. The LMI is kept
    on the face lmikit.RESIDUAL_BASIS spans, where sigma is fixed by
    (alpha, lam). A certificate is issued only from an optimal solve.
    """
    _require_case1(classes)
    if not alpha > 0:
        raise CertificationError("alpha must be positive")
    if lam is not None and not lam > 0:
        raise CertificationError("lam must be positive")
    prob, unpack = _rate_program(-1.0, np.zeros((4, 4)), w0_rate(1.0, alpha),
                                 alpha, classes, lam, basis=RESIDUAL_BASIS)
    sol = sdpcore.solve_sdp(prob, feas_tol, gap_tol, max_iter)
    # a cut solve's y says nothing of theta, so its status goes first
    if sol.status not in (sdpcore.STATUS_OPTIMAL, sdpcore.STATUS_INFEASIBLE):
        raise CertificationError(
            f"residual-rate program ended {sol.status} at this (alpha, lam)")
    theta, lam_out, sigma = unpack(sol)
    if sol.status == sdpcore.STATUS_INFEASIBLE or theta <= 0:
        raise CertificationError("no positive theta at this (alpha, lam)")
    margin = audit(build_w0(lam_out, theta, alpha), sigma, alpha, classes)
    return RateCertificate(
        mode=MODE_RESIDUAL, alpha=alpha, lam=lam_out, sigma=sigma,
        margin=margin, provenance="sdp", theta=theta)


def _objective_program(alpha, Lf, Lh):
    """The objective-rate program on lmikit.FACE_BASIS, its unpack map and
    its classes (f with L = Lf, nonsmooth g, h with L = Lh, every m = 0)."""
    classes = ProblemClasses(RegularityClass(0.0, Lf),
                             RegularityClass(0.0, math.inf),
                             RegularityClass(0.0, Lh))
    prob, unpack = _rate_program(-1.0, np.zeros((4, 4)),
                                 w1_slope(alpha, Lf, Lh), alpha, classes,
                                 basis=FACE_BASIS)
    return prob, unpack, classes


def certify_objective_rate(alpha, Lf, Lh, feas_tol=sdpcore.DEFAULT_FEAS_TOL,
                           gap_tol=sdpcore.DEFAULT_GAP_TOL,
                           max_iter=sdpcore.DEFAULT_MAX_ITER):
    """Maximal theta for the objective-value rate with smooth f and h.

    Solves the Schur-extended program jointly over (theta, lam, sigma),
    lam searched over [LAM_MIN, LAM_MAX], on the face M v = 0 spanned by
    lmikit.FACE_BASIS: it fixes sigma as a linear function of (theta, lam)
    (lmikit.face_sigma). A certificate is issued only from an optimal solve.

    No solve is made when alpha Lh >= 4 - 2 LAM_MIN, compared exactly in
    Fraction: no lam in [LAM_MIN, LAM_MAX] then admits a positive theta.
    This is Davis and Yin's relaxation range lam <= 2 - alpha Lh / 2
    (Set-Valued Var. Anal. 25, 2017). The proof, on the face:
    - face_sigma gives sigma = theta s_t + lam s_l with
      s_t = -(1 / alpha^2)(1, 1, 1) and s_l = (2 / alpha)(1, 1, 1), so a
      larger theta only tightens sigma >= 0.
    - theta's coefficient is PSD. Its 3x3 face block
      B = FACE_BASIS^T (w1_slope + sum s_t,i Q_i) FACE_BASIS has the
      leading minors (Lh (alpha Lf - 1)^2 + 9 Lf + Lh) / (2 Lf Lh alpha^2),
      (16 Lf^2 alpha^2 + 9 Lf Lh alpha^2 + 40 Lf alpha + 50)
      / (4 Lf Lh alpha^4) and 2 / (Lh alpha^4), all positive; its diagonal
      tail is 1 / alpha^2 on the sigma rows and 0 on the lam rows. So if
      (theta >= 0, lam) is feasible, so is (0, lam).
    - At theta = 0 the Schur block is NSD iff L3 + lam e e^T <= 0, with
      L3 = FACE_BASIS^T (RELAX_LIN + sum s_l,i Q_i) FACE_BASIS and
      e = (1, 2, 1). Its determinant is
      det(-(L3 + lam e e^T)) = 32 (4 - alpha Lh - 2 lam) / (Lf Lh alpha^2),
      and -L3 > 0 iff alpha Lh < 4, so the block is NSD iff
      alpha Lh + 2 lam <= 4. The smallest lam is LAM_MIN.
    - At equality only theta = 0 is feasible (B > 0), and a zero theta is
      refused as it is after a solve.
    """
    if not 0 < alpha < math.inf:
        raise CertificationError("alpha must be positive and finite")
    if not (math.isfinite(Lf) and math.isfinite(Lh) and Lf > 0 and Lh > 0):
        raise CertificationError("Lf and Lh must be finite and positive")
    if Fraction(alpha) * Fraction(Lh) >= 4 - 2 * Fraction(LAM_MIN):
        raise CertificationError(
            "alpha * Lh >= 4 - 2 LAM_MIN: no lam in [LAM_MIN, LAM_MAX] gives "
            "a positive theta (Davis-Yin range lam <= 2 - alpha Lh / 2)")
    prob, unpack, classes = _objective_program(alpha, Lf, Lh)
    sol = sdpcore.solve_sdp(prob, feas_tol, gap_tol, max_iter)
    if sol.status != sdpcore.STATUS_OPTIMAL:
        raise CertificationError(
            f"objective-rate program ended {sol.status} at this alpha")
    theta, lam, sigma = unpack(sol)
    if theta <= 0:
        raise CertificationError("no positive theta at this alpha")
    margin = audit(build_w1(lam, theta, alpha, Lf, Lh), sigma, alpha,
                   classes)
    return RateCertificate(
        mode=MODE_OBJECTIVE, alpha=alpha, lam=lam, sigma=sigma,
        margin=margin, provenance="sdp", theta=theta)


def linear_rate_value(alpha, classes, lam=None,
                      feas_tol=sdpcore.DEFAULT_FEAS_TOL,
                      gap_tol=sdpcore.DEFAULT_GAP_TOL,
                      max_iter=sdpcore.DEFAULT_MAX_ITER):
    """Optimal rho2 of the linear-rate program, unclipped.

    Returns (rho2, lam, sigma, status); sigma_i = inf exactly for each class
    with m == L (see _face). With lam=None the relaxation is optimized
    jointly (Schur extension, lam in [LAM_MIN, LAM_MAX]); otherwise lam is
    pinned.
    """
    if not alpha > 0:
        raise CertificationError("alpha must be positive")
    if not check_assumption1(classes):
        raise CertificationError("assumption1 violated")
    prob, unpack = _rate_program(1.0, RATE_E, -RATE_E, alpha, classes, lam)
    sol = sdpcore.solve_sdp(prob, feas_tol, gap_tol, max_iter)
    return (*unpack(sol), sol.status)


def audit(w, sigma, alpha, classes):
    """Audit margin of a certificate: top eigenvalue of W + sum sigma_i Q_i.

    One audit serves every mode: w is the mode's 4x4 W0, W1 or W2, also
    where the program is Schur-extended; the Q_i are those of (alpha,
    classes). An infinite sigma_i is the limit of an NSD Q_i, whose class
    has m == L: the LMI is then checked on _face(alpha, classes). For a
    class with m != L it proves nothing, and the margin is inf.
    """
    m = w
    for s, q in zip(sigma, _qc_mats(alpha, classes)):
        if math.isfinite(s):
            m = m + s * q
    if not all(math.isfinite(s) for s in sigma):
        keep, u = _face(alpha, classes)
        if any(math.isinf(sigma[i]) for i in keep):
            return math.inf
        m = u.T @ m @ u
    return max_eig(m)


def certify_linear_rate(alpha, classes, lam=None,
                        feas_tol=sdpcore.DEFAULT_FEAS_TOL,
                        gap_tol=sdpcore.DEFAULT_GAP_TOL,
                        max_iter=sdpcore.DEFAULT_MAX_ITER):
    """Linear-rate certificate rho2 < 1, jointly over lam unless pinned.

    Refused when the program is infeasible, when 1 - rho2 is not above
    feas_tol, or when the audit margin of the rebuilt LMI exceeds feas_tol.
    """
    if lam is not None and not lam > 0:
        raise CertificationError("lam must be positive")
    rho2, lam_out, sigma, status = linear_rate_value(
        alpha, classes, lam, feas_tol, gap_tol, max_iter)
    if status == sdpcore.STATUS_INFEASIBLE:
        raise CertificationError("linear-rate program infeasible")
    # a contraction within the solver's tolerance of 1 is roundoff
    if not 1.0 - rho2 > feas_tol:
        raise CertificationError("no linear certificate at this alpha")
    # W_O - rho2 W_I is W2 also at the rho2 <= 0 of a solve cut short
    w_o, w_i, _ = build_dual_data(lam_out)
    margin = audit(w_o - rho2 * w_i, sigma, alpha, classes)
    # a solve cut short may stop at a rate its multipliers do not prove
    if margin > feas_tol:
        raise CertificationError(
            f"linear-rate program ended {status} and its LMI fails the audit"
            f" by {margin:.3g}")
    return RateCertificate(
        mode=MODE_LINEAR, alpha=alpha, lam=lam_out, sigma=sigma,
        margin=margin, provenance="sdp", rho2=rho2)


def dual_linear_rate(alpha, lam, classes, feas_tol=sdpcore.DEFAULT_FEAS_TOL,
                     gap_tol=sdpcore.DEFAULT_GAP_TOL,
                     max_iter=sdpcore.DEFAULT_MAX_ITER, return_z=False):
    """Optimal value of the dual rate program at fixed (alpha, lam).

    Maximizes Tr(G^T W_O G Z) over Z >= 0 with the trace normalization and
    the scalar QC inequalities. The G^T Q_i G of a class with m == L is
    -(1/2m) (G^T s_i)(G^T s_i)^T, so tr(G^T Q_i G Z) >= 0 forces Z onto the
    face orthogonal to G^T s_i (_face with g = G); it is eliminated up front.
    """
    if not check_assumption1(classes):
        raise CertificationError("assumption1 violated")
    qs = _qc_mats(alpha, classes)
    w_o, w_i, gm = build_dual_data(lam)
    p = gm.T @ w_o @ gm
    keep, u = _face(alpha, classes, gm)
    n = u.shape[1]
    pr = u.T @ p @ u
    rr = [u.T @ (gm.T @ qs[i] @ gm) @ u for i in keep]
    nmat = u.T @ (gm.T @ w_i @ gm) @ u
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    vecs = []
    for (i, j) in pairs:
        bmat = np.zeros((n, n))
        bmat[i, j] = 1.0
        bmat[j, i] = 1.0
        vecs.append((bmat, np.trace(nmat @ bmat)))
    k0 = max(range(len(vecs)), key=lambda k: abs(vecs[k][1]))
    t0 = vecs[k0][1]
    if abs(t0) < 1e-12:
        raise CertificationError("normalization unreachable on the subspace")
    z0 = vecs[k0][0] / t0
    basis = [b - (t / t0) * vecs[k0][0]
             for k, (b, t) in enumerate(vecs) if k != k0]
    nb = len(rr)
    def emb(z):
        f = np.zeros((n + nb, n + nb))
        f[:n, :n] = -z
        for j, rm in enumerate(rr):
            f[n + j, n + j] = -np.trace(rm @ z)
        return f
    f0 = emb(z0)
    fs = [emb(b) for b in basis]
    c = np.array([-np.trace(pr @ b) for b in basis])
    prob = sdpcore.LinearSdp(c, f0, tuple(fs))
    sol = sdpcore.solve_sdp(prob, feas_tol, gap_tol, max_iter)
    if sol.status == sdpcore.STATUS_INFEASIBLE:
        raise CertificationError("dual program infeasible")
    zred = z0 + sum(yk * b for yk, b in zip(sol.y, basis))
    val = float(np.trace(pr @ zred))
    if return_z:
        return val, u @ zred @ u.T
    return val


def certify_rate(mode, alpha, classes, lam=None, **solver_kw):
    """The certificate of one mode at one stepsize; lam=None optimizes it.

    The objective mode always optimizes lam, so a lam for it is a
    ValueError.
    """
    if mode == MODE_OBJECTIVE and lam is not None:
        raise ValueError("the objective mode optimizes lambda; "
                         "it takes no pinned lambda")
    if mode == MODE_LINEAR:
        return certify_linear_rate(alpha, classes, lam=lam, **solver_kw)
    if mode == MODE_RESIDUAL:
        return certify_residual_rate(alpha, lam, classes, **solver_kw)
    if mode == MODE_OBJECTIVE:
        return certify_objective_rate(alpha, classes.f.L, classes.h.L,
                                      **solver_kw)
    raise ValueError(f"unknown mode {mode}")


def sweep_alpha(alpha_grid, classes, mode, lam=None, **solver_kw):
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
            cert = certify_rate(mode, alpha, classes, lam, **solver_kw)
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


def empirical_lyapunov_check(trace, fixed_point, cert, fstar=None,
                             rel_tol=1e-7, bound_tol=1e-6):
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
            if dist2[k + 1] > lim + rel_tol * max(dist2[k], 1e-300) \
                    and dist2[k + 1] > floor:
                violations.append(k)
        k_arr = np.arange(len(dist2))
        bound = dist2[0] * rho2 ** k_arr * (1.0 + bound_tol)
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
            if v[k + 1] > v[k] + rel_tol * max(v[k], 1e-300):
                violations.append(k)
        running_min = np.minimum.accumulate(seq)
        ks = np.arange(1, len(seq) + 1)
        bound_ok = bool(
            (running_min * theta * ks <= dist2[0] * (1.0 + bound_tol)).all())
        detail["worst_product"] = float(np.max(running_min * theta * ks))
    else:
        raise ValueError(f"unknown mode {cert.mode}")
    return {"violations": violations, "bound_ok": bound_ok,
            "initial_dist2": float(dist2[0]), **detail}
