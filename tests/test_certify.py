"""Tests for certificate producers, duals, sweeps, and empirical checks."""

import itertools
import math
import os
import sys
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from scipy.linalg import block_diag, null_space

from toscert import certify, lmikit, sdpcore, tos
from toscert.certify import (CertificationError, MODE_LINEAR, MODE_OBJECTIVE,
                             MODE_RESIDUAL, ProblemClasses, RateCertificate,
                             audit, certificate_from_json,
                             certificate_to_json, certify_linear_rate,
                             certify_objective_rate, certify_residual_rate,
                             check_assumption1, dual_linear_rate,
                             empirical_lyapunov_check, linear_rate_value,
                             sweep_alpha, symbolic_sublinear)
from toscert.lmikit import (RegularityClass, build_dual_data,
                            build_qc_triplet, build_w0, build_w1, build_w2,
                            eta_vector, objective_cubic, residual_rate,
                            schur_extend)

import face_programs

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def _cls(mf, lf, mg, lg, mh, lh):
    return ProblemClasses(RegularityClass(mf, lf), RegularityClass(mg, lg),
                          RegularityClass(mh, lh))


STRONG_G = _cls(0.0, math.inf, 1.0, 10.0, 0.0, 20.0)
STRONG_F_EQUAL = _cls(20.0, 20.0, 0.0, math.inf, 0.0, 70.0)


def _banned_solve(*args, **kwargs):
    raise AssertionError("solve_sdp called")


def test_symbolic_closed_form():
    cert = symbolic_sublinear(0.5, 2.0)
    assert abs(cert.alpha - 0.75) < 1e-15
    assert abs(cert.theta - (1.5 ** 3 * 0.5) / 8.0) < 1e-15
    assert cert.margin <= 1e-10
    assert cert.provenance == "symbolic"


def test_symbolic_half_relaxation_constants():
    # lam = 1/2 specializations of the closed-form rate
    for Lh in (0.1, 1.0, 10.0):
        cert = symbolic_sublinear(0.5, Lh)
        assert abs(1.0 / cert.theta - 32.0 * Lh ** 2 / 27.0) \
            <= 1e-12 * 32.0 * Lh ** 2 / 27.0
        assert abs(cert.alpha ** 2 / cert.theta - 8.0 / 3.0) <= 1e-12 * 8.0 / 3.0


def test_symbolic_rejects_bad_parameters():
    with pytest.raises(CertificationError):
        symbolic_sublinear(0.0, 1.0)
    with pytest.raises(CertificationError):
        symbolic_sublinear(2.0, 1.0)
    with pytest.raises(CertificationError):
        symbolic_sublinear(0.5, math.inf)


def test_symbolic_lam_half_maximizes_theta():
    thetas = {lam: symbolic_sublinear(lam, 1.0).theta
              for lam in np.arange(0.1, 2.0, 0.1)}
    assert max(thetas, key=thetas.get) == pytest.approx(0.5)


def test_residual_rate_matches_symbolic_at_its_stepsize():
    cert = symbolic_sublinear(0.5, 1.0)
    sdp = certify_residual_rate(cert.alpha, 0.5, certify._case1_classes(1.0))
    assert abs(sdp.theta - cert.theta) < 1e-6
    assert sdp.margin <= 1e-8
    assert all(s >= -1e-9 for s in sdp.sigma)


def test_residual_rate_free_lambda():
    # frozen from a converged joint solve at alpha = 1, Lh = 1; the exact
    # optimum is theta = 9/16 at lam = 3/4
    cert = certify_residual_rate(1.0, None, certify._case1_classes(1.0))
    assert abs(cert.theta - 9.0 / 16.0) < 1e-6
    assert abs(cert.lam - 0.75) < 1e-3
    assert cert.margin <= 1e-8


STALLED_POINTS = [(0.5413183669370272, 1.5), (0.05860511487667399, None)]


@pytest.mark.parametrize("alpha, lam", STALLED_POINTS)
def test_residual_rate_certifies_on_its_face(alpha, lam):
    # without the face these solves stalled at maxIterations with audit
    # margins +3.1e-4 and +4.3e-4; on it they converge
    cert = certify_residual_rate(alpha, lam, certify._case1_classes(1.0))
    assert cert.margin <= 1e-12


def test_residual_grid_is_decisive(monkeypatch):
    # the residual producer makes no solve: every certificate on the grid
    # passes its audit, and at (1, 1) it is the closed form of
    # symbolic_sublinear
    monkeypatch.setattr(sdpcore, "solve_sdp", _banned_solve)
    case1 = certify._case1_classes(1.0)
    for lam in (None, 0.5, 1.0, 1.5):
        for alpha in np.geomspace(0.05, 5.0, 30):
            try:
                cert = certify_residual_rate(float(alpha), lam, case1)
            except CertificationError:
                continue
            assert cert.margin <= 1e-12, (alpha, lam)
            assert cert.provenance == certify.CLOSED_FORM
    theta = certify_residual_rate(1.0, 1.0, case1).theta
    want = symbolic_sublinear(1.0, 1.0).theta
    assert abs(theta - want) <= 1e-15 * want


def test_residual_rate_input_validation():
    with pytest.raises(CertificationError):
        certify_residual_rate(-1.0, 0.5, certify._case1_classes(1.0))
    for lam in (0.0, -0.5):
        with pytest.raises(CertificationError, match="lam must be positive"):
            certify_residual_rate(1.0, lam, certify._case1_classes(1.0))
    with pytest.raises(CertificationError):
        certify_residual_rate(1.0, 0.5, STRONG_G)


def test_objective_rate_regression():
    # theta* from the face-reduced program: on M v = 0, v = (1, 1, 1, 1),
    # sigma_i = 2 lam - theta at alpha = Lf = Lh = 1 and the LMI shrinks to a
    # 3x3 LMI in (theta, lam); bisection on it in 50-digit arithmetic gives
    # theta* = 0.6740881063 at lam* = 0.8660677242
    theta_star, lam_star = 0.6740881063, 0.8660677242
    cert = certify_objective_rate(1.0, 1.0, 1.0)
    assert abs(cert.theta - theta_star) < 1e-6
    assert abs(cert.lam - lam_star) < 1e-4
    assert cert.theta <= theta_star + 1e-8
    assert cert.margin <= 1e-8

    # exact evidence that (theta, lam) = (0.674088, 0.8660677) is feasible,
    # so the maximum lies above any theta frozen 1e-6 below it
    th, lam = F("0.674088"), F("0.8660677")
    h = F(1, 2)
    w1 = [[lam ** 2 - th / 2, th, -lam ** 2 - th, -lam + th],
          [th, -th / 2, 0, -th / 2],
          [-lam ** 2 - th, 0, lam ** 2 + th / 2, lam],
          [-lam + th, -th / 2, lam, -th / 2]]
    q1 = [[-1, 0, 0, h], [0, 0, 0, 0], [0, 0, 0, 0], [h, 0, 0, 0]]
    q2 = [[-2, 3 * h, 0, 3 * h], [3 * h, -1, 0, -1], [0, 0, 0, 0],
          [3 * h, -1, 0, -1]]
    q3 = [[0, 0, 0, 0], [0, -1, 3 * h, 0], [0, 3 * h, -2, 0], [0, 0, 0, 0]]
    ref = [build_w1(float(lam), float(th), 1.0, 1.0, 1.0)] + [
        q for q in build_qc_triplet(1.0, RegularityClass(0.0, 1.0),
                                         RegularityClass(0.0, math.inf),
                                         RegularityClass(0.0, 1.0))]
    for exact, built in zip((w1, q1, q2, q3), ref):
        assert np.allclose(np.array(exact, dtype=float), built, rtol=0,
                           atol=1e-15)
    s = 2 * lam - th
    m = [[w1[i][j] + s * (q1[i][j] + q2[i][j] + q3[i][j]) for j in range(4)]
         for i in range(4)]
    assert all(sum(row) == 0 for row in m)
    vb = [[1, 1, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    n = [[-sum(vb[k][i] * m[k][l] * vb[l][j]
               for k in range(4) for l in range(4)) for j in range(3)]
         for i in range(3)]
    minors = [n[0][0], n[0][0] * n[1][1] - n[0][1] * n[1][0],
              n[0][0] * (n[1][1] * n[2][2] - n[1][2] * n[2][1])
              - n[0][1] * (n[1][0] * n[2][2] - n[1][2] * n[2][0])
              + n[0][2] * (n[1][0] * n[2][1] - n[1][1] * n[2][0])]
    assert s > 0 and all(d > 0 for d in minors)
    assert th - F("0.6740773455") > F("1e-6")


def test_objective_rate_validation():
    with pytest.raises(CertificationError):
        certify_objective_rate(0.0, 1.0, 1.0)
    with pytest.raises(CertificationError):
        certify_objective_rate(1.0, math.inf, 1.0)
    # the closed form's float powers overflow, alpha^2 Lh underflows to a
    # zero divisor (1e-20) or sigma Q_i overflows in the audit (1e-8): a
    # refusal, not an error
    for point in ((1.0, 1e300, 1.0), (1e150, 1.0, 1e-160),
                  (1e-20, 1.0, 1e-300), (1e-8, 1.0, 1e-300)):
        with pytest.raises(CertificationError, match="overflows"):
            certify_objective_rate(*point)


# 23 magnitudes from the least subnormal to near the largest float
FLOAT_SCAN = (5e-324, 1e-300, 1e-200, 1e-160, 1e-100, 1e-50, 1e-20, 1e-8,
              1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3, 1e8, 1e20, 1e50, 1e100,
              1e160, 1e200, 1e300, 1.7e308)


def test_closed_forms_issue_or_refuse_across_the_float_range():
    # alpha x Lf x Lh for the objective and alpha x lam x Lh for the
    # residual: each call issues or raises CertificationError, with no
    # numpy warning; -1/Lh = -inf at Lh = 5e-324 makes the audit's (S^T Q) S
    # form inf * 0 = NaN, and an overflow in W1 warned before its refusal
    issued = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, lf, lh in itertools.product(FLOAT_SCAN, repeat=3):
            try:
                certify_objective_rate(alpha, lf, lh)
                issued += 1
            except CertificationError:
                pass
        for alpha, lam, lh in itertools.product(
                FLOAT_SCAN, (1e-6, 0.5, 1.0, 1.9, 3.0), FLOAT_SCAN):
            try:
                certify_residual_rate(alpha, lam, certify._case1_classes(lh))
                issued += 1
            except CertificationError:
                pass
    assert issued == 620 + 195


@pytest.mark.parametrize("alpha, lam, lh", [
    (1e-20, 0.5, 1e-300), (1e100, 1e10, 1.0), (1.0, 1e10, 1e300),
    (1e300, None, 1e300)])
def test_residual_rate_refuses_extreme_data(alpha, lam, lh):
    # sigma Q_i overflows in the audit, or the exact rate or lambda* is
    # beyond the float range: a refusal, not an error
    with pytest.raises(CertificationError, match="overflows"):
        certify_residual_rate(alpha, lam, certify._case1_classes(lh))


@pytest.mark.parametrize("producer, alpha", [
    ("dual", 1e154), ("dual", 1e160), ("dual", 1e200), ("certify", 1e160),
    ("certify", 1e200), ("value", 1e160), ("value", 1e200)])
def test_linear_path_refuses_data_beyond_the_float_range(producer, alpha):
    # alpha^2 overflows in the Q_i (1e160 and up), or the dual program's
    # audit slack overflows (1e154): a refusal, not a ValueError
    call = {"dual": lambda: dual_linear_rate(alpha, 0.5, STRONG_G),
            "certify": lambda: certify_linear_rate(alpha, STRONG_G),
            "value": lambda: linear_rate_value(alpha, STRONG_G)}[producer]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(CertificationError, match="overflows"):
            call()


def test_objective_mode_refuses_a_pinned_lambda(monkeypatch):
    # the objective producer optimizes lambda; a pinned one is not dropped
    statuses = _counted_solves(monkeypatch)
    classes = _cls(0.0, 3.0, 0.0, math.inf, 0.0, 2.0)
    with pytest.raises(ValueError, match="optimizes lambda"):
        certify.certify_rate(MODE_OBJECTIVE, 0.5, classes, 0.5)
    with pytest.raises(ValueError, match="optimizes lambda"):
        sweep_alpha([0.5, 1.0], classes, MODE_OBJECTIVE, lam=1.5)
    assert statuses == []


# the objective program's closed forms: exact data in Fraction, written from
# the definitions (Q(0, L) = [[0, 1/2], [1/2, -1/L]] on each selector, W1's
# theta slope), and a rational grid of (alpha, Lf, Lh)
OBJECTIVE_GRID = [tuple(F(v) for v in p) for p in
                  [(a, lf, lh) for a in ("1/4", "1/2", "1", "7/3", "5")
                   for lf in ("1/2", "1", "3", "10")
                   for lh in ("1/3", "1", "3", "30")]]
FACE_E = np.array([[1], [2], [1]])


def _exact_objective_data(alpha, lf, lh):
    """(Q_1, Q_2, Q_3) of g nonsmooth, h and f smooth, and W1's theta slope."""
    def q(sel, lc):
        s = np.array(sel, dtype=object)
        base = np.array([[F(0), F(1, 2)], [F(1, 2), -1 / lc if lc else F(0)]],
                        dtype=object)
        return s.T @ base @ s
    qs = (q([[alpha, 0, 0, 0], [-1, 0, 0, 1]], None),
          q([[alpha, 0, 0, 0], [2, -1, 0, -1]], lh),
          q([[0, 0, alpha, 0], [0, 1, -1, 0]], lf))
    c = 1 / (alpha ** 2 * lh)
    b = -(1 / (2 * alpha) + lf / 2)
    slope = np.array([[1 / alpha + lf / 2 - 2 * c, c, b, c],
                      [c, -c / 2, 0, -c / 2],
                      [b, 0, lf / 2, 0],
                      [c, -c / 2, 0, -c / 2]], dtype=object)
    return qs, slope


def _on_face(alpha, w, qs):
    """(sigma, FACE_BASIS^T (W + sum sigma_i Q_i) FACE_BASIS) for W's sigma."""
    sigma = face_programs.face_sigma(alpha, w)
    u = face_programs.FACE_BASIS.astype(int)
    return sigma, u.T @ (w + sum(si * qi for si, qi in zip(sigma, qs))) @ u


def _leading_minors(m):
    """The leading principal minors of a 3x3 matrix, in exact arithmetic."""
    (a, b, c), (d, e, f), (g, h, i) = [[F(v) for v in row] for row in m]
    return a, a * e - b * d, a * (e * i - f * h) - b * (d * i - f * g) \
        + c * (d * h - e * g)


def _slope_minors(a, lf, lh):
    """The closed-form leading minors of B, theta's face block."""
    return ((lh * (a * lf - 1) ** 2 + 9 * lf + lh) / (2 * lf * lh * a ** 2),
            (16 * lf ** 2 * a ** 2 + 9 * lf * lh * a ** 2 + 40 * lf * a + 50)
            / (4 * lf * lh * a ** 4),
            2 / (lh * a ** 4))


def _lam_det(a, lf, lh, lam):
    """The closed form of det(-(L3 + lam e e^T))."""
    return 32 * (4 - a * lh - 2 * lam) / (lf * lh * a ** 2)


def test_objective_rule_closed_forms_are_exact():
    # the proof in certify_objective_rate's docstring, in Fraction
    relax_lin = lmikit.RELAX_LIN.astype(int)
    relax_p = lmikit.RELAX_P.astype(int)
    assert (face_programs.FACE_BASIS.T @ eta_vector(1.0)).tolist() == [1, 2, 1]
    for a, lf, lh in OBJECTIVE_GRID:
        qs, slope = _exact_objective_data(a, lf, lh)
        s_theta, b = _on_face(a, slope, qs)
        s_lam, l3 = _on_face(a, relax_lin, qs)
        s_lam2, p3 = _on_face(a, relax_p, qs)
        assert s_theta.tolist() == [-1 / a ** 2] * 3
        assert s_lam.tolist() == [2 / a] * 3
        assert s_lam2.tolist() == [0] * 3 and (p3 == FACE_E @ FACE_E.T).all()
        minors = _leading_minors(b)
        assert minors == _slope_minors(a, lf, lh)
        assert all(d > 0 for d in minors)
        assert all(d > 0 for d in _leading_minors(-l3)) == (a * lh < 4)
        for lam in (F(certify.LAM_MIN), F(1, 2), F(2), F(certify.LAM_MAX)):
            m = -(l3 + lam * (FACE_E @ FACE_E.T))
            assert _leading_minors(m)[2] == _lam_det(a, lf, lh, lam)
            # the face block's determinant is 2 p / (Lf Lh alpha^4)
            for th in (F(0), F(1, 3), 2 * a * lam, F(7)):
                det = _leading_minors(th * b + lam * l3 + lam ** 2 * p3)[2]
                assert det == 2 * _cubic_at(a, lf, lh, lam, th) \
                    / (lf * lh * a ** 4)
            # sigma >= 0 never binds: p(2 alpha lam) = 8 Lf alpha^3 lam^3
            assert _cubic_at(a, lf, lh, lam, 2 * a * lam) \
                == 8 * lf * a ** 3 * lam ** 3


def _cubic_at(a, lf, lh, lam, theta):
    """p(theta, lam), exactly."""
    return sum(c * theta ** (3 - k)
               for k, c in enumerate(objective_cubic(a, lf, lh, lam,
                                                  a * lh + 2 * lam - 4)))


def test_objective_program_matches_the_closed_forms():
    # the float program of tests/face_programs.py, the IPM's fixture,
    # against the closed forms at the rationals its floats are
    for point in OBJECTIVE_GRID:
        x = tuple(float(v) for v in point)
        a, lf, lh = (F(v) for v in x)
        prob = face_programs.objective_program(*x)[0]
        f_theta, f_lam = prob.fi
        for got, want in zip(_leading_minors(f_theta[:3, :3]),
                             _slope_minors(a, lf, lh)):
            assert abs(got - want) <= F(1e-12) * want
        # theta's border row and lam rows are zero, its sigma rows 1/alpha^2
        # and its sign row -1
        assert np.allclose(f_theta[3:, 3:],
                           np.diag([0, 0, 0] + [1 / x[0] ** 2] * 3 + [-1]),
                           rtol=1e-12, atol=0)
        assert not f_theta[3, :3].any()
        assert np.array_equal(f_lam[:3, 3], [1.0, 2.0, 1.0])
        assert np.allclose(np.diag(f_lam)[4:], [-1, 1] + [-2 / x[0]] * 3 + [0],
                           rtol=1e-12, atol=0)
        assert np.array_equal(prob.f0, np.diag(
            [0, 0, 0, -1, certify.LAM_MIN, -certify.LAM_MAX, 0, 0, 0, 0]))
        for lam in (F(certify.LAM_MIN), F(1, 2), F(2)):
            got = _leading_minors(-(f_lam[:3, :3] + lam * (FACE_E @ FACE_E.T)))
            scale = 32 * (4 + a * lh + 2 * lam) / (lf * lh * a ** 2)
            assert abs(got[2] - _lam_det(a, lf, lh, lam)) <= F(1e-12) * scale


def _counted_solves(monkeypatch):
    """The list that every later sdpcore.solve_sdp call appends its status to."""
    statuses = []
    solve = sdpcore.solve_sdp

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        statuses.append(sol.status)
        return sol
    monkeypatch.setattr(sdpcore, "solve_sdp", counted)
    return statuses


def _first_refused(lh):
    """The first float alpha with alpha lh >= 4 - 2 LAM_MIN, exactly."""
    bound = 4 - 2 * F(certify.LAM_MIN)
    alpha = float(bound / F(lh))
    while F(alpha) * F(lh) < bound:
        alpha = math.nextafter(alpha, math.inf)
    assert F(math.nextafter(alpha, 0.0)) * F(lh) < bound
    return alpha


@pytest.mark.parametrize("lh", [0.7, 1.0, 3.0, 10.0, 30.0])
def test_objective_rule_refuses_without_a_solve(monkeypatch, lh):
    alpha = _first_refused(lh)
    statuses = _counted_solves(monkeypatch)
    for a in (alpha, 4.0 / lh, 1e300):
        with pytest.raises(CertificationError, match="4 - 2 LAM_MIN"):
            certify_objective_rate(a, 2.0, lh)
    cert = certify_objective_rate(3.99 / lh, 2.0, lh)
    assert statuses == []
    assert cert.theta > 0 and cert.margin <= 1e-8


# just below alpha Lh = 4 - 2 LAM_MIN theta* falls with the square of the
# distance to the line; the IPM ended maxIterations at each of these
NEAR_THE_LINE = [(None, 2.0, lh) for lh in (0.7, 3.0, 10.0, 30.0)] \
    + [(3.99999 / 3.0, 10.0, 3.0)]


@pytest.mark.parametrize("alpha, lf, lh", NEAR_THE_LINE, ids=[
    "last-0.7", "last-3", "last-10", "last-30", "3.99999-10-3"])
def test_objective_rate_just_below_the_line(monkeypatch, alpha, lf, lh):
    # no solve: theta is issued positive and passes its audit, or it is
    # refused because it rounds to 0. An issued theta lies below the root,
    # exactly
    monkeypatch.setattr(sdpcore, "solve_sdp", _banned_solve)
    if alpha is None:
        alpha = math.nextafter(_first_refused(lh), 0.0)
    try:
        cert = certify_objective_rate(alpha, lf, lh)
    except CertificationError as err:
        assert "rounds to" in str(err)
        return
    assert 0 < cert.theta < 1e-8 and cert.margin <= 1e-8
    _assert_objective_exact((alpha, lf, lh), cert, rel=None)


def test_objective_sweep_refuses_past_the_rule_without_a_solve(monkeypatch):
    grid = [0.5, 1.0, 1.9, 2.0, 2.5, 4.0]
    classes = _cls(0.0, 3.0, 0.0, math.inf, 0.0, 2.0)
    monkeypatch.setattr(sdpcore, "solve_sdp", _banned_solve)
    curve, (best_alpha, _) = sweep_alpha(grid, classes, MODE_OBJECTIVE)
    assert [rec["feasible"] for rec in curve] == [True] * 3 + [False] * 3
    for rec in curve[3:]:
        assert rec["rate"] == 0.0 and rec["lambda"] is None
    assert best_alpha in grid[:3]


def _assert_objective_exact(point, cert, rel=F(1, 10 ** 12)):
    """cert's theta lies at or below the root theta*(lam) at its own lam,
    and within rel of it, checked in Fraction at the issued rationals: the
    LMI with sigma_i = (2 alpha lam - theta) / alpha^2 is null on
    v = (1, 1, 1, 1) and NSD on FACE_BASIS."""
    a, lf, lh = (F(v) for v in point)
    th, lam = F(cert.theta), F(cert.lam)
    qs, slope = _exact_objective_data(a, lf, lh)
    s = (2 * a * lam - th) / a ** 2
    m = (lam ** 2 * lmikit.RELAX_P.astype(int)
         + lam * lmikit.RELAX_LIN.astype(int) + th * slope + s * sum(qs))
    assert not (m @ np.ones(4, dtype=int)).any()
    u = face_programs.FACE_BASIS.astype(int)
    n1, n2, n3 = _leading_minors(u.T @ m @ u)
    assert n1 < 0 and n2 > 0 and n3 <= 0 and s >= 0, point
    assert _cubic_at(a, lf, lh, lam, th) <= 0, point
    if rel is not None:
        assert _cubic_at(a, lf, lh, lam, th * (1 + rel)) >= 0, point


# the residual face {v, w}-perp, v = (1, 1, 1, 1) and w = (0, -1, 0, 1)
RESIDUAL_FACE = np.array([[1, 1], [0, -1], [-1, 1], [0, -1]])


def _assert_residual_exact(alpha, lh, cert, rel=F(1, 10 ** 12)):
    """The residual LMI at the issued rationals, sigma_i = 2 lam / alpha:
    null on v and w, NSD on the face, and theta within rel of the bound."""
    a, lh, th, lam = F(alpha), F(lh), F(cert.theta), F(cert.lam)
    sel = [np.array([[F(x) for x in row] for row in s], dtype=object)
           for s in lmikit._selectors(a)]
    half = F(1, 2)
    bases = [np.array([[0, half], [half, -1 / lh if k == 1 else 0]],
                      dtype=object) for k in range(3)]
    relax_p = lmikit.RELAX_P.astype(int)
    m = (lam ** 2 + th / a ** 2) * relax_p + lam * lmikit.RELAX_LIN.astype(int)
    m = m + sum(2 * lam / a * (s.T @ q @ s) for s, q in zip(sel, bases))
    assert not (m @ np.ones(4, dtype=int)).any()
    assert not (m @ np.array([0, -1, 0, 1])).any()
    n = RESIDUAL_FACE.T @ m @ RESIDUAL_FACE
    assert n[1, 1] < 0 and n[0, 0] * n[1, 1] - n[0, 1] * n[1, 0] >= 0
    assert th >= residual_rate(a, lam, lh) * (1 - rel)


def test_sublinear_certificates_are_exact(monkeypatch):
    # every certificate issued on the objective-surface grids at seeds 0-3
    # and on the residual grid (tools/parity.py's), with no solve: checked
    # in Fraction at the issued rationals, with theta within 1e-12 of the
    # exact rate at the issued lam
    from perfbench import workloads
    monkeypatch.setattr(sdpcore, "solve_sdp", _banned_solve)
    issued = 0
    for point in [p for seed in (0, 1, 2, 3)
                  for p in workloads.ObjectiveSurface(seed).points]:
        try:
            cert = certify_objective_rate(*point)
        except CertificationError as err:
            assert "4 - 2 LAM_MIN" in str(err), point
            continue
        assert cert.provenance == certify.CLOSED_FORM
        _assert_objective_exact(point, cert)
        issued += 1
    assert issued == 1112
    case1 = certify._case1_classes(1.0)
    issued = 0
    for lam in (None, 0.5, 1.0, 1.5):
        for alpha in workloads.seeded_grid(*workloads.SURFACE_ALPHAS, 0):
            try:
                cert = certify_residual_rate(alpha, lam, case1)
            except CertificationError as err:
                assert "no positive theta" in str(err), (alpha, lam)
                continue
            _assert_residual_exact(alpha, 1.0, cert)
            issued += 1
    assert issued == 97


def _expanded(roots):
    """The coefficients of prod (x - r), highest power first, in Fraction."""
    c = [F(1)]
    for r in roots:
        c = [a - F(r) * b for a, b in zip(c + [F(0)], [F(0)] + c)]
    return c


def _undecided(coefs, root, reach=128):
    """The floats nearest root where the float value of the polynomial does
    not have its exact sign, as an interval around root (root alone if
    none): no search on float values can place the root better."""
    lo = hi = root
    for end in (-math.inf, math.inf):
        x = root
        for _ in range(reach):
            x = math.nextafter(x, end)
            value = certify._horner(coefs, x)
            exact = sum(F(c) * F(x) ** k
                        for k, c in enumerate(reversed(coefs)))
            if value == 0 or (value > 0) != (exact > 0):
                lo, hi = min(lo, x), max(hi, x)
    assert max(root - lo, hi - root) < reach / 2 * math.ulp(root)
    return lo, hi


@pytest.mark.parametrize("roots, lo, hi, found", [
    ((1 / 8, 1 / 4, 3 / 8, 5 / 8, 7 / 8), 0.0, 1.0, None),
    # a double root has no sign change
    ((1 / 2, 1 / 2, 1 / 4), 0.0, 1.0, (1 / 4,)),
    # a root an ulp or a few inside an end
    ((1 / 4, 3 / 4, 2), math.nextafter(0.25, 0.0), 1.0, (1 / 4, 3 / 4)),
    ((1 / 4, 3 / 4, 2), 0.25 - 2 ** -50, 1.0, (1 / 4, 3 / 4)),
    ((3 / 4, 1 / 4), 0.0, math.nextafter(0.25, 1.0), (1 / 4,)),
    ((3 / 4, 1 / 4), 0.25, 0.75, ()),
    ((3 / 8,), 0.0, 1.0, None),
    ((3 / 8,), 0.5, 1.0, ()),
], ids=["five", "double", "next-to-lo", "near-lo", "next-to-hi",
        "on-both-ends", "degree-1", "degree-1-none"])
def test_roots_between_finds_each_sign_change(roots, lo, hi, found):
    # every simple root in (lo, hi), each within 2 ulps of the floats at
    # which the polynomial's float sign is undecided: none for most of
    # these roots, up to 31 ulps either side of 3/8 in "five"
    coefs = [float(c) for c in _expanded(roots)]  # exact: dyadic roots
    assert coefs == _expanded(roots)
    found = sorted(roots) if found is None else list(found)
    got = certify._roots_between(coefs, lo, hi)
    assert len(got) == len(found), got
    for x, root in zip(got, found):
        band_lo, band_hi = _undecided(coefs, root)
        assert band_lo - 2 * math.ulp(root) <= x <= band_hi + \
            2 * math.ulp(root), (root, x)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 7.0, 1e4])
def test_smallest_root_keeps_its_relative_accuracy(scale):
    # three positive roots, the smallest 1e-20 times the others: its exact
    # value for the float coefficients, to 1e-14 relative; with c0 = 0 the
    # root 0 is not reported positive
    for tiny in (1e-20, 3e-20):
        coefs = [float(c) for c in _expanded(
            (tiny * scale, scale, 2.5 * scale))]
        got = certify._smallest_root(*coefs)
        assert abs(F(got) - _exact_root_near(coefs, tiny * scale)) \
            <= F(1, 10 ** 14) * F(got), (scale, tiny)
        assert not certify._smallest_root(*coefs[:3], 0.0) > 0


def _reference_horner_slope(coefs, x):
    value = slope = 0.0
    for c in coefs:
        slope = slope * x + value
        value = value * x + c
    return value, slope


def _reference_roots_between(coefs, lo, hi):
    """certify._roots_between with a Horner call for each value and slope
    and each end evaluated in a list: the reference for the inline one."""
    n = len(coefs) - 1
    if n == 1:
        x = -coefs[1] / coefs[0]
        return [x] if lo < x < hi else []
    slope = [c * (n - i) for i, c in enumerate(coefs[:-1])]
    ends = [lo, *_reference_roots_between(slope, lo, hi), hi]
    values = [certify._horner(coefs, x) for x in ends]
    roots = []
    for a, b, fa, fb in zip(ends, ends[1:], values, values[1:]):
        if fa * fb < 0:
            x, last, older = 0.5 * (a + b), b - a, b - a
            while a < x < b and last > 4 * math.ulp(x):
                fx, d = _reference_horner_slope(coefs, x)
                a, b = (x, b) if (fx < 0) == (fa < 0) else (a, x)
                step = fx / d if d else math.inf
                if step and not (a < x - step < b and 2 * abs(step) <= older):
                    step = x - 0.5 * (a + b)
                x, last, older = x - step, abs(step), last
            roots.append(x)
    return roots


def _reference_smallest_root(c3, c2, c1, c0):
    """certify._smallest_root with t3 and t2 from one generator over k."""
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    p, q = c - b * b / 3, (2 * b * b - 9 * c) * b / 27 + d
    r = math.sqrt(max(-p / 3, 0.0))
    phi = math.acos(max(-1.0, min(1.0, -q / (2 * r) / r / r))) if r else 0.0
    t3, t2 = (2 * r * math.cos((phi - 2 * math.pi * k) / 3) - b / 3
              for k in (0, 1))
    t = -d / (t3 * t2) if t3 * t2 > 0 else 0.0
    slope = (3 * c3 * t + 2 * c2) * t + c1
    return t - certify._horner((c3, c2, c1, c0), t) / slope \
        if t and slope > 0 else t


def test_objective_roots_are_the_reference_bit_for_bit():
    # q's roots in (LAM_MIN, lam_R) and the smallest root of each candidate
    # lam's cubic, in hex against the references: at every objective-surface
    # point of seeds 0-3 that the refusal line keeps, and at 10,000 seeded
    # draws log-uniform in alpha in (e^-8, e^3) and Lf, Lh in (e^-5, e^5)
    # with alpha Lh < 3.9
    from perfbench import workloads
    bound = 4 - 2 * F(certify.LAM_MIN)
    points = [p for seed in (0, 1, 2, 3)
              for p in workloads.ObjectiveSurface(seed).points
              if F(p[0]) * F(p[2]) < bound]
    rng = np.random.default_rng(0)
    drawn = 0
    while drawn < 10000:
        alpha, lf, lh = np.exp(rng.uniform((-8, -5, -5), (3, 5, 5)))
        if alpha * lh < 3.9:
            points.append((float(alpha), float(lf), float(lh)))
            drawn += 1
    roots = 0
    for alpha, lf, lh in points:
        coefs = certify.objective_quintic(alpha, lf, lh)
        lam_r = 2 - alpha * lh / 2
        got = certify._roots_between(coefs, certify.LAM_MIN, lam_r)
        ref = _reference_roots_between(coefs, certify.LAM_MIN, lam_r)
        assert [x.hex() for x in got] == [x.hex() for x in ref], \
            (alpha, lf, lh)
        h_hi, h_lo = certify._split_below_line(alpha, lh)
        for lam in (certify.LAM_MIN, *got):
            cubic = objective_cubic(alpha, lf, lh, lam,
                                    math.fsum((h_hi, h_lo, 2 * lam, -4.0)))
            assert certify._smallest_root(*cubic).hex() == \
                _reference_smallest_root(*cubic).hex(), (alpha, lf, lh, lam)
        roots += len(got)
    assert len(points) == 11112 and roots > 0


def _exact_root_near(coefs, guess):
    """The root within 1e-6 relative of guess of the cubic with these float
    coefficients, by bisection in Fraction to 1e-30 relative."""
    def at(t):
        return sum(F(c) * t ** k for k, c in enumerate(reversed(coefs)))
    a, b = F(guess) * (1 - F(1, 10 ** 6)), F(guess) * (1 + F(1, 10 ** 6))
    assert at(a) * at(b) < 0
    while b - a > a / 10 ** 30:
        mid = (a + b) / 2
        a, b = (mid, b) if (at(mid) < 0) == (at(a) < 0) else (a, mid)
    return a


def _exact_line(alpha, lh, lam):
    return float(F(alpha) * F(lh) + 2 * F(lam) - 4)


# alpha Lh near 1e-10 with a rounding error, and a subnormal alpha Lh
LINE_EXTREMES = [(1e150, 1.0, 1e-160), (1e-200, 1.0, 1e-120)]


def test_objective_line_is_rounded_once(monkeypatch):
    # alpha Lh + 2 lam - 4 from h_hi + h_lo and fsum is bitwise the Fraction
    # value rounded once: at LAM_MIN, lam_R, the float below lam_R and a
    # random lam at every seed 0-3 surface point, the extremes and the last
    # float alpha below the refusal line, and at every lam the producer
    # itself passes to the cubic there
    from perfbench import workloads
    points = [p for seed in (0, 1, 2, 3)
              for p in workloads.ObjectiveSurface(seed).points] \
        + LINE_EXTREMES \
        + [(math.nextafter(_first_refused(3.0), 0.0), 2.0, 3.0)]
    rng = np.random.default_rng(0)
    for alpha, _, lh in points:
        h = F(alpha) * F(lh)
        h_hi = float(h)
        h_lo = float(h - F(h_hi))
        lam_r = 2 - alpha * lh / 2
        for lam in (certify.LAM_MIN, lam_r, math.nextafter(lam_r, 0.0),
                    float(rng.uniform(certify.LAM_MIN, 2.0))):
            line = math.fsum((h_hi, h_lo, 2 * lam, -4.0))
            assert line == _exact_line(alpha, lh, lam), (alpha, lh, lam)
    seen = []
    cubic = certify.objective_cubic

    def recorded(alpha, lf, lh, lam, line):
        seen.append(line == _exact_line(alpha, lh, lam))
        return cubic(alpha, lf, lh, lam, line)
    monkeypatch.setattr(certify, "objective_cubic", recorded)
    for point in points:
        try:
            certify_objective_rate(*point)
        except CertificationError:
            pass
    assert len(seen) > 1112 and all(seen)


def test_objective_refusal_and_split_are_exact():
    # the integer refusal test and (h_hi, h_lo) bitwise against Fraction:
    # at every seed 0-3 surface point, the extremes, the last float alpha
    # below the refusal line and the first at or above it, and a product
    # beyond the float range, which is refused
    from perfbench import workloads
    bound = 4 - 2 * F(certify.LAM_MIN)
    points = [(p[0], p[2]) for seed in (0, 1, 2, 3)
              for p in workloads.ObjectiveSurface(seed).points] \
        + [(p[0], p[2]) for p in LINE_EXTREMES] \
        + [(a, lh) for lh in (0.7, 3.0, 10.0, 30.0)
           for a in (math.nextafter(_first_refused(lh), 0.0),
                     _first_refused(lh))] \
        + [(1e200, 1e200)]
    refused = 0
    for alpha, lh in points:
        h = F(alpha) * F(lh)
        if h >= bound:
            with pytest.raises(CertificationError, match="4 - 2 LAM_MIN"):
                certify._split_below_line(alpha, lh)
            refused += 1
            continue
        h_hi = float(h)
        got = certify._split_below_line(alpha, lh)
        assert [x.hex() for x in got] == [h_hi.hex(), float(h - F(h_hi)).hex()]
    assert refused == 1920 - 1112 + 4 + 1


def test_objective_rate_builds_no_fraction(monkeypatch):
    # the objective producer's refusal and split are integer arithmetic
    from perfbench import workloads

    def banned(*args):
        raise AssertionError("Fraction built")
    monkeypatch.setattr(certify, "Fraction", banned)
    issued = [workloads._certify_or_none(certify_objective_rate, *p)
              for p in workloads.ObjectiveSurface(0).points]
    assert sum(c is not None for c in issued) == 280


def test_linear_rate_point():
    # strongly convex g, smooth h; frozen from a converged solve
    cert = certify_linear_rate(0.2, STRONG_G)
    assert abs(cert.rho2 - 0.9641048286) < 1e-7
    assert abs(cert.lam - 0.2060247924) < 1e-4
    assert cert.margin <= 1e-8
    assert all(math.isfinite(s) for s in cert.sigma)


def test_linear_rate_primal_dual_agreement():
    cert = certify_linear_rate(0.2, STRONG_G)
    dual = dual_linear_rate(0.2, cert.lam, STRONG_G)
    assert abs(cert.rho2 - dual) <= 1e-6


def test_linear_rate_degenerate_class():
    # m = L makes the f constraint matrix negative semidefinite; its
    # multiplier escapes to infinity and the certificate reports that
    cert = certify_linear_rate(0.02, STRONG_F_EQUAL)
    assert abs(cert.rho2 - 0.4108076296) < 1e-7
    assert math.isinf(cert.sigma[0]) or math.isinf(cert.sigma[2])
    assert cert.margin <= 1e-8
    dual = dual_linear_rate(0.02, cert.lam, STRONG_F_EQUAL)
    assert abs(cert.rho2 - dual) <= 1e-6


def test_near_equal_class_keeps_a_finite_multiplier():
    # m = 20 < L = 20.002 leaves Q_f indefinite, so sigma_f = inf proves
    # nothing: the m = L rate 0.515478 issued with it fails by 4.7e-6 for
    # every finite sigma. Both solves end maxIterations; what they issue must
    # pass the audit with finite multipliers and respect weak duality
    classes = _cls(20.0, 20.002, 0.0, math.inf, 0.0, 70.0)
    joint = certify_linear_rate(0.01, classes)
    pinned = certify_linear_rate(0.01, classes, lam=joint.lam)
    dual = dual_linear_rate(0.01, joint.lam, classes)
    for cert in (joint, pinned):
        assert all(math.isfinite(s) for s in cert.sigma), cert
        assert cert.margin <= sdpcore.DEFAULT_FEAS_TOL
        assert cert.rho2 >= dual


def _face_reference(mats):
    """The complement of the negative eigenvectors of the NSD mats."""
    negs = [np.zeros((len(mats[0]), 0))]
    for m in mats:
        ev, vecs = np.linalg.eigh(m)
        tol = 1e-12 * np.abs(ev).max()
        if ev[-1] <= tol:
            negs.append(vecs[:, ev < -tol])
    return null_space(np.hstack(negs).T)


@pytest.mark.parametrize("classes", [
    STRONG_F_EQUAL, STRONG_G, _cls(0.0, math.inf, 1.0, 1.0, 2.0, 2.0),
    _cls(3.0, 3.0, 1.0, 1.0, 0.0, 5.0)], ids=["f", "none", "g-h", "f-g"])
def test_face_spans_the_eigenvector_reference(classes):
    # sigma_i = inf exactly where the class has m == L, and the face is the
    # one the NSD Q_i (and, for the dual, G^T Q_i G) leave
    gm = build_dual_data(1.0)[2]
    rng = np.random.default_rng(3)
    for alpha in [0.02, *np.exp(rng.uniform(math.log(1e-3), math.log(10.0), 8))]:
        qs = build_qc_triplet(alpha, classes.f, classes.g, classes.h)
        for g, mats in ((None, qs), (gm, [gm.T @ q @ gm for q in qs])):
            keep, u = certify._face(alpha, classes, g)
            assert keep == [i for i, c in enumerate(
                (classes.g, classes.h, classes.f)) if c.m != c.L]
            ref = _face_reference(mats)
            assert np.abs(u @ u.T - ref @ ref.T).max() <= 1e-12


def _exact_rank(rows):
    """Rank of rational rows, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in rows[rank + 1:]:
            f = r[col] / rows[rank][col]
            r[:] = [a - f * b for a, b in zip(r, rows[rank])]
        rank += 1
    return rank


def test_no_second_constraint_turns_nsd_on_the_face():
    # on s_i-perp, Q_k = S_k^T Q(m, L) S_k with m < L has a positive
    # eigenvalue whenever S_k keeps rank 2 there, for Q(m, L) is indefinite.
    # After one elimination it always does; after two, S_f drops to rank 1
    # exactly when g and h are eliminated and alpha (m_g + m_h) = 1
    for alpha in (F(1, 1000), F(1, 3), F(1, 2), F(1), F(7, 2), F(10)):
        sel = [[[F(x) for x in row] for row in s]
               for s in lmikit._selectors(alpha)]
        for ms in [(F(0), F(1, 2), F(20)), (F(1), F(1), F(2)),
                   (F(2, 3), F(1, 3), F(5))]:
            # s_i = S_i^T (m_i, -1), in triplet order (g, h, f)
            dirs = [[m * a - b for a, b in zip(*s)] for s, m in zip(sel, ms)]
            for gone in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
                face = [dirs[i] for i in gone]
                for k in set(range(3)) - set(gone):
                    rank = _exact_rank(sel[k] + face) - len(gone)
                    drop = gone == [0, 1] and alpha * (ms[0] + ms[1]) == 1
                    assert rank == (1 if drop else 2), (alpha, ms, gone, k)


@pytest.mark.parametrize("alpha", [0.5, 0.5 * (1.0 + 1e-9)])
def test_rank_one_face_keeps_a_finite_multiplier(alpha):
    # g = h = (1, 1) are eliminated, and at alpha = 1/2 S_f has rank 1 on
    # their face; f = (0, inf) still keeps a finite multiplier there
    classes = _cls(0.0, math.inf, 1.0, 1.0, 1.0, 1.0)
    cert = certify_linear_rate(alpha, classes)
    assert math.isinf(cert.sigma[0]) and math.isinf(cert.sigma[1])
    assert math.isfinite(cert.sigma[2])
    assert cert.margin <= sdpcore.DEFAULT_FEAS_TOL
    assert cert.rho2 <= 1e-8


def test_audit_refuses_an_infinite_multiplier_off_the_face():
    cert = certify_linear_rate(0.02, STRONG_F_EQUAL)
    w = build_w2(cert.lam, cert.rho2)
    assert audit(w, cert.sigma, 0.02, STRONG_F_EQUAL) == cert.margin
    near = _cls(20.0, 20.0 * (1.0 + 1e-12), 0.0, math.inf, 0.0, 70.0)
    assert audit(w, cert.sigma, 0.02, near) == math.inf


# criterion 5's sets a, d and f at stepsizes of its sweep where the pinned
# program, at the joint optimum's lam, has no interior and no Farkas ray
PINNED_WITHOUT_INTERIOR = [
    (0.01333521432163324, _cls(1.0, 100.0 / 7.0, 4.0, 50.0, 0.0, 1.0 / 9.0)),
    (0.01778279410038923, _cls(1.0, 100.0 / 7.0, 4.0, 50.0, 0.0, 1.0 / 9.0)),
    (0.0031622776601683794, _cls(0.0, math.inf, 1.0, 10.0, 0.0, 20.0)),
    (0.004, _cls(0.0, 50.0, 0.0, math.inf, 2.0, 30.0)),
]


@pytest.mark.parametrize("alpha, classes", PINNED_WITHOUT_INTERIOR,
                         ids=["a-0.013335", "a-0.017783", "d-0.0031623",
                              "f-0.004"])
def test_pinned_linear_rate_at_the_joint_lambda(alpha, classes):
    # the joint optimum is feasible for the pinned program, so the pinned
    # request is never refused as infeasible. Its solve ends maxIterations:
    # whether it issues is left to a gate on optimality, but what it issues
    # must pass the audit and agree with the dual
    joint = certify_linear_rate(alpha, classes)
    try:
        pinned = certify_linear_rate(alpha, classes, lam=joint.lam)
    except CertificationError as err:
        assert "infeasible" not in str(err)
        return
    dual = dual_linear_rate(alpha, joint.lam, classes)
    assert abs(pinned.rho2 - dual) <= 1e-6
    assert pinned.margin <= sdpcore.DEFAULT_FEAS_TOL


def test_linear_rate_infeasible_stepsize():
    with pytest.raises(CertificationError):
        certify_linear_rate(50.0, STRONG_G)
    with pytest.raises(CertificationError, match="lam must be positive"):
        certify_linear_rate(3.0, STRONG_G, lam=0.0)


@pytest.mark.parametrize("alpha, classes, max_iter", [
    (50.0, STRONG_G, 1),
    (50.0, STRONG_G, 2),
    (50.0, STRONG_G, 3),
    (9.085175756516872, STRONG_G, 6),
    (0.013894954943731374, STRONG_F_EQUAL, 3)],
    ids=["1", "2", "3", "d-loose", "e-loose"])
def test_linear_rate_refuses_a_cut_solve(monkeypatch, alpha, classes,
                                         max_iter):
    # cut short, the solve stops at a rho2 < 1 that its multipliers do not
    # prove: the audit, gated on the default feasibility tolerance, refuses
    # it. The two loose cuts end with margins 1.9e-4 and 9.2e-3
    monkeypatch.setattr(sdpcore, "DEFAULT_MAX_ITER", max_iter)
    with pytest.raises(CertificationError, match="fails the audit"):
        certify_linear_rate(alpha, classes)


@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_dual_refuses_a_cut_solve(monkeypatch, max_iter):
    # cut short, the dual solve leaves an audit slack above
    # DEFAULT_FEAS_TOL: no value
    monkeypatch.setattr(sdpcore, "DEFAULT_MAX_ITER", max_iter)
    with pytest.raises(CertificationError, match="fails its audit by"):
        dual_linear_rate(0.2, 0.5, STRONG_G)


def _linear_set(name):
    """The classes of one of linear-duality's sets a-f."""
    from perfbench import workloads
    return _cls(*itertools.chain(*workloads.LINEAR_SETS[name][0]))


def test_dual_goes_on_past_a_first_step_below_1e_12(monkeypatch):
    # at lam = 1e6 the dual's first primal and dual steps are about 1e-22
    # and 1e-24 long. Such steps do not end the run: the loop goes on from
    # there and ends optimal, at the rate of the primal
    classes = _linear_set("b")
    step, steps = sdpcore._step, []
    def recorded(*args):
        out = step(*args)
        steps.append(out[0])
        return out
    monkeypatch.setattr(sdpcore, "_step", recorded)
    dual = dual_linear_rate(200.0, 1e6, classes)
    assert max(steps[:2]) <= 1e-12
    rho2, _, _, status = linear_rate_value(200.0, classes, 1e6)
    assert status == sdpcore.STATUS_OPTIMAL
    assert abs(dual - rho2) <= 1e-9 * rho2


@pytest.mark.parametrize("alpha, lam", [
    (1e154, 0.5), (1e160, 0.5), (1e200, 0.5), (0.1, 1e200)])
def test_dual_refuses_overflow_as_the_primal_does(alpha, lam):
    # on set e (f with m = L), alpha^2 overflows the Q_f that the face drops,
    # or lam^2 overflows: both producers refuse before any solve, without a
    # numpy warning and without an OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CertificationError,
                           match="^dual program overflows here$"):
            dual_linear_rate(alpha, lam, STRONG_F_EQUAL)
        with pytest.raises(CertificationError, match="overflows here"):
            certify_linear_rate(alpha, STRONG_F_EQUAL, lam)


def _quadratic_step_ratio(alpha, lam, classes):
    """The largest exact ||z+||^2 / ||z||^2 of one tos_step on the 1-D
    quadratics c x^2 / 2, each c at an end of its class (c = inf: the
    indicator of 0, whose prox is 0). Each is in its class, so every
    linear rate at (alpha, lam) is at least this ratio."""
    a, lam = F(alpha), F(lam)
    def prox(c):  # prox of alpha c x^2 / 2 as a factor
        return 0 if math.isinf(c) else 1 / (1 + a * F(c))
    ratios = []
    for cf, cg, ch in itertools.product(*((c.m, c.L) for c in (
            classes.f, classes.g, classes.h))):
        x_b = prox(cg)
        x_a = prox(cf) * (2 * x_b - 1 - a * F(ch) * x_b)
        ratios.append((1 + lam * (x_a - x_b)) ** 2)
    return max(ratios)


@pytest.mark.parametrize("name", "abcdef")
def test_linear_rates_are_not_beaten_by_quadratics(name):
    # at large alpha the rounding of the audit's eigenvalue exceeds the
    # features of W2, and the float margin alone passes false certificates
    # (on set c at alpha = 1e11 it passes rho2 = 6e-11, where a quadratic
    # contracts by 1 - 3.5e-12): every rate issued must be at least a
    # quadratic's
    classes = _linear_set(name)
    for k in range(3, 21):
        try:
            cert = certify_linear_rate(10.0 ** k, classes)
        except CertificationError:
            continue
        assert F(cert.rho2) >= _quadratic_step_ratio(
            cert.alpha, cert.lam, classes), k


@pytest.mark.parametrize("producer, alpha, lam, match", [
    ("dual", 0.0, 0.5, "alpha"), ("dual", -0.2, 0.5, "alpha"),
    ("dual", math.nan, 0.5, "alpha"), ("dual", math.inf, 0.5, "alpha"),
    ("dual", 0.2, 0.0, "lam"), ("dual", 0.2, -0.5, "lam"),
    ("dual", 0.2, math.nan, "lam"), ("dual", 0.2, math.inf, "lam"),
    ("value", 0.2, math.nan, "lam"), ("value", 0.2, 0.0, "lam"),
    ("value", 0.2, math.inf, "lam"), ("value", math.nan, None, "alpha"),
    ("value", math.inf, None, "alpha"), ("certify", 0.0, None, "alpha"),
    ("certify", 0.2, math.nan, "lam")])
def test_linear_path_refuses_a_bad_stepsize_or_lambda(producer, alpha, lam,
                                                      match):
    # alpha and a pinned lam must be positive and finite: a refusal before
    # any solve, not a ValueError from the data build or a solve at lam = 0
    call = {"dual": lambda: dual_linear_rate(alpha, lam, STRONG_G),
            "value": lambda: linear_rate_value(alpha, STRONG_G, lam),
            "certify": lambda: certify_linear_rate(alpha, STRONG_G, lam)}
    with pytest.raises(CertificationError,
                       match=f"{match} must be positive and finite"):
        call[producer]()


@pytest.mark.parametrize("name, alpha, lam", [
    ("b", 1e154, 1e150), ("d", 1e80, 0.5), ("d", 1e120, 0.5),
    ("d", 1e150, 0.5), ("d", 1e154, 0.5), ("d", 0.2, 1e150)])
def test_linear_programs_stay_in_the_float_range(name, alpha, lam):
    # a program entry above 1e150 is refused before the IPM's equilibration
    # can square it past the float range: no numpy warning from sdpcore, and
    # no certificate (solved from overflowed data, set b at 1e154 gives
    # rho2 = 7.8e-17, where a quadratic in its classes contracts by 0.9999)
    classes = _linear_set(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CertificationError, match="^linear-rate program "
                           "overflows here$"):
            certify_linear_rate(alpha, classes, lam)
        with pytest.raises(CertificationError,
                           match="^dual program overflows here$"):
            dual_linear_rate(alpha, lam, classes)


def test_linear_rate_requires_assumption():
    bad = _cls(0.0, math.inf, 0.0, math.inf, 0.0, 1.0)
    with pytest.raises(CertificationError):
        certify_linear_rate(0.1, bad)


def test_dual_solution_matrix():
    val, z = dual_linear_rate(0.2, 0.5, STRONG_G, return_z=True)
    assert z.shape == (4, 4)
    assert np.linalg.eigvalsh(z).min() >= -1e-9


def test_audit_refuses_a_nudged_certificate():
    # one audit serves every mode: each issued certificate passes it, and
    # the same multipliers fail it once the rate moves 0.1% past the optimum;
    # the last certificate has an infinite multiplier
    case1 = certify._case1_classes(1.0)
    smooth = _cls(0.0, 2.0, 0.0, math.inf, 0.0, 3.0)
    w0 = lambda cert, theta: build_w0(cert.lam, theta, cert.alpha)
    w2 = lambda cert, rho2: build_w2(cert.lam, rho2)
    cases = [
        (symbolic_sublinear(0.5, 1.0), case1, w0),
        (certify_residual_rate(1.0, 1.0, case1), case1, w0),
        (certify_residual_rate(0.5, None, case1), case1, w0),
        (certify_objective_rate(0.7, 2.0, 3.0), smooth,
         lambda cert, theta: build_w1(cert.lam, theta, 0.7, 2.0, 3.0)),
        (certify_linear_rate(0.2, STRONG_G), STRONG_G, w2),
        (certify_linear_rate(0.2, STRONG_G, lam=0.3), STRONG_G, w2),
        (certify_linear_rate(0.02, STRONG_F_EQUAL), STRONG_F_EQUAL, w2),
    ]
    assert math.isinf(cases[-1][0].sigma[2])
    for cert, classes, w in cases:
        face = cert.alpha, classes
        assert audit(w(cert, cert.rate()), cert.sigma, *face) == cert.margin
        assert cert.margin <= 1e-8, cert
        nudge = 0.999 if cert.mode == MODE_LINEAR else 1.001
        assert audit(w(cert, nudge * cert.rate()), cert.sigma, *face) > 1e-5, \
            cert


@pytest.mark.parametrize("alpha", [1.0, 3.0])
def test_linear_rate_refuses_a_rate_within_tolerance_of_one(alpha):
    # at lam = 1e-9 no iteration contracts by more than roundoff: the solves
    # end at rho2 = 1 - 4.5e-11 (alpha = 1) and 1 - 1.5e-9 (alpha = 3)
    rho2, _, _, status = linear_rate_value(alpha, STRONG_G, lam=1e-9)
    assert status == sdpcore.STATUS_OPTIMAL
    assert 0 < 1.0 - rho2 <= sdpcore.DEFAULT_FEAS_TOL
    with pytest.raises(CertificationError, match="no linear certificate"):
        certify_linear_rate(alpha, STRONG_G, lam=1e-9)


def test_check_assumption():
    assert check_assumption1(STRONG_G)
    assert check_assumption1(STRONG_F_EQUAL)
    assert not check_assumption1(_cls(0, math.inf, 0, math.inf, 0, 1.0))
    assert not check_assumption1(_cls(1, math.inf, 0, math.inf, 0, 1.0))
    assert not check_assumption1(_cls(0, 1.0, 1, 2.0, 0, math.inf))


def test_certificate_json_round_trip():
    cert = RateCertificate(mode=MODE_LINEAR, alpha=0.1, lam=0.7,
                           sigma=(1.5, math.inf, 2.0), margin=-1e-10,
                           provenance="sdp", rho2=0.9)
    back = certificate_from_json(certificate_to_json(cert))
    assert back == cert
    cert2 = symbolic_sublinear(0.5, 1.0)
    back2 = certificate_from_json(certificate_to_json(cert2))
    assert back2.theta == cert2.theta and back2.mode == MODE_RESIDUAL


def test_sweep_linear_sentinels_and_interior_minimum():
    grid = np.geomspace(1e-3, 1.0, 12)
    curve, (best_alpha, best_rate) = sweep_alpha(grid, STRONG_F_EQUAL,
                                                 MODE_LINEAR)
    assert len(curve) == 12
    for rec in curve:
        if not rec["feasible"]:
            assert rec["rate"] == 1.0 and rec["lambda"] is None
    assert best_rate < 1.0
    feas = [rec for rec in curve if rec["feasible"]]
    assert feas  # the class set admits a contraction on part of the grid
    assert 1e-3 < best_alpha < 1.0


def test_sweep_residual_mode():
    grid = [0.5, 1.0, 1.5, 2.0]
    curve, (best_alpha, best_rate) = sweep_alpha(
        grid, certify._case1_classes(1.0), MODE_RESIDUAL, lam=0.5)
    assert best_rate >= max(rec["rate"] for rec in curve if rec["feasible"]) \
        - 1e-12
    at_symbolic = next(rec for rec in curve if rec["alpha"] == 1.5)
    assert abs(at_symbolic["rate"] - symbolic_sublinear(0.5, 1.0).theta) < 1e-6
    assert best_alpha in grid


def test_sweep_rejects_empty_and_unknown():
    with pytest.raises(CertificationError):
        sweep_alpha([], STRONG_G, MODE_LINEAR)
    with pytest.raises(ValueError):
        sweep_alpha([0.1], STRONG_G, "nonsenseMode")


def _contraction_trace(rho, steps, dim=3, seed=0):
    # prox outputs x_B = z and x_A = rho z make the update z -> rho z
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim)
    trace = tos.IterateTrace(alpha=1.0, lam=1.0, z0=z)
    for _ in range(steps):
        trace.x_b.append(z)
        trace.x_a.append(rho * z)
        trace.residual_norm2.append(float(z @ z))
        z = tos.relax(z, z, rho * z, trace.lam)
    return trace


def test_lyapunov_check_linear_pass_and_fail():
    rho = 0.9
    trace = _contraction_trace(rho, 60)
    cert = RateCertificate(mode=MODE_LINEAR, alpha=1.0, lam=1.0,
                           sigma=(1.0, 1.0, 1.0), margin=0.0,
                           provenance="sdp", rho2=rho ** 2)
    rep = empirical_lyapunov_check(trace, np.zeros(3), cert)
    assert rep["violations"] == [] and rep["bound_ok"]
    tight = RateCertificate(mode=MODE_LINEAR, alpha=1.0, lam=1.0,
                            sigma=(1.0, 1.0, 1.0), margin=0.0,
                            provenance="sdp", rho2=(0.8 * rho) ** 2)
    rep_bad = empirical_lyapunov_check(trace, np.zeros(3), tight)
    assert rep_bad["violations"] != []


def test_lyapunov_check_residual_mode_on_real_trace():
    # one dimensional: f = g = 0, h = x^2/2, certificate from the closed form
    cert = symbolic_sublinear(0.5, 1.0)
    oracle = tos.OperatorOracle(
        prox_f=tos.ZeroProx(), prox_g=tos.ZeroProx(),
        grad_h=lambda x: x)
    config = tos.TosConfig(alpha=cert.alpha, lam=cert.lam, max_iter=300)
    trace = tos.run(oracle, np.array([4.0]), config)
    rep = empirical_lyapunov_check(trace, np.zeros(1), cert)
    assert rep["violations"] == [] and rep["bound_ok"]
    assert rep["worst_product"] <= rep["initial_dist2"] * (1 + 1e-6)


def test_lyapunov_check_objective_mode_needs_fstar():
    cert = certify_objective_rate(1.0, 1.0, 1.0)
    trace = _contraction_trace(0.9, 5)
    trace.objective = [1.0] * 5
    with pytest.raises(ValueError):
        empirical_lyapunov_check(trace, np.zeros(3), cert)


def test_lyapunov_check_dimension_mismatch():
    cert = symbolic_sublinear(0.5, 1.0)
    trace = _contraction_trace(0.9, 5)
    with pytest.raises(ValueError):
        empirical_lyapunov_check(trace, np.zeros(7), cert)


def _schur_on(m, lam, u):
    """schur_extend(m - eta eta^T, lam) on span(u) and the last axis, then
    the bounds LAM_MIN <= lam <= LAM_MAX as diagonal entries."""
    eta = eta_vector(lam)
    ext = block_diag(u, 1.0)
    top = ext.T @ schur_extend(m - np.outer(eta, eta), lam) @ ext
    return block_diag(top, np.diag([certify.LAM_MIN - lam,
                                    lam - certify.LAM_MAX]))


def _qc_sum(alpha, classes, sigma, keep=(0, 1, 2)):
    qs = build_qc_triplet(alpha, classes.f, classes.g, classes.h)
    return sum(s * qs[i] for s, i in zip(sigma, keep))


# the joint optimum's lambda at alpha = 0.02 for STRONG_F_EQUAL
LINEAR_LAM = 1.2623475379863163


def _paper_program(shape, y, lmi):
    """The LMI of one program shape at y, from the paper's matrices.

    lmi is the program's own matrix at y; the face programs carry their
    multipliers on the diagonal, and they are read from there. Last on the
    diagonal come the sign rows of the rate and of each multiplier that is
    a variable.
    """
    if shape.startswith("residual"):
        alpha, lam = (1.5, 0.5) if shape == "residual-pinned" else (1.0, y[1])
        sigma = -np.diag(lmi)[-4:-1]
        m = build_w0(lam, y[0], alpha) + _qc_sum(
            alpha, certify._case1_classes(1.0), sigma)
        # the face: equal deviations v and w = (0, -1, 0, 1) are null
        # directions, and the basis is orthonormal and orthogonal to both
        basis = face_programs.RESIDUAL_BASIS
        assert np.abs(basis.T @ basis - np.eye(2)).max() <= 1e-15
        for d in (np.ones(4), np.array([0.0, -1.0, 0.0, 1.0])):
            assert np.abs(m @ d).max() <= 1e-12 * np.abs(m).max()
            assert not (basis.T @ d).any()
        signs = np.diag(-np.append(sigma, y[0]))
        if shape == "residual-pinned":
            return block_diag(basis.T @ m @ basis, signs)
        return block_diag(_schur_on(m, lam, basis), signs)
    if shape == "objective-face":
        classes = _cls(0.0, 2.0, 0.0, math.inf, 0.0, 3.0)
        sigma = -np.diag(lmi)[6:9]
        m = build_w1(y[1], y[0], 0.7, 2.0, 3.0) + _qc_sum(0.7, classes, sigma)
        # the face: equal deviations of every variable are a null direction
        assert np.abs(m @ np.ones(4)).max() <= 1e-12 * np.abs(m).max()
        basis = face_programs.FACE_BASIS
        assert np.linalg.matrix_rank(basis) == 3
        assert not (basis.T @ np.ones(4)).any()
        return block_diag(_schur_on(m, y[1], basis),
                          np.diag(-np.append(sigma, y[0])))
    keep, u = certify._face(0.02, STRONG_F_EQUAL)
    if shape == "linear-pinned":
        return block_diag(u.T @ (build_w2(LINEAR_LAM, y[0])
                                 + _qc_sum(0.02, STRONG_F_EQUAL, y[1:], keep))
                          @ u, np.diag(-y))
    return block_diag(
        _schur_on(build_w2(y[1], y[0])
                  + _qc_sum(0.02, STRONG_F_EQUAL, y[2:], keep), y[1], u),
        np.diag(-np.append(y[0], y[2:])))


def _face_solve(program, *args):
    return sdpcore.solve_sdp(program(*args)[0])


# the sublinear programs are tests/face_programs.py's: their producers
# solve them in closed form, and the optimum must meet that closed form
_PRODUCERS = {
    "residual-pinned": lambda: _face_solve(
        face_programs.residual_program, 1.5, 0.5, certify._case1_classes(1.0)),
    "residual-joint": lambda: _face_solve(
        face_programs.residual_program, 1.0, None, certify._case1_classes(1.0)),
    "objective-face": lambda: _face_solve(face_programs.objective_program,
                                          0.7, 2.0, 3.0),
    "linear-pinned": lambda: linear_rate_value(0.02, STRONG_F_EQUAL,
                                               lam=LINEAR_LAM),
    "linear-joint": lambda: linear_rate_value(0.02, STRONG_F_EQUAL),
}
_CLOSED_FORMS = {
    "residual-pinned": lambda: certify_residual_rate(
        1.5, 0.5, certify._case1_classes(1.0)),
    "residual-joint": lambda: certify_residual_rate(
        1.0, None, certify._case1_classes(1.0)),
    "objective-face": lambda: certify_objective_rate(0.7, 2.0, 3.0),
}


@pytest.mark.parametrize("shape", sorted(_PRODUCERS))
def test_program_matches_paper_lmi(shape, monkeypatch):
    # the program of each shape, against the same LMI assembled from W0,
    # W1, W2, the Q_i, the Schur extension and the subspace, at the solved
    # point and at random admissible (rate, lam, sigma)
    seen = []
    solve = sdpcore.solve_sdp

    def spy(prob, *args, **kwargs):
        sol = solve(prob, *args, **kwargs)
        seen.append((prob, sol))
        return sol
    monkeypatch.setattr(sdpcore, "solve_sdp", spy)
    _PRODUCERS[shape]()
    (prob, sol), = seen
    assert sol.status == sdpcore.STATUS_OPTIMAL
    if shape in _CLOSED_FORMS:
        theta = _CLOSED_FORMS[shape]().theta
        assert sol.y[0] * (1 - 1e-12) <= theta <= sol.y[0] * (1 + 1e-6)
    rng = np.random.default_rng(sorted(_PRODUCERS).index(shape))
    points = [sol.y]
    for _ in range(20):
        y = rng.uniform(0.0, 3.0, prob.nvars)
        y[0] = rng.uniform(0.01, 1.0)
        if not shape.endswith("pinned"):
            y[1] = rng.uniform(0.05, 2.0)
        points.append(y)
    verdicts = []
    for y in points:
        lmi = prob.f0 + sum(yi * fi for yi, fi in zip(y, prob.fi))
        ref = _paper_program(shape, y, lmi)
        assert np.abs(lmi - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        nsd = np.linalg.eigvalsh(lmi).max() <= 1e-7
        assert nsd == (np.linalg.eigvalsh(ref).max() <= 1e-7)
        verdicts.append(nsd)
    assert verdicts[0] and not all(verdicts)
