"""Tests for the quadratic-constraint and LMI building blocks."""

import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toscert import lmikit
from toscert.lmikit import (KRON_DIM_CAP, RELAX_LIN, RELAX_P,
                            RegularityClass, build_dual_data,
                            build_qc_triplet, build_w0, build_w1, build_w2,
                            eigvalsh, eta_vector, kron_identity, max_eig,
                            objective_cubic, objective_quintic, qc_base,
                            schur_extend, sym_check, w1_slope)
from face_programs import FACE_FOLD, face_sigma
from test_sdpcore import _exact_pd

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def test_regularity_class_validation():
    with pytest.raises(ValueError):
        RegularityClass(-1.0, 2.0)
    with pytest.raises(ValueError):
        RegularityClass(0.0, 0.0)
    with pytest.raises(ValueError):
        RegularityClass(3.0, 2.0)
    with pytest.raises(ValueError):
        RegularityClass(math.inf, math.inf)
    assert RegularityClass(0.0, math.inf).smooth is False
    assert RegularityClass(0.0, 5.0).smooth is True


def test_qc_base_finite_example():
    q = qc_base(RegularityClass(1.0, 2.0))
    expect = np.array([[-2.0 / 3.0, 0.5], [0.5, -1.0 / 3.0]])
    assert np.allclose(q, expect, atol=1e-15)


def test_qc_base_nonsmooth_limit():
    q = qc_base(RegularityClass(1.0, math.inf))
    assert np.allclose(q, [[-1.0, 0.5], [0.5, 0.0]], atol=1e-15)
    q0 = qc_base(RegularityClass(0.0, math.inf))
    assert np.allclose(q0, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)


def test_qc_base_merely_smooth():
    q = qc_base(RegularityClass(0.0, 4.0))
    assert np.allclose(q, [[0.0, 0.5], [0.5, -0.25]], atol=1e-15)


@given(m=st.floats(0.0, 10.0), gap=st.floats(1e-3, 10.0),
       t=st.floats(0.0, 1.0), dx=st.floats(-5.0, 5.0))
def test_qc_nonnegative_on_gradient_pairs(m, gap, t, dx):
    # for a quadratic with curvature q in [m, L] the pair (dx, q dx)
    # satisfies the class constraint with equality at both endpoints
    L = m + gap
    q = m + t * (L - m)
    v = np.array([dx, q * dx])
    base = qc_base(RegularityClass(m, L))
    val = v @ base @ v
    # exact form: dx^2 (q - m)(L - q)/(m + L)
    assert val >= -1e-9 * max(1.0, dx * dx)


def test_qc_boundary_curvature_is_tight():
    base = qc_base(RegularityClass(1.0, 3.0))
    for q in (1.0, 3.0):
        v = np.array([2.0, 2.0 * q])
        assert abs(v @ base @ v) < 1e-12


def test_build_qc_triplet_shapes():
    f = RegularityClass(0.0, math.inf)
    g = RegularityClass(1.0, 10.0)
    h = RegularityClass(0.0, 20.0)
    for q in build_qc_triplet(0.3, f, g, h):
        assert q.shape == (4, 4)
        assert np.allclose(q, q.T)


def _sandwiches(alpha, f, g, h):
    """The reference: S_i^T Q(m, L) S_i, one product per class."""
    return [s.T @ qc_base(c) @ s
            for s, c in zip(lmikit._selectors(alpha), (g, h, f))]


def test_batched_triplet_is_the_sandwiches_bit_for_bit():
    # the six class sets of the linear-duality workload and case-1 classes
    # of the objective rate, each at its 25 grid stepsizes and at 2,000
    # log-uniform ones in [1e-9, 1e9]. (S^T Q) S and S^T (Q S) agree in bits
    # here, Q being symmetric, but a product that sums S^T Q S's four terms
    # at once (einsum) or expands alpha^2 differs at most stepsizes
    from perfbench import workloads
    sets = [(tuple(RegularityClass(*c) for c in classes), span)
            for classes, span in workloads.LINEAR_SETS.values()]
    case1 = (RegularityClass(0.0, 3.0), RegularityClass(0.0, math.inf),
             RegularityClass(0.0, 10.0))
    sets.append((case1, workloads.SURFACE_ALPHAS[:2]))
    rng = np.random.default_rng(0)
    wide = [float(a) for a in 10.0 ** rng.uniform(-9.0, 9.0, 2000)]
    for (f, g, h), (lo, hi) in sets:
        for alpha in [float(a) for a in np.geomspace(lo, hi, 25)] + wide:
            got = build_qc_triplet(alpha, f, g, h)
            assert [q.tobytes() for q in got] == [
                q.tobytes() for q in _sandwiches(alpha, f, g, h)], alpha


def test_face_sigma_is_exact_in_fractions():
    # Q_i v = (alpha / 2) r_i on the face, r_i the second row of S_i, and
    # FACE_FOLD is the left inverse of [r_1 r_2 r_3]: in rationals the fold
    # meets sum sigma_i (alpha / 2) r_i = -W v with no roundoff
    for alpha in (Fraction(1, 1000), Fraction(1, 3), Fraction(1),
                  Fraction(7, 2)):
        rows = np.array([[Fraction(x) for x in s[1]]
                         for s in lmikit._selectors(alpha)], dtype=object)
        assert (FACE_FOLD @ rows.T == np.eye(3, dtype=int)).all()
        for w in (RELAX_P, RELAX_LIN):
            wq = np.array([[Fraction(int(x)) for x in row] for row in w],
                          dtype=object)
            assert (wq == w).all()
            sigma = face_sigma(alpha, wq)
            assert all(isinstance(s, Fraction) for s in sigma)
            assert (sigma @ rows * (alpha / 2) == -wq.sum(axis=1)).all()


@pytest.mark.parametrize("alpha, lf, lh", [
    (0.7, 2.0, 3.0), (0.05, 30.0, 1.0), (4.0079, 10.0, 1.0), (1.0, 1.0, 1.0)])
def test_face_sigma_matches_least_squares(alpha, lf, lh):
    # the closed-form fold against a least-squares solve of M v = 0
    qs = build_qc_triplet(alpha, RegularityClass(0.0, lf),
                          RegularityClass(0.0, math.inf),
                          RegularityClass(0.0, lh))
    v = np.ones(4)
    qv = np.column_stack([q @ v for q in qs])
    w = w1_slope(alpha, lf, lh)
    want = np.linalg.lstsq(qv, -w @ v, rcond=None)[0]
    got = face_sigma(alpha, w)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    assert np.abs(w @ v + qv @ got).max() <= 1e-12 * np.abs(w).max()


def _det(rows):
    """The determinant of a square matrix of Fractions, by elimination."""
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(len(rows)):
        piv = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in rows[col + 1:]:
            f = r[col] / rows[col][col]
            r[:] = [a - f * b for a, b in zip(r, rows[col])]
    return det


def _derivative_at(fn, x, degree):
    """fn'(x) for a polynomial fn of at most the given degree, exactly:
    Lagrange interpolation on the nodes x + k, differentiated at x."""
    nodes = [x + k for k in range(degree + 1)]
    total = Fraction(0)
    for i, xi in enumerate(nodes):
        others = [xj for j, xj in enumerate(nodes) if j != i]
        denom = math.prod(xi - xj for xj in others)
        # d/dx of prod (x - xj) at x = nodes[0]
        slope = sum(math.prod(x - xk for xk in others if xk != xj)
                    for xj in others)
        total += fn(xi) * slope / denom
    return total


@pytest.mark.parametrize("alpha, lf, lh, lam", [
    ("1", "1", "1", "1/2"), ("1/3", "10", "3", "7/5"), ("2", "1/2", "1", "3"),
    ("1/20", "30", "30", "1/1000"), ("5/4", "3", "1/7", "2/3")])
def test_objective_quintic_is_the_resultant(alpha, lf, lh, lam):
    # Res_theta(p, dp/dlam) as a Sylvester determinant in Fraction, with
    # dp/dlam's coefficients differentiated exactly from p's
    a, lf, lh, lam = (Fraction(v) for v in (alpha, lf, lh, lam))
    def cubic(x):
        return objective_cubic(a, lf, lh, x, a * lh + 2 * x - 4)
    p = cubic(lam)
    dp = [_derivative_at(lambda x, k=k: cubic(x)[k], lam, 4)
          for k in range(1, 4)]
    sylvester = [[*p, 0], [0, *p], [*dp, 0, 0], [0, *dp, 0], [0, 0, *dp]]
    q = sum(c * lam ** (5 - k)
            for k, c in enumerate(objective_quintic(a, lf, lh)))
    assert q != 0
    assert _det(sylvester) == -4096 * a ** 4 * lam ** 6 * q


def test_sym_check_symmetrizes_and_validates():
    out = sym_check(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(out, [[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError):
        sym_check(np.array([[math.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        sym_check(np.zeros((2, 3)))


def test_build_w0_symbolic_feasibility():
    # at the closed-form parameter choice the certificate matrix is NSD
    lam, Lh = 0.5, 2.0
    alpha = (2.0 - lam) / Lh
    theta = (2.0 - lam) ** 3 * lam / (2.0 * Lh ** 2)
    sig = 2.0 * lam / alpha
    f = RegularityClass(0.0, math.inf)
    g = RegularityClass(0.0, math.inf)
    h = RegularityClass(0.0, Lh)
    m = build_w0(lam, theta, alpha)
    for q in build_qc_triplet(alpha, f, g, h):
        m = m + sig * q
    assert max_eig(m) <= 1e-10


def test_build_w0_infeasible_when_theta_too_large():
    lam, Lh = 0.5, 2.0
    alpha = (2.0 - lam) / Lh
    theta = 10.0 * (2.0 - lam) ** 3 * lam / (2.0 * Lh ** 2)
    sig = 2.0 * lam / alpha
    f = RegularityClass(0.0, math.inf)
    g = RegularityClass(0.0, math.inf)
    h = RegularityClass(0.0, Lh)
    m = build_w0(lam, theta, alpha)
    for q in build_qc_triplet(alpha, f, g, h):
        m = m + sig * q
    assert max_eig(m) > 1e-3


def test_build_w1_theta_zero_matches_zero_rate_part():
    # theta enters linearly; the difference of two builds isolates its slope
    a = build_w1(0.7, 2.0, 0.4, 3.0, 5.0)
    b = build_w1(0.7, 1.0, 0.4, 3.0, 5.0)
    c = build_w1(0.7, 0.0, 0.4, 3.0, 5.0)
    assert np.allclose(a - b, b - c, atol=1e-12)


def test_builders_match_the_paper_at_a_generic_point():
    # the programs and the audits share these builders, so their one
    # independent check is this transcription of the paper's W0, W1 and W2,
    # at a point where c = 4/5 and no two formulas coincide; every input is
    # a float exactly
    alpha, Lf, Lh, lam = Fraction(1, 2), 3, 5, Fraction(3, 4)
    theta, rho2 = Fraction(5, 16), Fraction(9, 16)
    a = lam ** 2 + theta / alpha ** 2
    w0 = [[a, 0, -a, -lam], [0, 0, 0, 0], [-a, 0, a, lam], [-lam, 0, lam, 0]]
    c = 1 / (alpha ** 2 * Lh)
    b = -lam ** 2 - theta * (1 / (2 * alpha) + Fraction(Lf, 2))
    w1 = [[lam ** 2 + (1 / alpha + Fraction(Lf, 2) - 2 * c) * theta,
           theta * c, b, -lam + theta * c],
          [theta * c, -theta * c / 2, 0, -theta * c / 2],
          [b, 0, lam ** 2 + theta * Fraction(Lf, 2), lam],
          [-lam + theta * c, -theta * c / 2, lam, -theta * c / 2]]
    w2 = [[lam ** 2, 0, -lam ** 2, -lam], [0, 0, 0, 0],
          [-lam ** 2, 0, lam ** 2, lam], [-lam, 0, lam, 1 - rho2]]
    f = float
    built = (build_w0(f(lam), f(theta), f(alpha)),
             build_w1(f(lam), f(theta), f(alpha), Lf, Lh),
             build_w2(f(lam), f(rho2)))
    for exact, got in zip((w0, w1, w2), built):
        np.testing.assert_allclose(got, np.array(exact, dtype=float),
                                   rtol=1e-15, atol=0)


def test_build_w2_rate_entry():
    w = build_w2(0.8, 0.36)
    assert abs(w[3, 3] - (1.0 - 0.36)) < 1e-15
    assert abs(w[0, 0] - 0.64) < 1e-15
    assert abs(w[0, 3] + 0.8) < 1e-15
    assert abs(w[1, 1]) < 1e-15


def test_eta_vector():
    assert np.allclose(eta_vector(0.8), [0.8, 0.0, -0.8, 0.0])


def test_schur_extend_equivalence():
    rng = np.random.default_rng(5)
    for _ in range(20):
        lam = float(rng.uniform(0.1, 1.9))
        a = rng.standard_normal((4, 4))
        m = -(a @ a.T) - 0.1 * np.eye(4)
        eta = eta_vector(lam)
        direct = np.linalg.eigvalsh(m + np.outer(eta, eta)).max()
        ext = max_eig(schur_extend(m, lam))
        assert (direct <= 0) == (ext <= 1e-12)


def test_schur_extend_corner():
    ext = schur_extend(-np.eye(4), 0.5)
    assert ext.shape == (5, 5)
    assert ext[4, 4] == -1.0
    assert ext[0, 4] == 0.5 and ext[2, 4] == -0.5


def test_build_dual_data_map_invertible():
    w_o, w_i, gm = build_dual_data(0.7)
    assert abs(np.linalg.det(gm)) > 1e-12
    assert np.allclose(w_o, w_o.T)
    assert np.allclose(w_i, w_i.T)


def _set_a_certificate():
    """The linear-rate LMI of parameter set a at alpha = 0.01778 (joint)."""
    alpha, lam, rho2 = (0.01778279410038923, 3.3246616748084916,
                        0.5322128625118555)
    sigma = (304.36643075071737, 295.9439869675593, 383.0948893179348)
    f, g, h = (RegularityClass(1.0, 100 / 7), RegularityClass(4.0, 50.0),
               RegularityClass(0.0, 1 / 9))
    w_o, w_i, _ = build_dual_data(lam)
    m = w_o - rho2 * w_i
    for s, q in zip(sigma, build_qc_triplet(alpha, f, g, h)):
        m = m + s * q
    return m


def _exact_shift(m, t):
    """t I - m in exact rational arithmetic."""
    return [[t * (i == j) - Fraction(v) for j, v in enumerate(row)]
            for i, row in enumerate(m.tolist())]


def test_max_eig_is_bracketed_exactly():
    # t I - M is PD iff t exceeds the top eigenvalue, so the two exact LDL^T
    # tests put it in [top - eps, top + eps) for eps = 2 n eps_mach |M|_F
    rng = np.random.default_rng(11)
    mats = [_set_a_certificate()]
    for n in (1, 2, 5, 9, 16):
        for _ in range(2):
            a = rng.standard_normal((n, n))
            mats.append(0.5 * (a + a.T))
    for m in mats:
        top = Fraction(max_eig(m))
        eps = Fraction(2 * len(m) * np.finfo(float).eps * np.linalg.norm(m))
        assert _exact_pd(_exact_shift(m, top + eps))
        assert not _exact_pd(_exact_shift(m, top - eps))


def test_eigvalsh_matches_numpy():
    # LAPACK's dsyevd called directly: ascending, and within the same
    # 2 n eps_mach |M|_F of numpy's eigvalsh as max_eig's exact bracket
    rng = np.random.default_rng(13)
    for n in range(1, 10):
        for scale in (1e-6, 1.0, 1e6):
            a = scale * rng.standard_normal((n, n))
            m = 0.5 * (a + a.T)
            w = eigvalsh(m)
            assert w.shape == (n,)
            assert np.all(np.diff(w) >= 0)
            eps = 2 * n * np.finfo(float).eps * np.linalg.norm(m)
            assert np.abs(w - np.linalg.eigvalsh(m)).max() <= eps


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_kron_identity_preserves_extreme_eigenvalue(seed, d):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    big = kron_identity(a, d)
    assert big.shape == (n * d, n * d)
    assert abs(max_eig(big) - max_eig(a)) < 1e-10
    assert (max_eig(big) <= 0) == (max_eig(a) <= 0)


def test_kron_identity_dimension_cap():
    with pytest.raises(ValueError):
        kron_identity(np.zeros((16, 16)), KRON_DIM_CAP)
