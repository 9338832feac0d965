"""Tests for the dense LMI interior-point engine."""

import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.linalg.lapack import dpotrf, dpotrs

from face_programs import objective_program
from toscert import certify, sdpcore
from toscert.lmikit import (RegularityClass, build_qc_triplet, build_w0,
                           eigvalsh)
from toscert.sdpcore import (LinearSdp, STATUS_INFEASIBLE,
                             STATUS_NUMERICAL_FAILURE, STATUS_OPTIMAL,
                             analytic_instances, feasibility_margin, solve_sdp)


def test_analytic_instances():
    for prob, target in analytic_instances():
        sol = solve_sdp(prob, gap_tol=1e-11)
        assert sol.status == STATUS_OPTIMAL
        assert abs(abs(sol.objective) - target) < 1e-8
        assert sol.slack <= 1e-8


def test_linear_sdp_validation():
    with pytest.raises(ValueError):
        LinearSdp(np.array([1.0]), np.eye(2), ())
    with pytest.raises(ValueError):
        LinearSdp(np.array([1.0]), np.eye(2), (np.eye(3),))
    with pytest.raises(ValueError):
        LinearSdp(np.array([math.nan]), np.eye(2), (np.eye(2),))


def test_zero_variable_program():
    prob = LinearSdp(np.zeros(0), -np.eye(2), ())
    sol = solve_sdp(prob)
    assert sol.status == STATUS_OPTIMAL
    bad = LinearSdp(np.zeros(0), np.eye(2), ())
    assert solve_sdp(bad).status == STATUS_INFEASIBLE


def test_feasibility_margin_examples():
    t, _ = feasibility_margin(np.array([[-1.0]]), [])
    assert abs(t - 1.0) < 1e-7
    t, _ = feasibility_margin(np.array([[1.0]]), [])
    assert abs(t + 1.0) < 1e-7


@pytest.mark.parametrize("a", [2e4, 1e6])
def test_feasibility_margin_of_large_data(a):
    # the margin program is always feasible, so its run must not end on a
    # Farkas ray however large the data: t* = -a certifies infeasibility
    t, _ = feasibility_margin(np.array([[a]]), [])
    assert abs(t + a) <= 1e-7 * a


def test_infeasible_detection():
    # y >= 0 (the last row) cannot make diag(1, -y) NSD in its first entry
    prob = LinearSdp(np.array([1.0]),
                     np.diag([1.0, 0.0, 0.0]),
                     (np.diag([0.0, -1.0, -1.0]),))
    sol = solve_sdp(prob)
    assert sol.status == STATUS_INFEASIBLE


def _objective_solve(alpha, lf, lh):
    """solve_sdp on the objective-rate program, which the producer solves
    in closed form or refuses without a solve: an IPM fixture."""
    return solve_sdp(objective_program(alpha, lf, lh)[0])


def test_refusal_is_one_solve(monkeypatch):
    # solve_sdp refuses from the Farkas ray of its own run, never from a
    # second feasibility_margin solve
    def second_solve(*args, **kwargs):
        raise AssertionError("solve_sdp called feasibility_margin")

    monkeypatch.setattr(sdpcore, "feasibility_margin", second_solve)
    test_infeasible_detection()
    alpha = np.geomspace(0.05, 5.0, 30)[-2]
    assert _objective_solve(alpha, 3.0, 3.0).status == STATUS_INFEASIBLE


def test_certificate_margin_tracks_theta():
    # below the closed-form optimal rate the margin sits at zero (there are
    # always neutral directions); above it the margin goes clearly negative
    lam, Lh = 0.5, 1.0
    alpha = (2.0 - lam) / Lh
    cls = RegularityClass(0.0, math.inf)
    h = RegularityClass(0.0, Lh)
    # each sigma_i >= 0 is a diagonal row of its own, and t covers them too
    qs = [block_diag(q, -np.diag(e))
          for q, e in zip(build_qc_triplet(alpha, cls, cls, h), np.eye(3))]
    theta_star = (2.0 - lam) ** 3 * lam / (2.0 * Lh ** 2)
    t_ok, y = feasibility_margin(
        block_diag(build_w0(lam, 0.9 * theta_star, alpha), np.zeros((3, 3))),
        qs)
    assert abs(t_ok) <= 1e-7
    assert all(v >= -1e-9 for v in y)
    t_bad, _ = feasibility_margin(
        block_diag(build_w0(lam, 1.5 * theta_star, alpha), np.zeros((3, 3))),
        qs)
    assert t_bad < -0.01


def test_scaling_invariance():
    # multiplying all data by a large constant must not change the argmin
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    # y >= 0 is the last row
    f0 = block_diag(-(a @ a.T) - np.eye(3), 0.0)
    f1 = np.diag([1.0, 0.5, 0.25, -1.0])
    prob1 = LinearSdp(np.array([-1.0]), f0, (f1,))
    prob2 = LinearSdp(np.array([-1e6]), 1e6 * f0, (1e6 * f1,))
    y1 = solve_sdp(prob1).y[0]
    y2 = solve_sdp(prob2).y[0]
    assert abs(y1 - y2) < 1e-6 * max(1.0, abs(y1))


def test_optimal_status_implies_small_slack():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((4, 4))
        f0 = -(a @ a.T) - 0.5 * np.eye(4)
        b = rng.standard_normal((4, 4))
        f1 = 0.5 * (b + b.T)
        prob = LinearSdp(np.array([-1.0]), f0, (f1,))
        sol = solve_sdp(prob)
        if sol.status == STATUS_OPTIMAL:
            assert sol.slack <= 1e-8
            assert sol.gap <= 1e-6 or sol.iterations <= 200


def test_monotone_in_added_slack_variable():
    # a variable y_2 >= 0 whose only row is its sign row must stay near
    # zero and not disturb the optimum
    f0 = np.array([[1.0]])
    f1 = np.array([[-1.0]])
    base = LinearSdp(np.array([1.0]), f0, (f1,))
    padded = LinearSdp(np.array([1.0, 0.0]), np.diag([1.0, 0.0]),
                       (np.diag([-1.0, 0.0]), np.diag([0.0, -1.0])))
    v1 = solve_sdp(base).objective
    v2 = solve_sdp(padded).objective
    assert abs(v1 - v2) < 1e-7


def test_tolerance_validation():
    prob = analytic_instances()[0][0]
    for gap_tol in (0.0, 1.0):
        with pytest.raises(ValueError):
            solve_sdp(prob, gap_tol=gap_tol)


def test_iterations_counts_the_iterations_run(monkeypatch):
    inst, _ = analytic_instances()[2]
    full = solve_sdp(inst)
    monkeypatch.setattr(sdpcore, "DEFAULT_MAX_ITER", 3)
    sol = solve_sdp(inst)
    assert sol.status != STATUS_OPTIMAL
    assert sol.iterations == 3
    assert full.iterations > 3


def _exact_pd(m):
    """Positive definiteness of the exact rational matrix m, by LDL^T."""
    a = [list(row) for row in m]
    n = len(a)
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return True


def _exact_step(x, dx, t):
    """x + t dx in exact rational arithmetic."""
    t = Fraction(t)
    return [[Fraction(xv) + t * Fraction(dv) for xv, dv in zip(xr, dr)]
            for xr, dr in zip(x.tolist(), dx.tolist())]


def test_steplen_matches_brute_force():
    rng = np.random.default_rng(11)
    pairs = []
    for n, cond in ((2, 1.0), (5, 1e3), (8, 1e6), (8, 1e12)):
        for _ in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            x = (q * np.geomspace(1.0, 1.0 / cond, n)) @ q.T
            x = 0.5 * (x + x.T)
            b = rng.standard_normal((n, n))
            # a push along x's smallest eigenvector makes dx indefinite
            push = 2.0 * np.abs(b).sum() * np.outer(q[:, -1], q[:, -1])
            pairs.append((x, b + b.T - push, False))
            pairs.append((x, b @ b.T, True))
    for x, dx, psd in pairs:
        li = sdpcore.dtrtri(sdpcore._chol(x), lower=1)[0]
        a = sdpcore._steplen(li, dx)
        if psd:
            assert a == 1e6
            continue
        assert 0 < a < 1e6
        assert _exact_pd(_exact_step(x, dx, 0.999 * a))
        assert not _exact_pd(_exact_step(x, dx, 1.001 * a))


def _recorded_solves(monkeypatch):
    """The list that every later sdpcore.solve_sdp call appends its result to."""
    solved = []
    solve = sdpcore.solve_sdp

    def recorded(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(sdpcore, "solve_sdp", recorded)
    return solved


def test_iterations_are_steplen_calls_over_four(monkeypatch):
    # the benchmark counts IPM iterations as _steplen calls / 4
    calls = [0]
    steplen = sdpcore._steplen

    def counted(*args):
        calls[0] += 1
        return steplen(*args)

    monkeypatch.setattr(sdpcore, "_steplen", counted)
    for prob, _ in analytic_instances():
        calls[0] = 0
        sol = solve_sdp(prob)
        assert sol.status == STATUS_OPTIMAL
        assert calls[0] == 4 * sol.iterations > 0
    calls[0] = 0
    sol = _objective_solve(1.0, 1.0, 1.0)
    assert sol.status == STATUS_OPTIMAL
    assert calls[0] == 4 * sol.iterations > 0
    calls[0] = 0
    sol = _objective_solve(5.0, 3.0, 3.0)
    assert sol.status == STATUS_INFEASIBLE
    assert calls[0] == 4 * sol.iterations > 0


@pytest.mark.parametrize("point, most", [((5.0, 3.0, 3.0), 12),
                                         ((4.2658, 30.0, 30.0), 14)])
def test_refusal_ends_on_a_projected_ray(point, most):
    # the iterate projected onto {X : A_i . X = 0} is a ray early in the run,
    # at iterations 11 and 14
    sol = _objective_solve(*point)
    assert sol.status == STATUS_INFEASIBLE
    assert sol.iterations <= most


def test_refusal_falls_back_to_the_approximate_ray():
    # the 1e-4 test of the iterate itself ended this run while the engine
    # kept it as a fallback; the projected ray, now the only test, ends it
    # as early, at the first iterate whose projection passes the screen
    assert _objective_solve(5.0, 10.0, 1.0).status == STATUS_INFEASIBLE


def test_norm_matches_numpy_bitwise():
    rng = np.random.default_rng(19)
    for shape in ((1,), (7,), (3, 3), (8, 8), (5, 2)):
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8)
        for v in (a, a.T, a[::-1]):
            assert sdpcore._norm(v) == np.linalg.norm(v)


def _loop_outcomes(monkeypatch):
    """Every solve of the analytic instances, an objective program, a
    refused one and a linear certificate call.

    Undoes every monkeypatch once the solves are made.
    """
    solved = _recorded_solves(monkeypatch)
    for prob, _ in analytic_instances():
        sdpcore.solve_sdp(prob)
    sdpcore.solve_sdp(objective_program(1.0, 1.0, 1.0)[0])
    refused = objective_program(5.0, 3.0, 3.0)[0]
    assert sdpcore.solve_sdp(refused).status == STATUS_INFEASIBLE
    strong_g = certify.ProblemClasses(RegularityClass(0.0, math.inf),
                                      RegularityClass(1.0, 10.0),
                                      RegularityClass(0.0, 20.0))
    certify.certify_linear_rate(0.2, strong_g)
    monkeypatch.undo()
    return [(s.status, s.y.tobytes(), s.iterations, s.slack, s.pres, s.dres,
             s.gap) for s in solved]


def test_loop_calls_no_numpy_linalg(monkeypatch):
    # the IPM loop factors, inverts and tests definiteness with LAPACK from
    # toscert._lapack alone (scipy's _flapack), so numpy's LAPACK build
    # cannot enter it
    expected = _loop_outcomes(monkeypatch)

    def banned(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("cholesky", "inv", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, banned)
    assert _loop_outcomes(monkeypatch) == expected
    assert len(expected) == 6


def _helper_matrices(rng):
    """(matrix, kind) pairs, n = 1-10, PD ones with condition up to 1e12."""
    out = []
    for n in range(1, 11):
        for cond in (1.0, 1e4, 1e8, 1e12):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            w = np.geomspace(1.0, 1.0 / cond, n) * 10.0 ** rng.uniform(-3, 3)
            out.append(((q * w) @ q.T, "pd"))
            # a zero row and column: the pivot there is exactly zero
            psd = (q * w) @ q.T
            k = rng.integers(n)
            psd[k, :] = psd[:, k] = 0.0
            out.append((psd, "singular"))
            w[rng.integers(n)] = -w[0]
            out.append(((q * w) @ q.T, "indefinite"))
        nan = np.eye(n)
        nan[rng.integers(n), rng.integers(n)] = math.nan
        out.append((nan, "nan"))
    return [(0.5 * (m + m.T), kind) for m, kind in out]


def _lower_factor(m):
    """dpotrf's lower factor of m, or None where dpotrf fails."""
    f, info = dpotrf(m, lower=1, clean=1)
    return None if info else f


def test_chol_is_dpotrf_and_raises_where_it_fails(monkeypatch):
    # on a PD matrix the factor is dpotrf's, byte for byte; on a singular or
    # indefinite one _chol raises, with no eigenvalue taken either way
    def banned(m):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(sdpcore, "eigvalsh", banned)
    kinds = set()
    for m, kind in _helper_matrices(np.random.default_rng(13)):
        if kind == "nan":
            continue
        f = _lower_factor(m)
        assert (f is not None) == (kind == "pd")
        if f is None:
            with pytest.raises(np.linalg.LinAlgError):
                sdpcore._chol(m)
        else:
            assert sdpcore._chol(m).tobytes() == f.tobytes()
        kinds.add(kind)
    assert kinds == {"pd", "singular", "indefinite"}


def test_dtrtri_inverts_the_factor():
    for m, kind in _helper_matrices(np.random.default_rng(17)):
        if kind != "pd":
            continue
        n = len(m)
        li = sdpcore.dtrtri(sdpcore._chol(m), lower=1)[0]
        assert not np.triu(li, 1).any()
        w = np.linalg.eigvalsh(m)
        tol = 10 * n * np.finfo(float).eps * w[-1] / w[0]
        assert np.abs(li @ m @ li.T - np.eye(n)).max() <= tol


def test_step_keeps_the_factor_that_accepted_it():
    kinds = set()
    for target, kind in _helper_matrices(np.random.default_rng(23)):
        if kind == "nan":
            continue
        n = len(target)
        m = np.eye(n)
        dm = target - m
        a, s, f = sdpcore._step(m, dm, 1.0)
        # a is the first of 1, 1/2, 1/4, ... that dpotrf accepts
        assert a > 0 and math.log2(a) == round(math.log2(a))
        assert s.tobytes() == (m + a * dm).tobytes()
        assert f.tobytes() == _lower_factor(s).tobytes()
        if a < 1.0:
            assert _lower_factor(m + 2 * a * dm) is None
        if kind == "pd":
            assert a == 1.0
        kinds.add(kind)
    assert kinds == {"pd", "singular", "indefinite"}


def test_step_refuses_nan_and_steps_nowhere_without_a_pd_point():
    m = np.diag([1.0, 1e-30])
    a, s, f = sdpcore._step(m, -np.eye(2), 1.0)
    assert (a, s, f) == (0.0, m, None)
    # dpotrf accepts these NaN steps; the finiteness check refuses them
    nan_off = np.array([[0.0, math.nan], [math.nan, 0.0]])
    for dm, a in ((nan_off, 1.0), (nan_off, 1e-13), (np.eye(2), math.nan)):
        with pytest.raises(np.linalg.LinAlgError):
            sdpcore._step(np.eye(2), dm, a)


@pytest.mark.parametrize("bad_call", [2, 3])
def test_a_nan_in_the_loop_ends_numerical_failure(monkeypatch, bad_call):
    # the pre-loop projection makes the first dpotrs call, so the second and
    # third are the predictor's and the corrector's Newton solves
    calls = [0]

    def nan_once(*args, **kwargs):
        calls[0] += 1
        out = dpotrs(*args, **kwargs)
        if calls[0] == bad_call:
            return (np.full_like(out[0], math.nan),) + out[1:]
        return out

    monkeypatch.setattr(sdpcore, "dpotrs", nan_once)
    for prob, _ in analytic_instances():
        calls[0] = 0
        assert solve_sdp(prob).status == STATUS_NUMERICAL_FAILURE


def test_loop_takes_eigenvalues_only_for_steps_and_rays(monkeypatch):
    # the loop's factors come from dpotrf, so outside _steplen an eigenvalue
    # is taken only for a projected ray (in _ipm)
    callers = Counter()

    def recorded(m):
        callers[sys._getframe(1).f_code.co_name] += 1
        return eigvalsh(m)

    monkeypatch.setattr(sdpcore, "eigvalsh", recorded)
    solved = _recorded_solves(monkeypatch)
    for prob, _ in analytic_instances():
        sdpcore.solve_sdp(prob)
    sdpcore.solve_sdp(objective_program(1.0, 1.0, 1.0)[0])
    iters = sum(sol.iterations for sol in solved)
    assert callers == {"_steplen": 4 * iters}
    refused = objective_program(5.0, 3.0, 3.0)[0]
    assert sdpcore.solve_sdp(refused).status == STATUS_INFEASIBLE
    assert callers["_steplen"] == 4 * sum(sol.iterations for sol in solved)
    assert set(callers) == {"_steplen", "_ipm"}


@pytest.mark.parametrize("alpha, lf, lh, iters", [
    ("0x1.a42cc1e6ab476p+0", 10.0, 3.0, 20),    # seeded_grid(..., 1)[22]
    ("0x1.d327f4fdc82ebp-2", 30.0, 10.0, 23)])  # seeded_grid(..., 2)[14]
def test_nearly_feasible_refusals_end_infeasible(alpha, lf, lh, iters):
    # two objective-surface points whose runs ended numericalFailure while
    # the loop refactored each step; they meet the scaled tolerances but
    # have audit slack near 1e-6
    sol = _objective_solve(float.fromhex(alpha), lf, lh)
    assert sol.status == STATUS_INFEASIBLE
    assert sol.iterations == iters
