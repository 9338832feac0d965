"""Tests for the dense LMI interior-point engine."""

import math

import numpy as np
import pytest

from toscert import sdpcore
from toscert.lmikit import RegularityClass, build_qc_triplet, build_w0
from toscert.sdpcore import (LinearSdp, STATUS_INFEASIBLE, STATUS_OPTIMAL,
                             analytic_instances, feasibility_margin, solve_sdp)


def test_analytic_instances():
    for prob, target in analytic_instances():
        sol = solve_sdp(prob, gap_tol=1e-11)
        assert sol.status == STATUS_OPTIMAL
        assert abs(abs(sol.objective) - target) < 1e-8
        assert sol.slack <= 1e-8


def test_linear_sdp_validation():
    with pytest.raises(ValueError):
        LinearSdp(np.array([1.0]), np.eye(2), (), ())
    with pytest.raises(ValueError):
        LinearSdp(np.array([1.0]), np.eye(2), (np.eye(3),), (False,))
    with pytest.raises(ValueError):
        LinearSdp(np.array([math.nan]), np.eye(2), (np.eye(2),), (False,))


def test_zero_variable_program():
    prob = LinearSdp(np.zeros(0), -np.eye(2), (), ())
    sol = solve_sdp(prob)
    assert sol.status == STATUS_OPTIMAL
    bad = LinearSdp(np.zeros(0), np.eye(2), (), ())
    assert solve_sdp(bad).status == STATUS_INFEASIBLE


def test_feasibility_margin_examples():
    t, _ = feasibility_margin(np.array([[-1.0]]), [], [])
    assert abs(t - 1.0) < 1e-7
    t, _ = feasibility_margin(np.array([[1.0]]), [], [])
    assert abs(t + 1.0) < 1e-7


def test_infeasible_detection():
    # y >= 0 cannot make diag(1, -y) NSD in its first entry
    prob = LinearSdp(np.array([1.0]),
                     np.diag([1.0, 0.0]),
                     (np.diag([0.0, -1.0]),), (True,))
    sol = solve_sdp(prob)
    assert sol.status == STATUS_INFEASIBLE


def test_certificate_margin_tracks_theta():
    # below the closed-form optimal rate the margin sits at zero (there are
    # always neutral directions); above it the margin goes clearly negative
    lam, Lh = 0.5, 1.0
    alpha = (2.0 - lam) / Lh
    cls = RegularityClass(0.0, math.inf)
    h = RegularityClass(0.0, Lh)
    qs = [q for q in build_qc_triplet(alpha, cls, cls, h)]
    theta_star = (2.0 - lam) ** 3 * lam / (2.0 * Lh ** 2)
    t_ok, y = feasibility_margin(build_w0(lam, 0.9 * theta_star, alpha),
                                 qs, [True] * 3)
    assert abs(t_ok) <= 1e-7
    assert all(v >= -1e-9 for v in y)
    t_bad, _ = feasibility_margin(build_w0(lam, 1.5 * theta_star, alpha),
                                  qs, [True] * 3)
    assert t_bad < -0.01


def test_scaling_invariance():
    # multiplying all data by a large constant must not change the argmin
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    f0 = -(a @ a.T) - np.eye(3)
    f1 = np.diag([1.0, 0.5, 0.25])
    prob1 = LinearSdp(np.array([-1.0]), f0, (f1,), (True,))
    prob2 = LinearSdp(np.array([-1e6]), 1e6 * f0, (1e6 * f1,), (True,))
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
        prob = LinearSdp(np.array([-1.0]), f0, (f1,), (False,))
        sol = solve_sdp(prob)
        if sol.status == STATUS_OPTIMAL:
            assert sol.slack <= 1e-8
            assert sol.gap <= 1e-6 or sol.iterations <= 200


def test_monotone_in_added_slack_variable():
    # a flagged variable on a zero matrix must stay near zero and not
    # disturb the optimum
    f0 = np.array([[1.0]])
    f1 = np.array([[-1.0]])
    base = LinearSdp(np.array([1.0]), f0, (f1,), (False,))
    padded = LinearSdp(np.array([1.0, 0.0]), f0, (f1, np.zeros((1, 1))),
                       (False, True))
    v1 = solve_sdp(base).objective
    v2 = solve_sdp(padded).objective
    assert abs(v1 - v2) < 1e-7


def test_tolerance_validation():
    prob = analytic_instances()[0][0]
    with pytest.raises(ValueError):
        solve_sdp(prob, feas_tol=0.0)
    with pytest.raises(ValueError):
        solve_sdp(prob, gap_tol=1.0)


def test_iterations_counts_the_iterations_run():
    inst, _ = analytic_instances()[2]
    sol = solve_sdp(inst, max_iter=3)
    assert sol.status != STATUS_OPTIMAL
    assert sol.iterations == 3
    assert solve_sdp(inst).iterations > 3
