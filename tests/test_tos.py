"""Tests for the splitting iteration and the prox library."""

import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toscert import lqrdemo, tos
from toscert.tos import (AffineSubspaceProx, BoxProx, IterateTrace, L1Prox,
                         OperatorOracle, QuadraticProx, TosConfig, ZeroProx,
                         find_fixed_point, grad_eval, residual, run,
                         tos_step)


def _quad_oracle():
    # f = g = 0, h = x^2/2 in one dimension
    return OperatorOracle(prox_f=ZeroProx(), prox_g=ZeroProx(),
                          grad_h=lambda x: x,
                          objective=lambda x: 0.5 * float(x @ x))


def test_step_scalar_quadratic():
    z = np.array([1.0])
    config = TosConfig(alpha=1.0, lam=0.5)
    z_next, (x_b, y, x_a) = tos_step(z, _quad_oracle(), config)
    assert x_b[0] == 1.0
    assert y[0] == 0.0   # 2*1 - 1 - 1
    assert x_a[0] == 0.0
    assert z_next[0] == 0.5


def test_step_box_projection():
    oracle = OperatorOracle(prox_f=ZeroProx(), prox_g=BoxProx(1.0),
                            grad_h=lambda x: np.zeros_like(x))
    config = TosConfig(alpha=0.7, lam=1.0)
    z_next, (x_b, y, x_a) = tos_step(np.array([3.0]), oracle, config)
    assert x_b[0] == 1.0
    assert y[0] == -1.0  # 2*1 - 3
    assert z_next[0] == 1.0


def test_run_contracts_to_fixed_point():
    config = TosConfig(alpha=1.0, lam=0.5, max_iter=200)
    trace = run(_quad_oracle(), np.array([4.0]), config)
    assert abs(trace.z[-1][0]) < 1e-12
    assert trace.residual_norm2[0] > trace.residual_norm2[-1]


def test_run_single_iteration_records_two_states():
    config = TosConfig(alpha=1.0, lam=0.5, max_iter=1)
    trace = run(_quad_oracle(), np.array([1.0]), config)
    assert len(trace.z) == 2
    assert len(trace.residual_norm2) == 1
    assert len(trace.objective) == 1


def test_run_stops_at_residual_tol():
    config = TosConfig(alpha=1.0, lam=0.5, max_iter=1000, residual_tol=1e-6)
    trace = run(_quad_oracle(), np.array([4.0]), config)
    assert len(trace.residual_norm2) < 1000
    assert math.sqrt(trace.residual_norm2[-1]) <= 1e-6


def test_residual_equals_summed_gradients_smooth_triple():
    # all three operators smooth quadratics: the optimality residual must
    # reproduce grad f(x_A) + grad g(x_B) + grad h(x_B)
    rng = np.random.default_rng(2)
    d = 4
    pf = np.diag(rng.uniform(0.5, 2.0, d))
    pg = np.diag(rng.uniform(0.5, 2.0, d))
    e = np.diag(rng.uniform(0.5, 2.0, d))
    oracle = OperatorOracle(prox_f=QuadraticProx(pf), prox_g=QuadraticProx(pg),
                            grad_h=lambda x: e @ x)
    config = TosConfig(alpha=0.3, lam=0.8)
    z = rng.standard_normal(d)
    for _ in range(5):
        z_next, (x_b, y, x_a) = tos_step(z, oracle, config)
        r = residual(x_b, x_a, config.alpha)
        summed = pf @ x_a + pg @ x_b + e @ x_b
        assert np.allclose(r, summed, atol=1e-9)
        z = z_next


def test_find_fixed_point_scalar():
    config = TosConfig(alpha=1.0, lam=0.5, max_iter=100)
    z = find_fixed_point(_quad_oracle(), np.array([7.0]), config)
    assert abs(z[0]) < 1e-11


def test_config_validation():
    for alpha, lam, max_iter, residual_tol in [
            (0.0, 0.5, 1000, 0.0), (1.0, -1.0, 1000, 0.0), (1.0, 0.5, 0, 0.0),
            (math.inf, 0.5, 1000, 0.0), (math.nan, 0.5, 1000, 0.0),
            (1.0, math.inf, 1000, 0.0), (1.0, 0.5, math.nan, 0.0),
            (1.0, 0.5, 2.5, 0.0), (1.0, 0.5, 3.0, 0.0),
            (1.0, 0.5, 1000, math.nan), (1.0, 0.5, 1000, -1e-6)]:
        with pytest.raises(ValueError):
            TosConfig(alpha=alpha, lam=lam, max_iter=max_iter,
                      residual_tol=residual_tol)


def test_run_rejects_nonfinite_start():
    with pytest.raises(ValueError):
        run(_quad_oracle(), np.array([math.nan]), TosConfig(alpha=1.0, lam=0.5))


def test_box_prox_values():
    box = BoxProx(2.0)
    out = box(0.5, np.array([-3.0, 1.5, 4.0]))
    assert np.allclose(out, [-2.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        BoxProx(-1.0)


def test_l1_prox_soft_threshold():
    p = L1Prox(2.0)
    out = p(0.5, np.array([3.0, -0.5, -4.0]))
    assert np.allclose(out, [2.0, 0.0, -3.0])


@given(st.floats(0.05, 2.0), st.floats(0.0, 3.0),
       st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6))
def test_l1_prox_variational_inequality(alpha, weight, xs):
    # p = prox(x) minimizes weight*|p| + ||p - x||^2/(2 alpha), so each
    # coordinate satisfies the subgradient condition
    x = np.array(xs)
    p = L1Prox(weight)(alpha, x)
    g = (x - p) / alpha
    for pi, gi in zip(p, g):
        if pi > 0:
            assert abs(gi - weight) < 1e-9
        elif pi < 0:
            assert abs(gi + weight) < 1e-9
        else:
            assert abs(gi) <= weight + 1e-9


def test_affine_subspace_projection():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([2.0, 1.0])
    proj = AffineSubspaceProx(a, b)
    x = np.array([5.0, -1.0, 2.0])
    p = proj(1.0, x)
    assert np.allclose(a @ p, b, atol=1e-10)
    # projection residual orthogonal to the subspace tangent
    tangent = np.array([1.0, -1.0, 1.0])
    assert abs((x - p) @ tangent) < 1e-10
    # idempotent
    assert np.allclose(proj(1.0, p), p, atol=1e-12)


def test_affine_subspace_rejects_degenerate_rows():
    with pytest.raises(ValueError, match="degenerate constraint rows"):
        AffineSubspaceProx(np.array([[1.0, 0.0], [1.0, 0.0]]),
                           np.array([0.0, 1.0]))


def test_quadratic_prox_matches_formula():
    p = np.array([[2.0, 0.0], [0.0, 4.0]])
    q = np.array([1.0, -1.0])
    prox = QuadraticProx(p, q)
    x = np.array([3.0, 3.0])
    alpha = 0.5
    expect = np.linalg.solve(np.eye(2) + alpha * p, x - alpha * q)
    assert np.allclose(prox(alpha, x), expect, atol=1e-12)


@given(st.floats(0.05, 2.0),
       st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
       st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2))
@settings(max_examples=60)
def test_prox_firm_nonexpansiveness(alpha, xs, ys):
    p = QuadraticProx(np.array([[1.5, 0.3], [0.3, 0.9]]))
    x, y = np.array(xs), np.array(ys)
    px, py = p(alpha, x), p(alpha, y)
    lhs = float((px - py) @ (px - py))
    rhs = float((px - py) @ (x - y))
    assert lhs <= rhs + 1e-9


def test_grad_eval_matches_finite_differences():
    rng = np.random.default_rng(9)
    e = rng.standard_normal((3, 3))
    e = 0.5 * (e + e.T)
    x = rng.standard_normal(3)
    g = grad_eval(e, x)
    h = 1e-6
    for i in range(3):
        dx = np.zeros(3)
        dx[i] = h
        fd = (0.5 * (x + dx) @ e @ (x + dx) - 0.5 * (x - dx) @ e @ (x - dx)) \
            / (2 * h)
        assert abs(g[i] - fd) < 1e-6
    with pytest.raises(ValueError):
        grad_eval(np.eye(2), np.zeros(3))


def test_run_deterministic():
    config = TosConfig(alpha=0.3, lam=0.8, max_iter=50)
    rng = np.random.default_rng(4)
    e = np.diag(rng.uniform(0.5, 2.0, 3))
    oracle = OperatorOracle(prox_f=L1Prox(0.1), prox_g=BoxProx(2.0),
                            grad_h=lambda x: e @ x)
    z0 = rng.standard_normal(3)
    t1 = run(oracle, z0, config)
    t2 = run(oracle, z0, config)
    assert np.array_equal(np.asarray(t1.z), np.asarray(t2.z))
    assert t1.residual_norm2 == t2.residual_norm2


def _recorded_z(oracle, z0, config):
    """The iterates as a recording loop that stores every z keeps them: the
    reference for the z a trace forms from z0, x_B and x_A."""
    z = np.asarray(z0, dtype=float).copy()
    zs = []
    for _ in range(config.max_iter):
        z_next, (x_b, _, x_a) = tos_step(z, oracle, config)
        r = residual(x_b, x_a, config.alpha)
        rnorm2 = float(r @ r)
        zs.append(z.copy())
        z = z_next
        if math.sqrt(rnorm2) <= config.residual_tol:
            break
    zs.append(z.copy())
    return zs


def _lqr_case(lam):
    oracle, layout, l_h = lqrdemo.assemble_oracles(
        lqrdemo.build_instance(0, 20, 5, 20))
    return (oracle, np.zeros(layout.dim),
            TosConfig(alpha=(2.0 - lam) / l_h, lam=lam, max_iter=2000))


def _deterministic_case():
    rng = np.random.default_rng(4)
    e = np.diag(rng.uniform(0.5, 2.0, 3))
    oracle = OperatorOracle(prox_f=L1Prox(0.1), prox_g=BoxProx(2.0),
                            grad_h=lambda x: e @ x)
    return oracle, rng.standard_normal(3), TosConfig(alpha=0.3, lam=0.8,
                                                     max_iter=50)


@pytest.mark.parametrize("case", [
    lambda: _lqr_case(0.25), lambda: _lqr_case(1.5), _deterministic_case,
    lambda: (_quad_oracle(), np.array([4.0]),
             TosConfig(alpha=1.0, lam=0.5, max_iter=1000, residual_tol=1e-6))],
    ids=["lqr-0.25", "lqr-1.5", "deterministic", "residual-tol"])
def test_trace_forms_the_recorded_iterates_bitwise(case):
    oracle, z0, config = case()
    trace = run(oracle, z0, config)
    want = np.asarray(_recorded_z(oracle, z0, config))
    zs = trace.z
    assert len(zs) == len(trace.x_b) + 1 == len(want)
    assert zs.shape == want.shape and zs.tobytes() == want.tobytes()
    # a step stores x_B, x_A and two floats; z is not kept
    assert {f.name for f in dataclasses.fields(IterateTrace)} == {
        "alpha", "lam", "z0", "x_b", "x_a", "residual_norm2", "objective"}


def test_trace_csv_schema(tmp_path):
    config = TosConfig(alpha=1.0, lam=0.5, max_iter=5)
    trace = run(_quad_oracle(), np.array([2.0]), config)
    path = tmp_path / "trace.csv"
    trace.to_csv(path, zstar=np.zeros(1))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "residual_norm2", "min_residual_norm2_so_far",
                       "dist_to_zstar2", "objective"]
    assert len(rows) == 6
    mins = [float(r[2]) for r in rows[1:]]
    assert mins == sorted(mins, reverse=True)


def test_gap_norm2_scaling():
    trace = IterateTrace(alpha=0.5, lam=1.0, residual_norm2=[4.0, 1.0])
    assert trace.gap_norm2() == [1.0, 0.25]
