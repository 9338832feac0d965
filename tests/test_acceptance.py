"""End-to-end acceptance checks, one reported line per criterion.

Each test records a single PASS/FAIL line (echoed by the terminal-summary
hook in conftest.py, so it survives output capture) and then asserts.
"""

import math
import sys
import time

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import ortho_group

from toscert import certify, lqrdemo, sdpcore, tos
from toscert.certify import (ProblemClasses, certify_objective_rate,
                             certify_linear_rate, dual_linear_rate,
                             linear_rate_value, symbolic_sublinear)
from toscert.lmikit import RegularityClass, kron_identity, max_eig


REPORT_LINES = []


def _report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d}: {verdict} ({detail})"
    REPORT_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_symbolic_certificate_validity():
    t0 = time.perf_counter()
    worst = -math.inf
    for lam in np.arange(0.1, 2.0, 0.2):
        for lh in (0.1, 1.0, 10.0):
            worst = max(worst, symbolic_sublinear(float(lam), lh).margin)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    _report(1, ok, f"max margin {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_closed_form_constants():
    worst = 0.0
    for lh in (0.1, 1.0, 10.0):
        cert = symbolic_sublinear(0.5, lh)
        c1 = 32.0 * lh ** 2 / 27.0
        worst = max(worst, abs(1.0 / cert.theta - c1) / c1)
        worst = max(worst, abs(cert.alpha ** 2 / cert.theta - 8.0 / 3.0) /
                    (8.0 / 3.0))
    ok = worst <= 1e-12
    _report(2, ok, f"worst relative error {worst:.2e}")


def test_criterion_03_analytic_sdp_instances():
    worst = 0.0
    for prob, target in sdpcore.analytic_instances():
        sol = sdpcore.solve_sdp(prob, gap_tol=1e-11)
        worst = max(worst, abs(abs(sol.objective) - target))
        if sol.status != sdpcore.STATUS_OPTIMAL:
            worst = math.inf
    ok = worst <= 1e-8
    _report(3, ok, f"worst objective error {worst:.2e}")


def test_criterion_04_kronecker_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    agree = True
    for _ in range(500):
        n = int(rng.integers(4, 6))
        base = rng.standard_normal((n, n))
        base = 0.5 * (base + base.T)
        lam_small = max_eig(base)          # on the base
        for d in (1, 2, 3):
            big = kron_identity(base, d)
            lam_big = float(np.linalg.eigvalsh(big).max())  # LAPACK, expanded
            worst = max(worst, abs(lam_big - lam_small))
            agree = agree and ((lam_small <= 0) == (lam_big <= 0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and agree and elapsed < 5.0
    _report(4, ok, f"worst eig gap {worst:.2e}, NSD agree {agree}, "
            f"{elapsed:.1f}s")


_PARAMETER_SETS = {
    # (f, g, h) regularity classes and a validated stepsize range
    "a": (((1, 100 / 7), (4, 50), (0, 1 / 9)), (1e-2, 10.0)),
    "b": (((1, 7), (0.03, 2), (0.01, 0.05)), (2e-2, 100.0)),
    "c": (((1, math.inf), (0, 5), (0, 1 / 9)), (2e-2, 10.0)),
    "d": (((0, math.inf), (1, 10), (0, 20)), (1e-3, 10.0)),
    "e": (((20, 20), (0, math.inf), (0, 70)), (1e-3, 1.0)),
    "f": (((0, 50), (0, math.inf), (2, 30)), (4e-3, 1.0)),
}


def test_criterion_05_primal_dual_tightness():
    t0 = time.perf_counter()
    worst = 0.0
    all_have_contraction = True
    for name, (raw, (lo, hi)) in _PARAMETER_SETS.items():
        classes = ProblemClasses(*(RegularityClass(m, L) for m, L in raw))
        n_contract = 0
        for alpha in np.geomspace(lo, hi, 25):
            _, lam_free, _, _ = linear_rate_value(alpha, classes)
            lam = min(max(lam_free, certify.LAM_MIN), certify.LAM_MAX)
            rho2, _, _, _ = linear_rate_value(alpha, classes, lam=lam)
            dual = dual_linear_rate(alpha, lam, classes)
            worst = max(worst, abs(rho2 - dual))
            if rho2 < 1.0 - 1e-6:
                n_contract += 1
        if n_contract == 0:
            all_have_contraction = False
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and all_have_contraction and elapsed < 60.0
    _report(5, ok, f"worst primal-dual gap {worst:.2e}, contraction on all "
            f"sets {all_have_contraction}, {elapsed:.1f}s")


def test_criterion_06_sublinear_bound_on_splitting_run():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 6))
    b = 0.3 * rng.standard_normal(3)
    e0 = rng.standard_normal((6, 6))
    e = e0.T @ e0
    lh = float(np.linalg.norm(e, 2))
    cert = symbolic_sublinear(0.5, lh)
    oracle = tos.OperatorOracle(prox_f=tos.BoxProx(1.0),
                                prox_g=tos.AffineSubspaceProx(a, b),
                                grad_h=lambda x: e @ x)
    config = tos.TosConfig(alpha=cert.alpha, lam=0.5, max_iter=10 ** 4)
    zstar = tos.find_fixed_point(oracle, np.zeros(6), config, tol=1e-14,
                                 max_iter=10 ** 6)
    trace = tos.run(oracle, np.zeros(6), config)
    d0 = float((zstar ** 2).sum())
    gap2 = np.asarray(trace.gap_norm2())
    running = np.minimum.accumulate(gap2)
    ks = np.arange(1, len(gap2) + 1)
    worst = float(np.max(running * ks)) / (8.0 * d0 / 3.0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 + 1e-6 and elapsed < 30.0
    _report(6, ok, f"worst bound ratio {worst:.3f}, {elapsed:.1f}s")


def test_criterion_07_objective_bound_with_sdp_rate():
    rng = np.random.default_rng(21)
    m1 = rng.standard_normal((5, 5))
    pf = m1.T @ m1
    pf /= np.linalg.norm(pf, 2)
    qf = 0.5 * rng.standard_normal(5)
    m2 = rng.standard_normal((5, 5))
    ph = m2.T @ m2
    ph /= np.linalg.norm(ph, 2)

    def objective(x):
        return float(0.5 * x @ pf @ x + qf @ x + 0.3 * np.abs(x).sum()
                     + 0.5 * x @ ph @ x)

    oracle = tos.OperatorOracle(prox_f=tos.QuadraticProx(pf, qf),
                                prox_g=tos.L1Prox(0.3),
                                grad_h=lambda x: ph @ x,
                                objective=objective)
    cert = certify_objective_rate(1.0, 1.0, 1.0)
    config = tos.TosConfig(alpha=1.0, lam=cert.lam, max_iter=10 ** 4)
    zstar = tos.find_fixed_point(oracle, np.zeros(5), config, tol=1e-14,
                                 max_iter=10 ** 6)
    fstar = objective(oracle.prox_g(1.0, zstar))
    trace = tos.run(oracle, np.zeros(5), config)
    d0 = float((zstar ** 2).sum())
    fgap = np.asarray(trace.objective) - fstar
    running = np.minimum.accumulate(fgap)
    ks = np.arange(1, len(fgap) + 1)
    worst = float(np.max(running * cert.theta * ks)) / d0
    ok = worst <= 1.0 + 1e-6
    _report(7, ok, f"theta* {cert.theta:.6f}, worst bound ratio {worst:.3f}")


def test_criterion_08_linear_bound_on_quadratic_triple():
    d = 6
    classes = ProblemClasses(RegularityClass(0, math.inf),
                             RegularityClass(1, 10),
                             RegularityClass(0, 20))
    cert = certify_linear_rate(0.2, classes)
    rng = np.random.default_rng(31)
    u = ortho_group.rvs(d, random_state=np.random.RandomState(31))
    pg = u @ np.diag(np.linspace(1, 10, d)) @ u.T
    qg = rng.standard_normal(d)
    v = ortho_group.rvs(d, random_state=np.random.RandomState(32))
    ph = v @ np.diag(np.linspace(0, 20, d)) @ v.T
    oracle = tos.OperatorOracle(prox_f=tos.ZeroProx(),
                                prox_g=tos.QuadraticProx(pg, qg),
                                grad_h=lambda x: ph @ x)
    config = tos.TosConfig(alpha=0.2, lam=cert.lam, max_iter=500)
    zstar = tos.find_fixed_point(oracle, np.zeros(d), config, tol=1e-14,
                                 max_iter=10 ** 6)
    trace = tos.run(oracle, 5.0 * np.ones(d), config)
    zs = np.asarray(trace.z)
    dist = np.sqrt(((zs - zstar) ** 2).sum(axis=1))
    rho = math.sqrt(cert.rho2)
    ks = np.arange(len(dist))
    bound = dist[0] * rho ** ks * (1.0 + 1e-6)
    excess = float(np.max(dist / np.maximum(bound, 1e-300)))
    ok = excess <= 1.0
    _report(8, ok, f"rho {rho:.4f}, worst dist/bound {excess:.6f} over "
            f"{len(dist) - 1} steps")


def test_criterion_09_rate_surface_monotone():
    grid = np.geomspace(0.05, 5.0, 30)
    levels = [1.0, 3.0, 10.0, 30.0]
    surface = {}
    for lf in levels:
        for lh in levels:
            best = -math.inf
            for alpha in grid:
                try:
                    best = max(best,
                               certify_objective_rate(alpha, lf, lh).theta)
                except certify.CertificationError:
                    pass
            surface[(lf, lh)] = best
    ok = True
    for i, lf in enumerate(levels):
        for j, lh in enumerate(levels):
            if i + 1 < len(levels):
                ok = ok and surface[(levels[i + 1], lh)] <= \
                    surface[(lf, lh)] + 1e-7
            if j + 1 < len(levels):
                ok = ok and surface[(lf, levels[j + 1])] <= \
                    surface[(lf, lh)] + 1e-7
    _report(9, ok, "theta* nonincreasing in both smoothness constants"
            if ok else "monotonicity violated")


def test_criterion_10_relaxation_sweep_reproduction():
    t0 = time.perf_counter()
    lambdas = [0.25, 0.5, 1.0, 1.5]
    budget = 400
    inst = lqrdemo.build_instance(42, 20, 5, 20)
    oracle, layout, lh = lqrdemo.assemble_oracles(inst)
    results = lqrdemo.run_sweep(inst, lambdas, budget)
    bound_ok = True
    final = {}
    for rec in results:
        lam, alpha = rec["lambda"], rec["alpha"]
        config = tos.TosConfig(alpha=alpha, lam=lam, max_iter=budget)
        zstar = tos.find_fixed_point(oracle, np.zeros(layout.dim), config,
                                     tol=1e-12, max_iter=10 ** 5)
        d0 = float((zstar ** 2).sum())
        theta = (2.0 - lam) ** 3 * lam / (2.0 * lh ** 2)
        r2 = np.asarray(rec["trace"].residual_norm2)
        running = np.minimum.accumulate(r2)
        ks = np.arange(1, len(r2) + 1)
        bound_ok = bound_ok and float(np.max(running * ks)) <= \
            d0 / theta * (1.0 + 1e-6)
        final[lam] = rec["final_min_residual2"]
    winner = min(final, key=final.get)
    elapsed = time.perf_counter() - t0
    ok = bound_ok and winner == 0.5 and elapsed < 120.0
    _report(10, ok, f"bound holds {bound_ok}, fastest lambda {winner} "
            f"(0.5 required), {elapsed:.1f}s")


def test_criterion_11_small_instance_optimality():
    n, m, horizon = 4, 2, 5
    inst = lqrdemo.build_instance(7, n, m, horizon)
    oracle, layout, lh = lqrdemo.assemble_oracles(inst)
    # condensed reference: states eliminated through the dynamics, the
    # input trajectory solved as a bound-constrained quadratic program
    dim_x = (horizon + 1) * n
    fmat = np.zeros((dim_x, horizon * m))
    g0 = np.zeros(dim_x)
    g0[:n] = inst.x_init
    powers = [np.linalg.matrix_power(inst.a, k) for k in range(horizon + 1)]
    for t in range(1, horizon + 1):
        g0[t * n:(t + 1) * n] = powers[t] @ inst.x_init
        for j in range(t):
            fmat[t * n:(t + 1) * n, j * m:(j + 1) * m] = \
                powers[t - 1 - j] @ inst.b
    qbar = np.kron(np.eye(horizon + 1), inst.q)
    rbar = np.kron(np.eye(horizon), inst.r)

    def qp_obj(u):
        x = fmat @ u + g0
        return 0.5 * float(x @ qbar @ x + u @ rbar @ u)

    def qp_grad(u):
        x = fmat @ u + g0
        return fmat.T @ (qbar @ x) + rbar @ u

    ref = minimize(qp_obj, np.zeros(horizon * m), jac=qp_grad,
                   method="L-BFGS-B", bounds=[(-1.0, 1.0)] * (horizon * m),
                   options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 5000})
    lam = 0.5
    config = tos.TosConfig(alpha=(2.0 - lam) / lh, lam=lam, max_iter=2 * 10 ** 4)
    trace = tos.run(oracle, np.zeros(layout.dim), config)
    split_obj = trace.objective[-1]
    rel = abs(split_obj - ref.fun) / abs(ref.fun)
    ok = ref.success and rel <= 1e-5
    _report(11, ok, f"relative objective error {rel:.2e}")
