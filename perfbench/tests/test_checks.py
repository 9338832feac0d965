"""Each output check passes on the program's output and fails on a corrupted one."""

import dataclasses
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from toscert import certify, lqrdemo  # noqa: E402

from perfbench import checks, formulas, workloads  # noqa: E402

UNIT = (1.0, 1.0, 1.0)


def test_reference_reproduces_unit_point():
    theta, _ = formulas.ObjectiveReference(*UNIT).theta_max()
    assert checks.objective_at_unit_point(theta) == []
    assert abs(theta - checks.THETA_111) < 1e-9


def test_objective_checks_catch_raised_theta():
    cert = certify.certify_objective_rate(*UNIT)
    assert checks.objective_certificate(UNIT, cert) == []
    assert checks.objective_against_reference(UNIT, cert.theta) == []
    bad = dataclasses.replace(cert, theta=cert.theta + 1e-4)
    assert checks.objective_certificate(UNIT, bad)
    assert checks.objective_against_reference(UNIT, bad.theta)
    assert checks.objective_at_unit_point(bad.theta)


def test_refusal_check_catches_a_wrong_refusal():
    assert checks.objective_against_reference(UNIT, None)
    # L_f = L_h = 3, alpha = 4.2658, where the producer ends numericalFailure:
    # no theta >= 0 exists there
    assert checks.objective_against_reference((4.2658, 3.0, 3.0), None) == []


def test_monotonicity_check():
    surface = {(1.0, 1.0): 0.5, (3.0, 1.0): 0.4, (1.0, 3.0): 0.3,
               (3.0, 3.0): 0.2}
    assert checks.objective_monotone(surface) == []
    surface[(3.0, 3.0)] = 0.35
    assert checks.objective_monotone(surface)


@pytest.mark.parametrize("name, alpha", [("d", 0.1), ("e", 0.01)])
def test_linear_checks_catch_moved_rho2(name, alpha):
    wl = workloads.LinearDuality(0)
    rec = wl._point(name, alpha)
    assert not rec["failed"]
    spec = wl.sets[name]
    assert checks.linear_certificate(alpha, spec, rec["pinned"]) == []
    assert checks.primal_dual(alpha, rec["rho2"], rec["dual"]) == []
    assert checks.primal_dual(alpha, rec["rho2"] + 1e-5, rec["dual"])
    moved = dataclasses.replace(rec["pinned"], rho2=rec["pinned"].rho2 - 1e-5)
    assert checks.linear_certificate(alpha, spec, moved)


def test_infinite_multiplier_is_checked_on_its_subspace():
    # set e has m == L for f, so its multiplier is reported as inf
    wl = workloads.LinearDuality(0)
    cert = wl._point("e", 0.01)["pinned"]
    assert math.isinf(cert.sigma[2])
    finite = dataclasses.replace(cert, sigma=cert.sigma[:2] + (0.0,))
    assert checks.linear_certificate(0.01, wl.sets["e"], finite)


def test_contraction_check():
    assert checks.contracts("x", [1.0, 0.9]) == []
    assert checks.contracts("x", [1.0, 1.0 - 1e-7])


def test_lqr_checks_catch_objective_error(tmp_path):
    inst = lqrdemo.build_instance(7, 4, 2, 5)
    qp = checks.CondensedLqr(inst.a, inst.b, inst.q, inst.r, inst.horizon,
                             inst.x_init)
    fstar = qp.solve()[0]
    rec = lqrdemo.run_sweep(inst, [1.0], 3000, out_dir=str(tmp_path))[0]
    assert checks.lqr_run(qp, fstar, rec, str(tmp_path)) == []
    trace = rec["trace"]
    trace.objective[-1] = fstar * (1.0 + 1e-6)
    errs = checks.lqr_run(qp, fstar, rec, str(tmp_path))
    assert any("final f(x_B)" in e for e in errs)
    assert any("CSV row" in e for e in errs)


def test_lqr_reference_with_active_box():
    # seed 18 at the demo's size saturates one input of 100
    inst = lqrdemo.build_instance(18, *workloads.LQR_SIZE)
    qp = checks.CondensedLqr(inst.a, inst.b, inst.q, inst.r, inst.horizon,
                             inst.x_init)
    value, u = qp.solve()
    assert np.abs(u).max() == pytest.approx(1.0)
    assert value > qp.value(np.linalg.solve(qp.h, -qp.c))
