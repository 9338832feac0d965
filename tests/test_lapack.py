"""toscert takes LAPACK from scipy's `_flapack` alone, bitwise as scipy.linalg."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, cholesky_banded
from scipy.linalg import null_space as scipy_null_space

import toscert
from toscert import _lapack, certify, lqrdemo, tos
from toscert.lmikit import build_dual_data

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from perfbench.workloads import LINEAR_POINTS, LINEAR_SETS  # noqa: E402

ROUTINES = ("dpotrf", "dpotrs", "dtrtri", "dsyevd", "dpbtrf", "dpbtrs")


def _python(code):
    """Run code in a fresh interpreter that finds this toscert first."""
    src = os.path.dirname(os.path.dirname(toscert.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy_linalg_package():
    out = _python("import sys, toscert, toscert.cli, toscert.lqrdemo\n"
                  "print(sorted(m for m in sys.modules "
                  "if m.startswith('scipy')))")
    assert out.strip() == "['scipy.linalg._flapack']"


@pytest.mark.parametrize("first", ["toscert", "scipy"])
def test_routines_are_scipy_lapack_objects(first):
    imports = ["import toscert._lapack as ours",
               "import scipy.linalg.lapack as theirs"]
    if first == "scipy":
        imports.reverse()
    out = _python("\n".join(imports) + "\n"
                  f"print(all(getattr(ours, n) is getattr(theirs, n) "
                  f"for n in {ROUTINES!r}))")
    assert out.strip() == "True"


def test_null_space_is_scipy_on_every_linear_duality_face(monkeypatch):
    built = []

    def recording(a):
        built.append(np.array(a))
        return _lapack.null_space(a)

    monkeypatch.setattr(certify, "null_space", recording)
    gm = build_dual_data(1.0)[2]
    for raw, (lo, hi) in LINEAR_SETS.values():
        classes = certify.ProblemClasses(*(certify.RegularityClass(m, L)
                                           for m, L in raw))
        for alpha in np.geomspace(lo, hi, LINEAR_POINTS):
            certify._face(float(alpha), classes)
            certify._face(float(alpha), classes, gm)
    # set e has m == L for f: one face without G and one with it per alpha
    assert len(built) == 2 * LINEAR_POINTS
    for a in built:
        ours, theirs = _lapack.null_space(a), scipy_null_space(a)
        assert ours.shape == theirs.shape
        assert ours.strides == theirs.strides
        assert ours.tobytes() == theirs.tobytes()


def test_null_space_checks_its_input():
    assert _lapack.null_space(np.eye(3)).shape == (3, 0)
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        _lapack.null_space([[1.0, np.nan]])


def test_lqr_band_factor_is_cholesky_banded(monkeypatch):
    factors = []

    def recording(band):
        out = _lapack.dpbtrf(band)
        factors.append((band, out[0]))
        return out

    monkeypatch.setattr(lqrdemo, "dpbtrf", recording)
    lqrdemo.assemble_oracles(lqrdemo.build_instance(0, 20, 5, 20))
    (band, factor), = factors
    assert factor.tobytes() == cholesky_banded(band).tobytes()


def test_proxes_solve_as_scipy_cho_solve():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((3, 5)), rng.standard_normal(3)
    p, q = rng.standard_normal((5, 5)), rng.standard_normal(5)
    p = p @ p.T
    for x in rng.standard_normal((10, 5)):
        ours = tos.AffineSubspaceProx(a, b)(1.0, x)
        theirs = x - a.T @ cho_solve(cho_factor(a @ a.T), a @ x - b)
        assert ours.tobytes() == theirs.tobytes()
        ours = tos.QuadraticProx(p, q)(0.7, x)
        theirs = cho_solve(cho_factor(np.eye(5) + 0.7 * (0.5 * (p + p.T))),
                           x - 0.7 * q)
        assert ours.tobytes() == theirs.tobytes()


def test_missing_extension_raises_import_error_naming_it():
    out = _python("import numpy, importlib.machinery as m\n"
                  "m.EXTENSION_SUFFIXES[:] = ['.missing']\n"
                  "try:\n"
                  "    import toscert\n"
                  "except ImportError as exc:\n"
                  "    print(exc)\n")
    assert "no compiled LAPACK extension" in out
    assert os.path.join("scipy", "linalg", "_flapack.*") in out
