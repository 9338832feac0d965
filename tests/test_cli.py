"""Tests for the command line front end."""

import json
import math

import numpy as np
import pytest

from toscert import certify, cli, sdpcore
from toscert.lmikit import build_w2


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


LINEAR_DOC = {
    "mode": "linear",
    "alpha": 0.2,
    "f": {"m": 0, "L": "inf"},
    "g": {"m": 1, "L": 10},
    "h": {"m": 0, "L": 20},
}


def test_no_command_prints_usage():
    assert cli.main([]) == cli.EXIT_USAGE


def test_certify_linear_round_trip(tmp_path):
    inp = _write(tmp_path / "in.json", LINEAR_DOC)
    out = str(tmp_path / "cert.json")
    code = cli.main(["certify", inp, "--out", out])
    assert code == cli.EXIT_OK
    with open(out) as fh:
        cert = certify.certificate_from_json(fh.read())
    assert cert.mode == certify.MODE_LINEAR
    assert cert.rho2 < 1.0
    # re-audit the stored certificate independently
    classes = certify.ProblemClasses(
        certify.RegularityClass(0, math.inf),
        certify.RegularityClass(1, 10),
        certify.RegularityClass(0, 20))
    margin = certify.audit(build_w2(cert.lam, cert.rho2), cert.sigma,
                           cert.alpha, classes)
    assert margin <= 1e-7


def test_certify_infeasible_exit_code(tmp_path):
    doc = dict(LINEAR_DOC, alpha=50.0)
    inp = _write(tmp_path / "in.json", doc)
    out = str(tmp_path / "err.json")
    code = cli.main(["certify", inp, "--out", out])
    assert code == cli.EXIT_INFEASIBLE
    with open(out) as fh:
        err = json.load(fh)
    assert err["error"] == "infeasible"


OBJECTIVE_DOC = {
    "mode": "sublinearObjective",
    "f": {"m": 0, "L": 3},
    "g": {"m": 0, "L": "inf"},
    "h": {"m": 0, "L": 2},
}


@pytest.mark.parametrize("alpha", [2.0, 2.5, 100.0])
def test_certify_objective_refuses_past_davis_yin_range(tmp_path, monkeypatch,
                                                         alpha):
    # alpha L_h >= 4 - 2 LAM_MIN admits no positive theta: refused, no solve
    def banned(*args, **kwargs):
        raise AssertionError("solve_sdp called")

    monkeypatch.setattr(sdpcore, "solve_sdp", banned)
    inp = _write(tmp_path / "in.json", dict(OBJECTIVE_DOC, alpha=alpha))
    out = str(tmp_path / "err.json")
    assert cli.main(["certify", inp, "--out", out]) == cli.EXIT_INFEASIBLE
    with open(out) as fh:
        err = json.load(fh)
    assert err["error"] == "infeasible"
    assert "alpha * Lh >= 4 - 2 LAM_MIN" in err["message"]


RESIDUAL_DOC = {
    "mode": "sublinearResidual",
    "alpha": 1.0,
    "f": {"m": 0, "L": "inf"},
    "g": {"m": 0, "L": "inf"},
    "h": {"m": 0, "L": 1},
}


@pytest.mark.parametrize("doc", [
    dict(OBJECTIVE_DOC, alpha=1e-20, h={"m": 0, "L": 1e-300}),
    dict(RESIDUAL_DOC, alpha=1e-20, h={"m": 0, "L": 1e-300},
         **{"lambda": 0.5}),
    dict(LINEAR_DOC, alpha=1e200),
    dict(LINEAR_DOC, **{"lambda": 1e200}),
    dict(OBJECTIVE_DOC, alpha=1e8, f={"m": 0, "L": 1},
         h={"m": 0, "L": 5e-324}),
    dict(RESIDUAL_DOC, alpha=1e8, h={"m": 0, "L": 5e-324}),
], ids=["objective", "residual", "linear", "linear-lambda", "objective-nan",
        "residual-nan"])
@pytest.mark.filterwarnings("error")
def test_certify_refuses_data_beyond_the_float_range(tmp_path, doc):
    # alpha^2 L_h underflows to a zero divisor (objective), sigma Q_i
    # overflows in the audit (residual), alpha^2 overflows in the Q_i
    # (linear) or lambda^2 in R(lambda) (linear-lambda), or -1/L_h = -inf
    # makes the audit's Q_i NaN (objective-nan, residual-nan): a refusal,
    # not a traceback, and no numpy warning before it
    inp = _write(tmp_path / "in.json", doc)
    out = str(tmp_path / "err.json")
    assert cli.main(["certify", inp, "--out", out]) == cli.EXIT_INFEASIBLE
    with open(out) as fh:
        err = json.load(fh)
    assert err["error"] == "infeasible"
    assert "overflows" in err["message"]


@pytest.mark.filterwarnings("error")
def test_sweep_refuses_the_points_whose_audit_forms_nan(tmp_path):
    # -1/L_h = -inf at every grid point: each refused with no numpy warning
    # (the sweep's alpha is an np.float64, whose 1 / 0 warns)
    doc = dict(OBJECTIVE_DOC, f={"m": 0, "L": 1}, h={"m": 0, "L": 5e-324},
               grid=[1e-3, 1.0, 1e8])
    inp = _write(tmp_path / "in.json", doc)
    out = str(tmp_path / "err.json")
    assert cli.main(["sweep", inp, "--out", out]) == cli.EXIT_INFEASIBLE
    with open(out) as fh:
        err = json.load(fh)
    assert err == {"error": "infeasible",
                   "message": "no feasible point on the alpha grid"}


@pytest.mark.parametrize("doc, lam", [
    (RESIDUAL_DOC, "0"),
    (RESIDUAL_DOC, "-0.5"),
    (dict(LINEAR_DOC, alpha=3.0), "0"),
], ids=["residual-0", "residual-minus-0.5", "linear-0"])
def test_certify_refuses_nonpositive_lambda(tmp_path, doc, lam):
    # a stepsize that is not positive is malformed input, not a refusal
    inp = _write(tmp_path / "in.json", doc)
    out = str(tmp_path / "err.json")
    code = cli.main(["certify", inp, "--lambda", lam, "--out", out])
    assert code == cli.EXIT_BAD_INPUT
    with open(out) as fh:
        err = json.load(fh)
    assert err["error"] == "badInput"
    assert "lambda must be positive" in err["message"]


def test_certify_residual_meets_closed_form(tmp_path):
    # alpha = lam = 1 with a 1-Lipschitz h: the closed form gives theta = 1/2
    inp = _write(tmp_path / "in.json", RESIDUAL_DOC)
    out = str(tmp_path / "cert.json")
    code = cli.main(["certify", inp, "--lambda", "1", "--out", out])
    assert code == cli.EXIT_OK
    with open(out) as fh:
        cert = certify.certificate_from_json(fh.read())
    assert abs(cert.theta - 0.5) <= 1e-9


def test_certify_bad_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["certify", str(bad)]) == cli.EXIT_BAD_INPUT
    missing = _write(tmp_path / "missing.json", {"mode": "linear"})
    assert cli.main(["certify", missing]) == cli.EXIT_BAD_INPUT
    unknown = _write(tmp_path / "unknown.json",
                     dict(LINEAR_DOC, mode="noSuchMode"))
    assert cli.main(["certify", unknown]) == cli.EXIT_BAD_INPUT
    _assert_bad_options("certify", _write(tmp_path / "in.json", LINEAR_DOC),
                        capsys)


_BAD_OPTIONS = (["--mode", "bogus"],)


def _assert_bad_options(command, inp, capsys):
    for opts in _BAD_OPTIONS:
        capsys.readouterr()
        assert cli.main([command, inp, *opts]) == cli.EXIT_BAD_INPUT, opts
        assert json.loads(capsys.readouterr().err)["error"] == "badInput"


def test_sweep_bad_input_exit_code(tmp_path, capsys):
    doc = dict(LINEAR_DOC, grid=[0.1, 0.2])
    _assert_bad_options("sweep", _write(tmp_path / "in.json", doc), capsys)


# the options each command takes; any other is a usage error
_OPTIONS = {
    "certify": {"--mode", "--alpha", "--lambda", "--out"},
    "sweep": {"--mode", "--lambda", "--grid", "--out"},
    "run": {"--alpha", "--lambda", "--out"},
    "demo-lqr": {"--lambdas", "--n", "--m", "--horizon", "--iters", "--seed",
                 "--out"},
    "selftest": set(),
}
# every certificate is solved at sdpcore's defaults: no command takes the
# solver's tolerances or iteration budget
_SOLVER_OPTIONS = {"--tol-feas", "--tol-gap", "--max-iter"}
_ALL_OPTIONS = sorted(set().union(*_OPTIONS.values(), _SOLVER_OPTIONS))


@pytest.mark.parametrize("command, option", [
    (command, option) for command, taken in _OPTIONS.items()
    for option in _ALL_OPTIONS if option not in taken])
def test_command_refuses_options_it_does_not_read(tmp_path, monkeypatch,
                                                  capsys, command, option):
    monkeypatch.chdir(tmp_path)
    inp = _write(tmp_path / "in.json", LINEAR_DOC)
    argv = [command] + ([inp] if command in ("certify", "sweep", "run")
                        else []) + [option, "1"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    assert [p.name for p in tmp_path.iterdir()] == ["in.json"]
    assert capsys.readouterr().out == ""


def test_certify_takes_no_solver_options(tmp_path):
    # at these loose settings the solve stops at rho2 = 0.989 with audit
    # margin +8.5e-3, while the pinned program at its lambda has rho2 =
    # 1.022: a false certificate. No option may set them; at the defaults
    # the stepsize is refused
    doc = dict(LINEAR_DOC, alpha=9.085175756516872)
    inp = _write(tmp_path / "in.json", doc)
    out = tmp_path / "cert.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["certify", inp, "--tol-feas", "1e-2", "--tol-gap", "1e-2",
                  "--max-iter", "6", "--out", str(out)])
    assert exc.value.code == cli.EXIT_USAGE
    assert not out.exists()
    assert cli.main(["certify", inp, "--out", str(out)]) == \
        cli.EXIT_INFEASIBLE
    assert json.loads(out.read_text())["message"] == \
        "no linear certificate at this alpha"


RUN_DOC = {"f": {"type": "zero"}, "g": {"type": "box", "radius": 1.0},
           "h": {"matrix": [[1.0]]}, "z0": [1.0], "alpha": 0.5,
           "lambda": 1.0}
RUN_DOC_2 = dict(RUN_DOC, h={"matrix": [[4.0, 0.0], [0.0, 1.0]]},
                 z0=[1.0, 2.0])
_LINEAR_NO_ALPHA = {k: v for k, v in LINEAR_DOC.items() if k != "alpha"}


@pytest.mark.parametrize("command, doc, opts", [
    ("certify", _LINEAR_NO_ALPHA, []),
    ("certify", [1, 2], []),
    ("sweep", [1, 2], ["--grid", "0.1:1:3"]),
    ("run", [1, 2], []),
    ("certify", dict(LINEAR_DOC, alpha="x"), []),
    ("run", dict(RUN_DOC, alpha="x"), []),
    ("certify", dict(LINEAR_DOC, f=3), []),
    ("certify", dict(LINEAR_DOC, f={"m": "inf", "L": "inf"}), []),
    ("run", dict(RUN_DOC, f=3), []),
    ("run", {k: v for k, v in RUN_DOC.items() if k != "lambda"}, []),
    ("sweep", LINEAR_DOC, ["--grid", "0.1:1:3:bogus"]),
    ("sweep", LINEAR_DOC, ["--grid", "0.1:1:0"]),
    ("sweep", dict(LINEAR_DOC, grid=[]), []),
    ("certify", LINEAR_DOC, ["--alpha", "0"]),
    ("certify", LINEAR_DOC, ["--alpha", "nan"]),
    ("certify", dict(LINEAR_DOC, alpha=-0.2), []),
    ("sweep", LINEAR_DOC, ["--grid=-0.5:0.5:3:lin"]),
    ("sweep", dict(LINEAR_DOC, grid=[0.1, math.inf]), []),
    ("sweep", LINEAR_DOC, ["--grid", "0.1:1:3", "--lambda", "inf"]),
    ("run", dict(RUN_DOC, z0=[math.nan]), []),
    ("run", dict(RUN_DOC, z0=[1.0, 2.0]), []),
    ("run", dict(RUN_DOC, max_iter=2.5), []),
    ("run", dict(RUN_DOC_2, g={"type": "box", "radius": [1.0, 1.0, 1.0]}),
     []),
    ("run", dict(RUN_DOC_2, g={"type": "l1", "weight": [1.0, 1.0, 1.0]}), []),
    ("run", dict(RUN_DOC_2, f={"type": "affineSubspace",
                               "a": [[1.0, 0.0, 0.0]], "b": [1.0]}), []),
    ("run", dict(RUN_DOC_2, f={"type": "quadratic", "matrix": [[1.0]]}), []),
    ("run", dict(RUN_DOC_2, f={"type": "quadratic", "linear": [1.0],
                               "matrix": [[1.0, 0.0], [0.0, 1.0]]}), []),
    ("certify", dict(OBJECTIVE_DOC, alpha=0.5), ["--lambda", "0.5"]),
    ("certify", dict(OBJECTIVE_DOC, alpha=0.5, **{"lambda": 0.5}), []),
    ("sweep", OBJECTIVE_DOC, ["--grid", "0.5:1:2", "--lambda", "1.5"]),
    ("sweep", dict(OBJECTIVE_DOC, grid=[0.5, 1.0], **{"lambda": 1.5}), []),
    ("run", dict(RUN_DOC, residual_tol="nan"), []),
    ("run", dict(RUN_DOC, residual_tol=-1e-6), []),
    ("run", dict(RUN_DOC, f={"type": "quadratic", "matrix": [[-2.0]]}), []),
    ("run", dict(RUN_DOC_2, f={"type": "affineSubspace",
                               "a": [[1.0, 0.0], [1.0, 0.0]],
                               "b": [0.0, 1.0]}), []),
], ids=["certify-no-alpha", "certify-array", "sweep-array", "run-array",
        "certify-alpha-x", "run-alpha-x", "certify-f-3", "certify-f-m-inf",
        "run-f-3", "run-no-lambda", "grid-bogus-scale", "grid-no-points",
        "document-grid-empty", "certify-alpha-0", "certify-alpha-nan",
        "certify-document-alpha-negative",
        "grid-negative-points", "document-grid-inf", "sweep-lambda-inf",
        "run-z0-nan", "run-z0-size", "run-max-iter-2.5", "run-box-radius",
        "run-l1-weight", "run-affine-columns", "run-quadratic-matrix",
        "run-quadratic-linear", "certify-objective-lambda-flag",
        "certify-objective-document-lambda", "sweep-objective-lambda-flag",
        "sweep-objective-document-lambda", "run-residual-tol-nan",
        "run-residual-tol-negative", "run-quadratic-not-pd",
        "run-affine-repeated-rows"])
def test_malformed_input_exit_code(tmp_path, capsys, command, doc, opts):
    inp = _write(tmp_path / "in.json", doc)
    out = str(tmp_path / "out")
    assert cli.main([command, inp, *opts, "--out", out]) == cli.EXIT_BAD_INPUT
    assert json.loads(capsys.readouterr().err)["error"] == "badInput"
    with open(out) as fh:
        assert json.load(fh)["error"] == "badInput"


@pytest.mark.parametrize("command, doc", [
    ("run", dict(RUN_DOC, max_iter=True)),
    ("certify", dict(LINEAR_DOC, alpha=True)),
    ("certify", dict(LINEAR_DOC, g={"m": True, "L": 10}))],
    ids=["run-max-iter-true", "certify-alpha-true", "certify-m-true"])
def test_json_booleans_are_malformed(tmp_path, capsys, command, doc):
    # no field of any command is boolean; Python reads true as the integer
    # 1, so these ran one step, certified at alpha = 1 and took m = 1
    inp = _write(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    assert cli.main([command, inp, "--out", str(out)]) == cli.EXIT_BAD_INPUT
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "badInput" and "true or false" in err["message"]
    assert json.loads(out.read_text()) == err  # the error alone, no result


def test_affine_subspace_with_nan_is_malformed(tmp_path, capsys):
    doc = dict(RUN_DOC, g={"type": "affineSubspace", "a": [[math.nan]],
                           "b": [1.0]})
    assert cli.main(["run", _write(tmp_path / "in.json", doc)]) == \
        cli.EXIT_BAD_INPUT
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "badInput"
    assert "must not contain infs or NaNs" in err["message"]


def test_sweep_takes_the_document_lambda(tmp_path):
    inp = _write(tmp_path / "in.json", LINEAR_DOC)
    pinned = _write(tmp_path / "pinned.json",
                    dict(LINEAR_DOC, **{"lambda": 0.5}))
    csv = {}
    for name, argv in (("flag", [inp, "--lambda", "0.5"]), ("doc", [pinned])):
        out = str(tmp_path / f"{name}.csv")
        assert cli.main(["sweep", *argv, "--grid", "0.05:0.5:3",
                         "--out", out]) == cli.EXIT_OK
        with open(out) as fh:
            csv[name] = fh.read()
    assert csv["doc"] == csv["flag"]
    assert ",0.5," in csv["doc"]


def test_certify_flag_overrides_document(tmp_path):
    inp = _write(tmp_path / "in.json", LINEAR_DOC)
    out = str(tmp_path / "cert.json")
    code = cli.main(["certify", inp, "--alpha", "0.1", "--out", out])
    assert code == cli.EXIT_OK
    with open(out) as fh:
        doc = json.loads(fh.read())
    assert doc["alpha"] == 0.1


def test_sweep_csv(tmp_path):
    doc = {"mode": "linear",
           "f": {"m": 0, "L": "inf"},
           "g": {"m": 1, "L": 10},
           "h": {"m": 0, "L": 20}}
    inp = _write(tmp_path / "in.json", doc)
    out = str(tmp_path / "curve.csv")
    code = cli.main(["sweep", inp, "--grid", "0.05:0.5:4", "--out", out])
    assert code == cli.EXIT_OK
    with open(out) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "alpha,rate,lambda,feasible"
    assert len(lines) == 5


def test_run_writes_trace(tmp_path):
    doc = {
        "f": {"type": "zero"},
        "g": {"type": "box", "radius": 1.0},
        "h": {"matrix": [[1.0, 0.0], [0.0, 2.0]]},
        "z0": [3.0, -3.0],
        "alpha": 0.5,
        "lambda": 1.0,
        "max_iter": 50,
    }
    inp = _write(tmp_path / "run.json", doc)
    out = str(tmp_path / "trace.csv")
    assert cli.main(["run", inp, "--out", out]) == cli.EXIT_OK
    with open(out) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 51
    assert lines[0].startswith("k,residual_norm2")


def test_run_reports_divergence(tmp_path, capsys):
    # lambda = 3 is no input error: at alpha = 0.1 the run contracts, at
    # alpha = 0.4 it diverges (z' = (I - lam alpha h) z) and is reported
    doc = dict(RUN_DOC_2, f={"type": "zero"}, g={"type": "zero"},
               max_iter=2000, **{"lambda": 3.0})
    out = str(tmp_path / "trace.csv")
    inp = _write(tmp_path / "run.json", dict(doc, alpha=0.1))
    assert cli.main(["run", inp, "--out", out]) == cli.EXIT_OK
    inp = _write(tmp_path / "run.json", dict(doc, alpha=0.4))
    assert cli.main(["run", inp, "--out", out]) == cli.EXIT_DIVERGED == 1
    assert json.loads(capsys.readouterr().err)["error"] == "diverged"
    with open(out) as fh:
        assert json.load(fh)["error"] == "diverged"


def test_run_reports_divergence_in_a_factored_prox(tmp_path, capsys):
    # at lambda = 1.9 the stiff h drives z past the floats, and the
    # quadratic prox refuses the non-finite y before tos_step checks z'
    doc = {"f": {"type": "quadratic", "matrix": [[1.0]]},
           "g": {"type": "zero"}, "h": {"matrix": [[100.0]]}, "z0": [1.0],
           "alpha": 1.0, "lambda": 1.9}
    inp = _write(tmp_path / "run.json", doc)
    out = str(tmp_path / "trace.csv")
    assert cli.main(["run", inp, "--out", out]) == cli.EXIT_DIVERGED
    assert json.loads(capsys.readouterr().err)["error"] == "diverged"
    with open(out) as fh:
        assert json.load(fh)["error"] == "diverged"


def test_symlinked_out_is_written_through(tmp_path):
    # the link stays a link, and its target gets the output
    inp = _write(tmp_path / "in.json", LINEAR_DOC)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old " * 1000)
    link.symlink_to(target)
    assert cli.main(["certify", inp, "--out", str(link)]) == cli.EXIT_OK
    assert link.is_symlink()
    assert certify.certificate_from_json(target.read_text()).rho2 < 1.0


@pytest.mark.parametrize("command, doc", [
    ("certify", LINEAR_DOC),
    ("run", {"f": {"type": "zero"}, "g": {"type": "zero"},
             "h": {"matrix": [[1.0]]}, "z0": [1.0], "alpha": 0.5,
             "lambda": 1.0, "max_iter": 3})],
    ids=["certify", "run"])
def test_out_naming_a_directory_is_bad_input(tmp_path, capsys, command, doc):
    # the directory is left as it was, and the error goes to stderr alone
    inp = _write(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    out.mkdir()
    code = cli.main([command, inp, "--out", str(out)])
    assert code == cli.EXIT_BAD_INPUT
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "badInput" and "is a directory" in err["message"]
    assert not any(out.iterdir())


def test_run_unknown_prox_type(tmp_path):
    doc = {"f": {"type": "bogus"}, "g": {"type": "zero"},
           "h": {"matrix": [[1.0]]}, "z0": [1.0],
           "alpha": 0.5, "lambda": 1.0}
    inp = _write(tmp_path / "run.json", doc)
    assert cli.main(["run", inp]) == cli.EXIT_BAD_INPUT


def test_demo_lqr_outputs(tmp_path, capsys):
    code = cli.main(["demo-lqr", "--n", "3", "--m", "2", "--horizon", "4",
                     "--iters", "30", "--lambdas", "0.5,1.0",
                     "--seed", "3", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert (tmp_path / "summary.json").exists()
    assert "best lambda" in capsys.readouterr().out


def test_demo_lqr_bad_input_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    taken = tmp_path / "taken"
    taken.write_text("kept")
    for opts in (["--lambdas", "2.5"], ["--lambdas", "x"], ["--n", "0"],
                 ["--iters", "0"], ["--lambdas", "0.1234567,0.1234568"],
                 ["--out", str(taken)]):  # --out names an existing file
        capsys.readouterr()
        code = cli.main(["demo-lqr", "--out", str(out), *opts])
        assert code == cli.EXIT_BAD_INPUT, opts
        assert json.loads(capsys.readouterr().err)["error"] == "badInput"
    # --out names the output directory: the error is not written there
    assert not any(out.iterdir())
    assert taken.read_text() == "kept"


def test_deterministic_certificate_bytes(tmp_path):
    inp = _write(tmp_path / "in.json", LINEAR_DOC)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli.main(["certify", inp, "--out", out1]) == cli.EXIT_OK
    assert cli.main(["certify", inp, "--out", out2]) == cli.EXIT_OK
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == cli.EXIT_OK
    assert "selftest passed" in capsys.readouterr().out
