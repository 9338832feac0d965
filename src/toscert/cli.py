"""Command line front end: certify, sweep, run, demo-lqr, selftest."""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import certify, lqrdemo, sdpcore, tos
from .lmikit import RegularityClass, kron_identity, max_eig

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_BAD_INPUT = 4


def _fail(code, kind, message, out=None):
    doc = json.dumps({"error": kind, "message": message}, indent=2)
    if out and not os.path.isdir(out):  # a directory is no place for it
        with tos._open_new(out) as fh:
            fh.write(doc + "\n")
    print(doc, file=sys.stderr)
    return code


def _decode_l(v):
    if v in ("inf", "Infinity", None):
        return math.inf
    return float(v)


def _classes_from_doc(doc):
    specs = [doc[name] for name in ("f", "g", "h")]
    if not all(isinstance(spec, dict) for spec in specs):
        raise ValueError("f, g and h must be JSON objects")
    return certify.ProblemClasses(*(
        RegularityClass(float(spec.get("m", 0.0)),
                        _decode_l(spec.get("L", "inf"))) for spec in specs))


def _grid(spec):
    """The stepsizes of start:stop:points[:log|lin], log-spaced by default."""
    parts = spec.split(":")
    if len(parts) not in (3, 4) or parts[3:] not in ([], ["log"], ["lin"]):
        raise ValueError(f"grid {spec!r} is not start:stop:points[:log|lin]")
    start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    space = np.linspace if parts[3:] == ["lin"] else np.geomspace
    return space(start, stop, points)


_PROX_SPECS = {
    "box": lambda d: tos.BoxProx(d["radius"]),
    "l1": lambda d: tos.L1Prox(d["weight"]),
    "zero": lambda d: tos.ZeroProx(),
    "affineSubspace": lambda d: tos.AffineSubspaceProx(d["a"], d["b"]),
    "quadratic": lambda d: tos.QuadraticProx(d["matrix"], d.get("linear")),
}

# what a malformed document or option raises while it is loaded
_BAD_INPUT = (OSError, KeyError, TypeError, ValueError)


def _require_positive(name, values):
    """Raise ValueError unless every value is positive and finite."""
    values = np.asarray(values, dtype=float)
    if not ((values > 0) & np.isfinite(values)).all():
        raise ValueError(f"{name} must be positive and finite")


def _holds_bool(value):
    """Whether a JSON value holds true or false anywhere in it."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


def _load_request(args):
    """Complete the options of a certify, sweep or run call from its document.

    Each command's parser holds only the options it reads, and only those
    are checked. alpha and lambda come from the flag, else the document, as
    floats, and must be positive and finite, as must sweep's stepsizes.
    certify and sweep get their mode (the objective mode, which optimizes
    lambda, takes none) and problem classes, sweep its stepsizes, run its
    splitting oracle and settings;
    run's z0 must be a finite vector, h.matrix square of its size, and each
    prox must apply to z0. No field of any command is boolean, so the
    document must hold no true or false. --out must not name a directory.
    Raises one of _BAD_INPUT.
    """
    if args.out and os.path.isdir(args.out):
        raise IsADirectoryError(f"--out {args.out} is a directory")
    with open(args.input) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("the input must be a JSON object")
    if _holds_bool(doc):
        raise ValueError("the input holds a JSON true or false, "
                         "which is no field's value")
    if "alpha" in args and args.alpha is None:
        args.alpha = float(doc["alpha"])
    if args.lam is None and doc.get("lambda") is not None:
        args.lam = float(doc["lambda"])
    for name, value in (("alpha", vars(args).get("alpha")),
                        ("lambda", args.lam)):
        if value is not None:
            _require_positive(name, value)
    if args.command == "run":
        if args.lam is None:
            raise KeyError("lambda")
        f, g = (_PROX_SPECS[doc[k]["type"]](doc[k]) for k in "fg")
        e = np.asarray(doc["h"]["matrix"], dtype=float)
        args.oracle = tos.OperatorOracle(
            prox_f=f, prox_g=g, grad_h=lambda x: tos.grad_eval(e, x))
        args.z0 = np.asarray(doc["z0"], dtype=float)
        if args.z0.ndim != 1 or e.shape != (args.z0.size, args.z0.size):
            raise ValueError("h.matrix must be square, of the size of z0")
        if not np.isfinite(args.z0).all():
            raise ValueError("z0 must be finite")
        for name, prox in (("f", f), ("g", g)):
            try:  # a prox whose data does not fit z0 fails on it
                prox(args.alpha, args.z0)
            except ValueError as exc:
                raise ValueError(f"the prox of {name} fails at z0: {exc}")
        args.config = tos.TosConfig(
            alpha=args.alpha, lam=args.lam,
            max_iter=doc.get("max_iter", 1000),
            residual_tol=float(doc.get("residual_tol", 0.0)))
        return
    args.mode = args.mode or doc.get("mode")
    if args.mode not in certify.SENTINEL_RATE:
        raise ValueError(f"unknown mode {args.mode}")
    if args.mode == certify.MODE_OBJECTIVE and args.lam is not None:
        raise ValueError("the objective mode optimizes lambda; "
                         "it takes no --lambda or document lambda")
    args.classes = _classes_from_doc(doc)
    if args.command == "sweep":
        args.grid = (_grid(args.grid) if args.grid
                     else np.asarray(doc["grid"], dtype=float))
        if args.grid.ndim != 1 or not args.grid.size:
            raise ValueError("the alpha grid needs at least one point")
        _require_positive("every alpha grid point", args.grid)


def _write(text, out):
    if out:
        with tos._open_new(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_certify(args):
    try:
        cert = certify.certify_rate(
            args.mode, args.alpha, args.classes, args.lam)
    except certify.CertificationError as exc:
        return _fail(EXIT_INFEASIBLE, "infeasible", str(exc), args.out)
    _write(certify.certificate_to_json(cert) + "\n", args.out)
    return EXIT_OK


def cmd_sweep(args):
    try:
        curve, best = certify.sweep_alpha(
            args.grid, args.classes, args.mode, lam=args.lam)
    except certify.CertificationError as exc:
        return _fail(EXIT_INFEASIBLE, "infeasible", str(exc), args.out)
    lines = ["alpha,rate,lambda,feasible"]
    for rec in curve:
        lam = "" if rec["lambda"] is None else rec["lambda"]
        lines.append(f"{rec['alpha']},{rec['rate']},{lam},{int(rec['feasible'])}")
    _write("\n".join(lines) + "\n", args.out)
    print(f"best alpha {best[0]} rate {best[1]}", file=sys.stderr)
    return EXIT_OK


def cmd_run(args):
    try:
        # a diverging run ends in the FloatingPointError, not in warnings
        with np.errstate(over="ignore", invalid="ignore"):
            trace = tos.run(args.oracle, args.z0, args.config)
    except (FloatingPointError, ValueError) as exc:
        # e.g. lambda >= 2 on a stiff h. Each prox has run on z0, so a
        # ValueError is a factored prox refusing an iterate no longer finite
        return _fail(EXIT_DIVERGED, "diverged", str(exc), args.out)
    trace.to_csv(args.out or "trace.csv")
    return EXIT_OK


def cmd_demo_lqr(args):
    try:
        lambdas = [float(v) for v in args.lambdas.split(",")]
        lqrdemo.check_sweep(lambdas, args.iters)
        inst = lqrdemo.build_instance(args.seed, args.n, args.m, args.horizon)
        out_dir = args.out or "."
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:  # OSError: e.g. --out is a file
        # --out names a directory, or the file in its way: no error goes there
        return _fail(EXIT_BAD_INPUT, "badInput", str(exc))
    results = lqrdemo.run_sweep(inst, lambdas, args.iters, out_dir=out_dir)
    best = min(results, key=lambda rec: rec["final_min_residual2"])
    print(f"best lambda {best['lambda']} final metric "
          f"{best['final_min_residual2']:.6e}")
    return EXIT_OK


def cmd_selftest(args):
    failures = []
    for prob, target in sdpcore.analytic_instances():
        sol = sdpcore.solve_sdp(prob, gap_tol=1e-11)
        value = abs(sol.objective)
        if abs(value - target) > 1e-8:
            failures.append(f"analytic instance off: {value} vs {target}")
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(4, 6))
        base = rng.standard_normal((n, n))
        base = 0.5 * (base + base.T)
        for d in (1, 2, 3):
            big = kron_identity(base, d)
            if abs(max_eig(big) - max_eig(base)) > 1e-10:
                failures.append("kronecker eigenvalue mismatch")
    for msg in failures:
        print(msg, file=sys.stderr)
    print("selftest " + ("FAILED" if failures else "passed"))
    return EXIT_OK if not failures else 1


_COMMANDS = {"certify": cmd_certify, "sweep": cmd_sweep, "run": cmd_run,
            "demo-lqr": cmd_demo_lqr, "selftest": cmd_selftest}


def build_parser():
    """One subparser a command, holding only the options that command reads."""
    p = argparse.ArgumentParser(prog="toscert")
    sub = p.add_subparsers(dest="command")
    # no abbreviations: demo-lqr --lambda must not pass for --lambdas
    pc, ps, pr, pd, _ = (sub.add_parser(name, allow_abbrev=False)
                         for name in _COMMANDS)
    for sp in (pc, ps, pr):
        sp.add_argument("input")
        sp.add_argument("--lambda", dest="lam", type=float)
    for sp in (pc, pr):
        sp.add_argument("--alpha", type=float)
    for sp in (pc, ps):
        sp.add_argument("--mode")
    ps.add_argument("--grid")
    for sp in (pc, ps, pr, pd):
        sp.add_argument("--out")
    pd.add_argument("--lambdas", default="0.25,0.5,1,1.5")
    pd.add_argument("--n", type=int, default=20)
    pd.add_argument("--m", type=int, default=5)
    pd.add_argument("--horizon", type=int, default=20)
    pd.add_argument("--iters", type=int, default=2000)
    pd.add_argument("--seed", type=int, default=0)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if "input" in args:
        try:
            _load_request(args)
        except _BAD_INPUT as exc:
            return _fail(EXIT_BAD_INPUT, "badInput", str(exc), args.out)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
