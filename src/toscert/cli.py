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
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_BAD_INPUT = 4


def _fail(code, kind, message, out=None):
    doc = json.dumps({"error": kind, "message": message}, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(doc + "\n")
    print(doc, file=sys.stderr)
    return code


def _decode_l(v):
    if v in ("inf", "Infinity", None):
        return math.inf
    return float(v)


def _classes_from_doc(doc):
    out = {}
    for name in ("f", "g", "h"):
        spec = doc[name]
        out[name] = RegularityClass(float(spec.get("m", 0.0)),
                                    _decode_l(spec.get("L", "inf")))
    return certify.ProblemClasses(out["f"], out["g"], out["h"])


def _load_input(path):
    with open(path) as fh:
        return json.load(fh)


def _grid(spec):
    start, stop, points = spec.split(":")[:3]
    scale = spec.split(":")[3] if spec.count(":") >= 3 else "log"
    start, stop, points = float(start), float(stop), int(points)
    if scale == "log":
        return np.geomspace(start, stop, points)
    return np.linspace(start, stop, points)


def _load_request(args):
    """Document, classes and mode of a certify or sweep call, all checked."""
    doc = _load_input(args.input)
    mode = args.mode or doc.get("mode")
    if mode not in certify.SENTINEL_RATE:
        raise ValueError(f"unknown mode {mode}")
    sdpcore.check_options(args.tol_feas, args.tol_gap, args.max_iter)
    return doc, _classes_from_doc(doc), mode


def cmd_certify(args):
    try:
        doc, classes, mode = _load_request(args)
        alpha = args.alpha if args.alpha is not None else doc.get("alpha")
        lam = args.lam if args.lam is not None else doc.get("lambda")
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        return _fail(EXIT_BAD_INPUT, "badInput", str(exc), args.out)
    try:
        cert = certify.certify_rate(
            mode, alpha, classes, lam, feas_tol=args.tol_feas,
            gap_tol=args.tol_gap, max_iter=args.max_iter)
    except certify.CertificationError as exc:
        return _fail(EXIT_INFEASIBLE, "infeasible", str(exc), args.out)
    text = certify.certificate_to_json(cert)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_sweep(args):
    try:
        doc, classes, mode = _load_request(args)
        grid = _grid(args.grid) if args.grid else np.asarray(doc["grid"])
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        return _fail(EXIT_BAD_INPUT, "badInput", str(exc), args.out)
    try:
        curve, best = certify.sweep_alpha(
            grid, classes, mode, lam=args.lam, feas_tol=args.tol_feas,
            gap_tol=args.tol_gap, max_iter=args.max_iter)
    except certify.CertificationError as exc:
        return _fail(EXIT_INFEASIBLE, "infeasible", str(exc), args.out)
    lines = ["alpha,rate,lambda,feasible"]
    for rec in curve:
        lam = "" if rec["lambda"] is None else rec["lambda"]
        lines.append(f"{rec['alpha']},{rec['rate']},{lam},{int(rec['feasible'])}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"best alpha {best[0]} rate {best[1]}", file=sys.stderr)
    return EXIT_OK


_PROX_SPECS = {
    "box": lambda d: tos.BoxProx(d["radius"]),
    "l1": lambda d: tos.L1Prox(d["weight"]),
    "zero": lambda d: tos.ZeroProx(),
    "affineSubspace": lambda d: tos.AffineSubspaceProx(d["a"], d["b"]),
    "quadratic": lambda d: tos.QuadraticProx(np.asarray(d["matrix"]),
                                             d.get("linear")),
}


def cmd_run(args):
    try:
        doc = _load_input(args.input)
        prox_f = _PROX_SPECS[doc["f"]["type"]](doc["f"])
        prox_g = _PROX_SPECS[doc["g"]["type"]](doc["g"])
        e = np.asarray(doc["h"]["matrix"], dtype=float)
        z0 = np.asarray(doc["z0"], dtype=float)
        alpha = args.alpha if args.alpha is not None else doc["alpha"]
        lam = args.lam if args.lam is not None else doc["lambda"]
        config = tos.TosConfig(alpha=alpha, lam=lam,
                               max_iter=int(doc.get("max_iter", 1000)),
                               residual_tol=float(doc.get("residual_tol", 0.0)))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        return _fail(EXIT_BAD_INPUT, "badInput", str(exc), args.out)
    oracle = tos.OperatorOracle(
        prox_f=prox_f, prox_g=prox_g, grad_h=lambda x: tos.grad_eval(e, x))
    trace = tos.run(oracle, z0, config)
    out = args.out or "trace.csv"
    trace.to_csv(out)
    return EXIT_OK


def cmd_demo_lqr(args):
    try:
        lambdas = [float(v) for v in args.lambdas.split(",")]
        lqrdemo.check_lambdas(lambdas)
        inst = lqrdemo.build_instance(args.seed, args.n, args.m, args.horizon)
    except ValueError as exc:
        return _fail(EXIT_BAD_INPUT, "badInput", str(exc))  # --out is a dir
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
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


def build_parser():
    p = argparse.ArgumentParser(prog="toscert")
    sub = p.add_subparsers(dest="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode")
    common.add_argument("--alpha", type=float)
    common.add_argument("--lambda", dest="lam", type=float)
    common.add_argument("--grid")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out")
    common.add_argument("--tol-feas", type=float,
                        default=sdpcore.DEFAULT_FEAS_TOL)
    common.add_argument("--tol-gap", type=float,
                        default=sdpcore.DEFAULT_GAP_TOL)
    common.add_argument("--max-iter", type=int,
                        default=sdpcore.DEFAULT_MAX_ITER)

    pc = sub.add_parser("certify", parents=[common])
    pc.add_argument("input")
    pc.set_defaults(func=cmd_certify)
    ps = sub.add_parser("sweep", parents=[common])
    ps.add_argument("input")
    ps.set_defaults(func=cmd_sweep)
    pr = sub.add_parser("run", parents=[common])
    pr.add_argument("input")
    pr.set_defaults(func=cmd_run)
    pd = sub.add_parser("demo-lqr", parents=[common])
    pd.add_argument("--lambdas", default="0.25,0.5,1,1.5")
    pd.add_argument("--n", type=int, default=20)
    pd.add_argument("--m", type=int, default=5)
    pd.add_argument("--horizon", type=int, default=20)
    pd.add_argument("--iters", type=int, default=2000)
    pd.set_defaults(func=cmd_demo_lqr)
    pt = sub.add_parser("selftest", parents=[common])
    pt.set_defaults(func=cmd_selftest)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
