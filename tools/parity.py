"""Record every SDP solve of the certificate workloads, and compare two records.

    python3 tools/parity.py dump OUT.json     # solves made by this tree
    python3 tools/parity.py diff A.json B.json

`dump` imports `toscert` from `src/` of the tree this file sits in and
wraps `sdpcore.solve_sdp`. It then runs the operations of
`objective-surface` at seeds 0-3 and of `linear-duality` at seed 0, with
inputs from `perfbench.workloads`, `objective-refusals` (the seed-0
surface points that `certify_objective_rate` refuses without a solve,
alpha L_h >= 4 - 2 LAM_MIN, each program solved once through
`objective_program` of `tests/face_programs.py`, so that the IPM's Farkas
path stays covered), the residual-rate grid (lambda joint, 0.5, 1.0 and
1.5 over the surface's stepsizes), `linear-near-equal` (linear-duality's
set e, whose f has m = L = 20, with L_f raised to
20 (1 + delta): a joint certificate and one pinned at its lambda over set
e's stepsizes, so that a multiplier sigma_f = inf that appears or vanishes
shows in the diff) and `sdpcore-cases`:
`sdpcore.analytic_instances()` and the `feasibility_margin` programs of
the tests: scalar ones whose data runs up to 1e6, and the residual-rate
LMI with each multiplier's sign as a diagonal row of its own, its margin
taken over the whole block. The objective and residual producers solve in
closed form, so the `objective-surface` and `residual-grid` sections record
rates and no solve; `objective-refusals` still solves its 200 programs.
For each solve it writes the status, the bytes of y, the iteration count,
the audit slack, the objective and the residuals pres, dres and gap. For
each operation it writes the rates issued (None for a refusal) and,
beside each certificate's rate in every section, its lambda and its audit
margin; an `objective-refusals` operation issues the theta of its solve
and an `sdpcore-cases` operation its optimal value or margin, with no
lambda or audit margin. Its `lqr-demo` section runs the benchmark's
`lqr-demo` operations at seed 0, one trace per default lambda, and writes
the sha256 of the bytes of the trace's x_B, x_A, z, residual_norm2 and
objective and of its CSV file. Each lambda runs twice into one directory,
and the CSV is hashed after each write, so the rewrite of an existing
output is covered too.

`diff` matches solves by section, operation and order within the
operation, and prints, per section and in total: how many are identical,
how many differ only in their bits (same status) and, among those, how
many differ in each recorded field (so y or an iteration count that
moved shows apart from a slack or a residual), each status
transition, the total iterations, the undecided solves (`maxIterations`
and `numericalFailure`) of each side, the certificates issued and the
largest change in an issued rate, absolute and relative to the first
record's rate. It counts the operations whose issued rates differ in
their bits, those that issue on one side and refuse on the other, and
those whose lambda differs in its bits, with the largest relative change
in lambda, and the audit margins that differ in their bits, with the
largest absolute change. Solves missing at operations that refuse on
both sides are counted apart from the other solves or operations
without a counterpart. It counts the identical and the differing `lqr-demo`
traces apart, naming the fields that differ, and flags a trace whose
rewritten CSV differs from its first write. It exits 1 when any solve,
issued rate, lambda, audit margin or trace differs or has no
counterpart, or a rewritten CSV differs, so a change that moves a
closed-form rate or its audit, which make no solve, fails it too.

To compare two commits, copy this file into a checkout of each and run
`dump` there.
"""

import json
import math
import os
import sys
from collections import Counter
from fractions import Fraction

# fixed before numpy loads, as the benchmark fixes it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SURFACE_SEEDS = (0, 1, 2, 3)
RESIDUAL_LAMBDAS = (None, 0.5, 1.0, 1.5)
NEAR_EQUAL_DELTAS = (1e-9, 1e-6, 1e-4)
UNDECIDED = ("maxIterations", "numericalFailure")
LQR_SECTION = "lqr-demo"
LQR_FIELDS = ("x_b", "x_a", "z", "residual_norm2", "objective")
SOLVE_FIELDS = ("y", "iterations", "slack", "objective", "pres", "dres",
                "gap")


def _sections():
    """(name, operations, issued) for every section.

    The operations are zero-argument callables; issued maps an operation's
    outcome to what it issued: certificates, None where it refused, or plain
    values in the sections that issue no certificate.
    """
    from perfbench import workloads
    from toscert import certify

    for seed in SURFACE_SEEDS:
        yield (f"objective-surface/{seed}",
               workloads.ObjectiveSurface(seed).operations(),
               lambda outcome: [outcome[1]])
    yield ("objective-refusals", list(_refusal_operations()),
           lambda value: [value])
    yield ("linear-duality/0", workloads.LinearDuality(0).operations(),
           lambda outcome: [outcome["joint"], outcome["pinned"]])
    case1 = certify._case1_classes(1.0)
    alphas = workloads.seeded_grid(*workloads.SURFACE_ALPHAS, 0)

    def residual(alpha, lam):
        return lambda: workloads._certify_or_none(
            certify.certify_residual_rate, alpha, lam, case1)
    yield ("residual-grid", [residual(a, lam) for lam in RESIDUAL_LAMBDAS
                             for a in alphas], lambda cert: [cert])
    yield ("linear-near-equal", list(_near_equal_operations()), list)
    yield ("sdpcore-cases", list(_sdpcore_cases()), lambda value: [value])


def _hex(values):
    return [None if v is None else float(v).hex() for v in values]


def _refusal_operations():
    """One solve of each seed-0 surface program the objective rule refuses.

    An operation issues the theta the producer would read from its solve,
    None where the solve does not end optimal with theta > 0.
    """
    from perfbench import workloads
    from toscert import certify, sdpcore
    from face_programs import objective_program
    bound = 4 - 2 * Fraction(certify.LAM_MIN)

    def solve(point):
        sol = sdpcore.solve_sdp(objective_program(*point)[0])
        optimal = sol.status == sdpcore.STATUS_OPTIMAL and sol.y[0] > 0
        return float(sol.y[0]) if optimal else None
    for point in workloads.ObjectiveSurface(0).points:
        if Fraction(point[0]) * Fraction(point[2]) >= bound:
            yield lambda point=point: solve(point)


def _near_equal_operations():
    """Joint and pinned linear certificates of set e with L_f = 20 (1 + d)."""
    import numpy as np
    from perfbench import workloads
    from toscert import certify

    (f, g, h), (lo, hi) = workloads.LINEAR_SETS["e"]

    def op(alpha, classes):
        def run():
            joint = workloads._certify_or_none(
                certify.certify_linear_rate, alpha, classes)
            pinned = joint and workloads._certify_or_none(
                certify.certify_linear_rate, alpha, classes, lam=joint.lam)
            return joint, pinned
        return run
    for delta in NEAR_EQUAL_DELTAS:
        classes = certify.ProblemClasses(
            certify.RegularityClass(f[0], f[1] * (1.0 + delta)),
            *(certify.RegularityClass(*c) for c in (g, h)))
        for alpha in np.geomspace(lo, hi, workloads.LINEAR_POINTS):
            yield op(float(alpha), classes)


def _sdpcore_cases():
    """The analytic instances' objectives and the margins of the tests."""
    import numpy as np
    from scipy.linalg import block_diag
    from toscert import lmikit, sdpcore

    for prob, _ in sdpcore.analytic_instances():
        yield lambda prob=prob: sdpcore.solve_sdp(prob).objective
    for a in (-1.0, 1.0, 2e4, 1e6):
        yield lambda a=a: sdpcore.feasibility_margin(np.array([[a]]), [])[0]
    # test_certificate_margin_tracks_theta's programs, theta* times 0.9, 1.5,
    # each sigma_i >= 0 a diagonal row of its own
    lam, lh = 0.5, 1.0
    alpha = (2.0 - lam) / lh
    cls = lmikit.RegularityClass(0.0, math.inf)
    qs = [block_diag(q, -np.diag(e)) for q, e in zip(
        lmikit.build_qc_triplet(alpha, cls, cls,
                                lmikit.RegularityClass(0.0, lh)), np.eye(3))]
    theta_star = (2.0 - lam) ** 3 * lam / (2.0 * lh ** 2)
    for f in (0.9, 1.5):
        w0 = block_diag(lmikit.build_w0(lam, f * theta_star, alpha),
                        np.zeros((3, 3)))
        yield lambda w0=w0: sdpcore.feasibility_margin(w0, qs)[0]


def _lqr_traces():
    """The sha256 of each field of every lqr-demo trace at seed 0."""
    import hashlib
    import tempfile

    import numpy as np
    from perfbench import workloads
    from toscert import lqrdemo

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    inst = lqrdemo.build_instance(0, *workloads.LQR_SIZE)
    rows = []
    with tempfile.TemporaryDirectory() as out:
        for lam in workloads.LQR_LAMBDAS:
            csvs = []
            for _ in range(2):  # the second run rewrites the first's files
                trace = lqrdemo.run_sweep(inst, [lam], workloads.LQR_ITERS,
                                          out_dir=out)[0]["trace"]
                with open(os.path.join(out, lqrdemo._csv_name(lam)),
                          "rb") as fh:
                    csvs.append(sha(fh.read()))
            digests = {name: sha(np.ascontiguousarray(
                getattr(trace, name), dtype=float).tobytes())
                for name in LQR_FIELDS}
            digests["csv"], digests["csv_rewritten"] = csvs
            rows.append({"lambda": lam, "sha256": digests})
    return rows


def dump(out):
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT,
                    os.path.join(ROOT, "tests")]
    from toscert import certify, sdpcore

    solves = []
    solve = sdpcore.solve_sdp

    def recorded(*args, **kwargs):
        sol = solve(*args, **kwargs)
        solves.append({
            "status": sol.status, "y": sol.y.tobytes().hex(),
            "iterations": sol.iterations,
            **{k: float(getattr(sol, k)).hex()
               for k in ("slack", "objective", "pres", "dres", "gap")}})
        return sol

    sdpcore.solve_sdp = recorded
    record = {}
    for name, ops, issued_by in _sections():
        rows = []
        for op in ops:
            del solves[:]
            issued = issued_by(op())
            certs = [x if isinstance(x, certify.RateCertificate) else None
                     for x in issued]
            rows.append({
                "solves": list(solves),
                "rates": _hex(x.rate() if c else x
                              for x, c in zip(issued, certs)),
                "lams": _hex(c and c.lam for c in certs),
                "margins": _hex(c and c.margin for c in certs)})
        record[name] = rows
        print(f"{name}: {len(rows)} operations, "
              f"{sum(len(r['solves']) for r in rows)} solves", flush=True)
    record[LQR_SECTION] = _lqr_traces()
    print(f"{LQR_SECTION}: {len(record[LQR_SECTION])} traces", flush=True)
    with open(out, "w") as fh:
        json.dump(record, fh)


def _change(a, b):
    """The absolute and relative change from hex rate a to b; inf between an
    issued rate and a refusal (None)."""
    if a is None or b is None:
        return (0.0, 0.0) if a == b else (math.inf, math.inf)
    a, b = float.fromhex(a), float.fromhex(b)
    change = abs(a - b)
    return change, change / abs(a) if a else (0.0 if a == b else math.inf)


def _compare(rows_a, rows_b, total):
    """Counts and rate changes of one section, also added into total.

    Returns the section's status transitions as (operation, solve, a, b).
    """
    count = Counter()
    moves = []
    unmatched = abs(len(rows_a) - len(rows_b))
    for op, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        missing = abs(len(ra["solves"]) - len(rb["solves"]))
        if all(r is None for r in ra["rates"] + rb["rates"]):
            count["dropped"] += missing
        else:
            unmatched += missing
        for k, (sa, sb) in enumerate(zip(ra["solves"], rb["solves"])):
            if sa == sb:
                count["same"] += 1
            elif sa["status"] == sb["status"]:
                count["bits"] += 1
                for key in SOLVE_FIELDS:
                    count["bits_" + key] += sa[key] != sb[key]
            else:
                moves.append((op, k, sa, sb))
        for side, row in zip("ab", (ra, rb)):
            for sol in row["solves"]:
                count["iters_" + side] += sol["iterations"]
                count["undecided_" + side] += sol["status"] in UNDECIDED
            count["issued_" + side] += sum(r is not None for r in row["rates"])
        pairs = list(zip(ra["rates"], rb["rates"]))
        count["rate_flips"] += any((a is None) != (b is None)
                                   for a, b in pairs)
        count["rate_bits"] += any(a != b for a, b in pairs
                                  if a is not None and b is not None)
        for a, b in pairs:
            change, rel = _change(a, b)
            count["worst"] = max(count["worst"], change)
            count["worst_rel"] = max(count["worst_rel"], rel)
        lams = [(a, b) for a, b in zip(ra.get("lams", []), rb.get("lams", []))
                if a is not None and b is not None]
        count["lam_bits"] += any(a != b for a, b in lams)
        for a, b in lams:
            count["worst_lam_rel"] = max(count["worst_lam_rel"],
                                         _change(a, b)[1])
        for a, b in zip(ra.get("margins", []), rb.get("margins", [])):
            if a is not None and b is not None and a != b:
                count["margin_bits"] += 1
                count["worst_margin"] = max(count["worst_margin"],
                                            _change(a, b)[0])
    count["moves"] = len(moves)
    count["unmatched"] = unmatched
    for key, value in count.items():
        if key.startswith("worst"):
            total[key] = max(total[key], value)
        else:
            total[key] += value
    return count, moves


def _report(name, c):
    print(f"{name}: {c['same']} identical, {c['bits']} differ only in bits, "
          f"{c['moves']} change status; iterations {c['iters_a']} -> "
          f"{c['iters_b']}; undecided {c['undecided_a']} -> "
          f"{c['undecided_b']}; issued {c['issued_a']} -> {c['issued_b']}; "
          f"largest rate change {c['worst']:.3g} "
          f"({c['worst_rel']:.3g} relative)")
    if c["bits"]:
        print("    of these, differing in " + ", ".join(
            f"{key} {c['bits_' + key]}" for key in SOLVE_FIELDS))
    if c["rate_bits"] or c["rate_flips"] or c["lam_bits"]:
        print(f"    issued rates differ in bits at {c['rate_bits']} "
              f"operations and flip between issued and refused at "
              f"{c['rate_flips']}; lambda differs in bits at "
              f"{c['lam_bits']} ({c['worst_lam_rel']:.3g} relative at most)")
    if c["margin_bits"]:
        print(f"    audit margins differ in bits at {c['margin_bits']} "
              f"certificates (largest change {c['worst_margin']:.3g})")
    if c["dropped"]:
        print(f"    {c['dropped']} solves missing at operations that refuse "
              f"on both sides")
    if c["unmatched"]:
        print(f"    {c['unmatched']} operations or solves have no counterpart")


def _compare_traces(rows_a, rows_b):
    """Print the identical and differing traces; True when all match."""
    same, differ = 0, []
    for ra, rb in zip(rows_a, rows_b):
        fields = [k for k in ra["sha256"]
                  if ra["sha256"][k] != rb["sha256"].get(k)]
        fields += [f"{side}'s rewritten csv"
                   for side, row in zip("ab", (ra, rb))
                   if row["sha256"].get("csv_rewritten")
                   != row["sha256"]["csv"]]
        if ra["lambda"] != rb["lambda"] or fields:
            differ.append((ra["lambda"], fields))
        else:
            same += 1
    unmatched = abs(len(rows_a) - len(rows_b))
    print(f"{LQR_SECTION}: {same} traces identical, {len(differ)} differ")
    for lam, fields in differ:
        print(f"    lambda {lam}: {', '.join(fields) or 'lambda'} differ")
    if unmatched:
        print(f"    {unmatched} traces have no counterpart")
    return not (differ or unmatched)


def diff(path_a, path_b):
    with open(path_a) as fh:
        rec_a = json.load(fh)
    with open(path_b) as fh:
        rec_b = json.load(fh)
    clean = True
    total = Counter()
    for name in rec_a:
        if name not in rec_b:
            print(f"{name}: missing from {path_b}")
            clean = False
            continue
        if name == LQR_SECTION:
            clean = _compare_traces(rec_a[name], rec_b[name]) and clean
            continue
        count, moves = _compare(rec_a[name], rec_b[name], total)
        _report(name, count)
        for op, k, sa, sb in moves:
            print(f"    operation {op} solve {k}: {sa['status']} in "
                  f"{sa['iterations']} -> {sb['status']} in "
                  f"{sb['iterations']} iterations")
        clean = clean and not (count["bits"] or moves or count["unmatched"]
                               or count["dropped"] or count["rate_bits"]
                               or count["rate_flips"] or count["lam_bits"]
                               or count["margin_bits"])
    _report("total", total)
    return 0 if clean else 1


def main(argv):
    if len(argv) == 2 and argv[0] == "dump":
        dump(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
