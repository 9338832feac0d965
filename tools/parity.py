"""Record every SDP solve of the certificate workloads, and compare two records.

    python3 tools/parity.py dump OUT.json     # solves made by this tree
    python3 tools/parity.py diff A.json B.json

`dump` imports `toscert` from `src/` of the tree this file sits in and
wraps `sdpcore.solve_sdp`. It then runs the operations of
`objective-surface` at seeds 0-3 and of `linear-duality` at seed 0, with
inputs from `perfbench.workloads`, and the residual-rate grid (lambda
joint, 0.5, 1.0 and 1.5 over the surface's stepsizes). For each solve it
writes the status, the bytes of y, the iteration count, the audit slack,
the objective and the residuals pres, dres and gap. For each operation it
writes the rates issued (None for a refusal).

`diff` matches solves by section, operation and order within the
operation, and prints, per section: how many are identical, how many
differ only in their bits (same status), each status transition, the
total iterations, the certificates issued and the largest change in an
issued rate. It exits 1 when any solve differs.

To compare two commits, copy this file into a checkout of each and run
`dump` there.
"""

import json
import math
import os
import sys
from collections import Counter

# fixed before numpy loads, as the benchmark fixes it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SURFACE_SEEDS = (0, 1, 2, 3)
RESIDUAL_LAMBDAS = (None, 0.5, 1.0, 1.5)


def _sections():
    """(name, operations, rates) for every section.

    The operations are zero-argument callables; rates maps an operation's
    outcome to the rates it issued, None where it refused.
    """
    from perfbench import workloads
    from toscert import certify

    def theta(cert):
        return [None if cert is None else cert.theta]

    for seed in SURFACE_SEEDS:
        yield (f"objective-surface/{seed}",
               workloads.ObjectiveSurface(seed).operations(),
               lambda outcome: theta(outcome[1]))
    yield ("linear-duality/0", workloads.LinearDuality(0).operations(),
           lambda outcome: [None if c is None else c.rho2
                            for c in (outcome["joint"], outcome["pinned"])])
    case1 = certify._case1_classes(1.0)
    alphas = workloads.seeded_grid(*workloads.SURFACE_ALPHAS, 0)

    def residual(alpha, lam):
        return lambda: workloads._certify_or_none(
            certify.certify_residual_rate, alpha, lam, case1)
    yield ("residual-grid", [residual(a, lam) for lam in RESIDUAL_LAMBDAS
                             for a in alphas], theta)


def dump(out):
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from toscert import sdpcore

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
    for name, ops, rates in _sections():
        rows = []
        for op in ops:
            del solves[:]
            issued = rates(op())
            rows.append({"rates": [None if r is None else float(r).hex()
                                   for r in issued],
                         "solves": list(solves)})
        record[name] = rows
        print(f"{name}: {len(rows)} operations, "
              f"{sum(len(r['solves']) for r in rows)} solves", flush=True)
    with open(out, "w") as fh:
        json.dump(record, fh)


def _compare(rows_a, rows_b):
    """Counts and rate changes of one section between two records."""
    same = bits = 0
    moves = Counter()
    iters = [0, 0]
    issued = [0, 0]
    worst = 0.0
    unmatched = abs(len(rows_a) - len(rows_b))
    for ra, rb in zip(rows_a, rows_b):
        unmatched += abs(len(ra["solves"]) - len(rb["solves"]))
        for sa, sb in zip(ra["solves"], rb["solves"]):
            if sa == sb:
                same += 1
            elif sa["status"] == sb["status"]:
                bits += 1
            else:
                moves[sa["status"], sb["status"]] += 1
        for side, row in enumerate((ra, rb)):
            iters[side] += sum(s["iterations"] for s in row["solves"])
            issued[side] += sum(r is not None for r in row["rates"])
        for a, b in zip(ra["rates"], rb["rates"]):
            if a is not None and b is not None:
                worst = max(worst, abs(float.fromhex(a) - float.fromhex(b)))
            elif (a is None) != (b is None):
                worst = math.inf
    return same, bits, moves, iters, issued, worst, unmatched


def diff(path_a, path_b):
    with open(path_a) as fh:
        rec_a = json.load(fh)
    with open(path_b) as fh:
        rec_b = json.load(fh)
    clean = True
    for name in rec_a:
        if name not in rec_b:
            print(f"{name}: missing from {path_b}")
            clean = False
            continue
        same, bits, moves, iters, issued, worst, unmatched = _compare(
            rec_a[name], rec_b[name])
        print(f"{name}: {same} identical, {bits} differ only in bits, "
              f"{sum(moves.values())} change status; iterations "
              f"{iters[0]} -> {iters[1]}; issued {issued[0]} -> {issued[1]}; "
              f"largest rate change {worst:.3g}")
        for (sa, sb), count in sorted(moves.items()):
            print(f"    {sa} -> {sb}: {count}")
        if unmatched:
            print(f"    {unmatched} operations or solves have no counterpart")
        clean = clean and not (bits or moves or unmatched)
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
