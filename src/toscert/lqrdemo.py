"""Box-constrained finite-horizon optimal control solved by splitting.

The trajectory vector w stacks states then inputs,
w = [x_0 .. x_N, u_0 .. u_{N-1}], and the problem is
    minimize I_C(w) + I_D(w) + 0.5 w^T E w
with C the unit infinity-norm box on the inputs, D the affine set of
trajectories consistent with the dynamics and initial state, and
E = diag(Q, ..., Q, R, ..., R).

The projection onto D solves with a banded Cholesky factor of the block
tridiagonal Gram A_c A_c^T of the dynamics rows, factored once per
instance and applied by LAPACK dpbtrs, so a splitting step costs O(N n^2)
rather than a dense solve.
At the demo's default size (n = 20, m = 5, N = 20) the input box rarely
binds at the optimum: of instance seeds 0-30 only 18 and 21 saturate an
input.
"""

import json
import numbers
from dataclasses import dataclass

import numpy as np

from . import tos
from ._lapack import dpbtrf, dpbtrs


@dataclass(frozen=True)
class LqrInstance:
    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    r: np.ndarray
    horizon: int
    x_init: np.ndarray


@dataclass(frozen=True)
class TrajectoryLayout:
    n: int
    m: int
    horizon: int

    @property
    def dim(self):
        return (self.horizon + 1) * self.n + self.horizon * self.m

    def x_slice(self, t):
        return slice(t * self.n, (t + 1) * self.n)

    def u_slice(self, t):
        base = (self.horizon + 1) * self.n
        return slice(base + t * self.m, base + (t + 1) * self.m)

    def u_block(self):
        return slice((self.horizon + 1) * self.n, self.dim)


def build_instance(seed, n, m, horizon):
    """Random marginally stable instance, deterministic in the seed."""
    if min(n, m, horizon) < 1:
        raise ValueError("n, m, horizon must be >= 1")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a / max(np.abs(np.linalg.eigvals(a)))
    b = rng.standard_normal((n, m))
    mq = rng.standard_normal((n, n))
    q = mq.T @ mq
    mr = rng.standard_normal((m, m))
    r = mr.T @ mr + 0.1 * np.eye(m)
    x_init = rng.standard_normal(n)
    return LqrInstance(a, b, q, r, horizon, x_init)


def _gram_band(inst):
    """Upper band of the Gram A_c A_c^T, in LAPACK's dpbtrf layout.

    The Gram is block tridiagonal: I, then I + A A^T + B B^T on the diagonal
    and -A below it, so its upper bandwidth is 2n - 1.
    """
    n, horizon = inst.a.shape[0], inst.horizon
    rows = (horizon + 1) * n
    gram = np.zeros((rows, rows))
    gram[:n, :n] = np.eye(n)
    inner = np.eye(n) + inst.a @ inst.a.T + inst.b @ inst.b.T
    for t in range(horizon):
        blk = slice((t + 1) * n, (t + 2) * n)
        gram[blk, blk] = inner
        gram[t * n:(t + 1) * n, blk] = -inst.a.T
    width = 2 * n - 1
    band = np.zeros((width + 1, rows))
    for k in range(width + 1):
        band[width - k, k:] = np.diagonal(gram, k)
    return band


def assemble_oracles(inst):
    """Splitting oracles: input-box prox, dynamics projection, gradient of h.

    All three work on the state and input blocks of w, without E or A_c.
    Returns (oracle, layout, l_h), l_h the Lipschitz constant of grad_h.
    """
    a, b, q, r, x_init = inst.a, inst.b, inst.q, inst.r, inst.x_init
    n, m, horizon = a.shape[0], b.shape[1], inst.horizon
    layout = TrajectoryLayout(n, m, horizon)
    # the band is checked for finite values once; each solve checks its rhs
    gram_chol, info = dpbtrf(np.asarray_chkfinite(_gram_band(inst)))
    if info != 0:
        raise np.linalg.LinAlgError(f"dpbtrf of the Gram failed (info {info})")
    ublock = layout.u_block()

    def blocks(w):
        """Views of w as the (horizon + 1) x n states and horizon x m inputs."""
        return (w[:ublock.start].reshape(horizon + 1, n),
                w[ublock].reshape(horizon, m))

    def prox_f(alpha, w):
        out = np.asarray(w, dtype=float).copy()
        out[ublock] = np.clip(out[ublock], -1.0, 1.0)
        return out

    def prox_g(alpha, w):
        # w - A_c^T (A_c A_c^T)^{-1} (A_c w - b_c)
        xs, us = blocks(w)
        res = np.empty_like(xs)
        res[0] = xs[0] - x_init
        res[1:] = xs[1:] - xs[:-1] @ a.T - us @ b.T
        if not np.isfinite(res).all():
            raise ValueError("array must not contain infs or NaNs")
        ys, info = dpbtrs(gram_chol, res.ravel())
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrs")
        ys = ys.reshape(horizon + 1, n)
        x_out = xs - ys
        x_out[:-1] += ys[1:] @ a
        return np.concatenate((x_out.ravel(), (us + ys[1:] @ b).ravel()))

    # the last gradient and the array it was taken at: tos.run asks for the
    # objective at the very x_B whose gradient its step has just formed.
    # Holding w itself keeps the identity test sound; w must not change in
    # place between grad_h(w) and objective(w).
    last = [None, None]

    def grad_h(w):
        xs, us = blocks(w)
        g = np.concatenate(((xs @ q.T).ravel(), (us @ r.T).ravel()))
        last[:] = w, g
        return g

    l_h = max(np.linalg.norm(q, 2), np.linalg.norm(r, 2))

    def objective(w):
        g = last[1] if last[0] is w else grad_h(w)
        return 0.5 * float(w @ g)

    oracle = tos.OperatorOracle(
        prox_f=prox_f, prox_g=prox_g, grad_h=grad_h, objective=objective)
    return oracle, layout, l_h


def _csv_name(lam):
    return f"trace_lambda_{lam:g}.csv"


def check_sweep(lambdas, iter_budget):
    """Reject a sweep whose lambdas do not all lie in (0, 2), whose budget is
    not a whole number of steps, at least one, or two of whose lambdas share
    a CSV name."""
    if not all(0 < lam < 2 for lam in lambdas):
        raise ValueError("every lambda must lie in (0, 2)")
    names = [_csv_name(lam) for lam in lambdas]
    if len(set(names)) < len(names):
        raise ValueError("two lambdas share the trace file name "
                         f"{max(names, key=names.count)}")
    if not (isinstance(iter_budget, numbers.Integral) and iter_budget >= 1):
        raise ValueError("the iteration budget must be an integer >= 1")


def run_sweep(inst, lambdas, iter_budget, out_dir=None):
    """One run per lambda at alpha = (2 - lambda)/L_h; optional CSV export.

    With out_dir, each run's trace_lambda_*.csv and then summary.json are
    written there. Files from an earlier sweep are replaced, not truncated
    in place: a hard link keeps the old content, a symlink is written
    through. Truncating them stalled a rewrite for tens of ms on ext4
    (see `tos._open_new`).
    """
    check_sweep(lambdas, iter_budget)
    oracle, layout, l_h = assemble_oracles(inst)
    z0 = np.zeros(layout.dim)
    results = []
    for lam in lambdas:
        alpha = (2.0 - lam) / l_h
        config = tos.TosConfig(alpha=alpha, lam=lam, max_iter=iter_budget)
        trace = tos.run(oracle, z0, config)
        min_r2 = float(np.min(trace.residual_norm2))
        results.append({
            "lambda": lam,
            "alpha": alpha,
            "final_min_residual2": min_r2,
            "iterations": len(trace.residual_norm2),
            "trace": trace,
        })
        if out_dir is not None:
            trace.to_csv(f"{out_dir}/{_csv_name(lam)}")
    if out_dir is not None:
        summary = [{k: v for k, v in rec.items() if k != "trace"}
                   for rec in results]
        with tos._open_new(f"{out_dir}/summary.json") as fh:
            json.dump(summary, fh, indent=2)
    return results
