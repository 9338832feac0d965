"""Three-operator splitting iteration with oracles and tracing.

One step reads
    x_B = prox_{alpha g}(z)
    y   = 2 x_B - z - alpha grad_h(x_B)
    x_A = prox_{alpha f}(y)
    z'  = z + lam (x_A - x_B)
and the optimality residual along iterates is (x_B - x_A)/alpha.

A run records z_0 and, per step, x_B and x_A as the oracles returned them,
the squared residual norm and the objective at x_B. The iterates z_k are
not stored: z' depends only on z, x_B and x_A, so `IterateTrace.z` replays
the update from z_0 with `relax`, the function `tos_step` applies. Its
operations are elementwise and run in the same order, so the replayed z_k
are bitwise the ones the run stepped through.
"""

import csv
import math
import numbers
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from ._lapack import dpotrf, dpotrs


@dataclass(frozen=True)
class OperatorOracle:
    """prox_f(alpha, x), prox_g(alpha, x), grad_h(x), optional objective(x)."""
    prox_f: callable
    prox_g: callable
    grad_h: callable
    objective: callable = None


@dataclass(frozen=True)
class TosConfig:
    alpha: float
    lam: float
    max_iter: int = 1000
    residual_tol: float = 0.0

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.lam < math.inf):
            raise ValueError("alpha and lam must be positive and finite")
        if not (isinstance(self.max_iter, numbers.Integral)
                and self.max_iter >= 1):
            raise ValueError("max_iter must be an integer >= 1")
        if not self.residual_tol >= 0:  # NaN fails it too
            raise ValueError("residual_tol must be >= 0")


def _open_new(path, newline=None):
    """Open path for writing as a new file; every file toscert writes goes
    through here.

    A regular file already at path is removed first, so an old output is
    replaced, not truncated in place: a hard link to it keeps the old bytes,
    and the new file takes the default permissions. A symlink is written
    through to its target; a directory or a missing path behaves as under
    open alone. Why: on ext4 mounted with discard, truncating a rewritten
    output in place stalled for tens of ms a call (medians up to 55 ms),
    where removing it first took under a millisecond.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except OSError:  # missing, or not removable: open decides, as before
        pass
    return open(path, "w", newline=newline)


def relax(z, x_b, x_a, lam):
    """The splitting update z + lam (x_A - x_B)."""
    return z + lam * (x_a - x_b)


@dataclass
class IterateTrace:
    """What a run records: the start z0, and for step k the prox outputs
    x_b[k] and x_a[k], residual_norm2[k] and, when the oracle has one,
    objective[k] at x_b[k].

    The iterates z are formed from these on demand (see `z`).
    """
    alpha: float
    lam: float
    z0: np.ndarray = None
    x_b: list = field(default_factory=list)
    x_a: list = field(default_factory=list)
    residual_norm2: list = field(default_factory=list)
    objective: list = field(default_factory=list)

    @property
    def z(self):
        """The iterates z_0 .. z_K of K recorded steps, one row each, replayed
        from z0 by `relax`; empty when no start is recorded."""
        if self.z0 is None:
            return np.empty(0)
        zs = np.empty((len(self.x_b) + 1, *np.shape(self.z0)))
        zs[0] = self.z0
        for k, (x_b, x_a) in enumerate(zip(self.x_b, self.x_a)):
            zs[k + 1] = relax(zs[k], x_b, x_a, self.lam)
        return zs

    def gap_norm2(self):
        """Per-iteration ||x_B - x_A||^2."""
        return [self.alpha ** 2 * r for r in self.residual_norm2]

    def to_csv(self, path, zstar=None):
        """Write one CSV row a step to path. A file there is replaced, not
        truncated in place: a hard link keeps the old content, a symlink is
        written through (truncation stalled on ext4; see `_open_new`)."""
        zs = None if zstar is None else np.asarray(self.z)
        with _open_new(path, newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "residual_norm2", "min_residual_norm2_so_far",
                        "dist_to_zstar2", "objective"])
            running = math.inf
            for k, r2 in enumerate(self.residual_norm2):
                running = min(running, r2)
                dist2 = ""
                if zstar is not None:
                    dist2 = float(((zs[k] - zstar) ** 2).sum())
                obj = self.objective[k] if k < len(self.objective) else ""
                if obj is None:
                    obj = ""
                w.writerow([k, r2, running, dist2, obj])


def residual(x_b, x_a, alpha):
    """Optimality residual (x_B - x_A)/alpha."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return (np.asarray(x_b, float) - np.asarray(x_a, float)) / alpha


def tos_step(z, oracle, config):
    """One splitting step; returns (z_next, record of intermediates)."""
    alpha, lam = config.alpha, config.lam
    x_b = oracle.prox_g(alpha, z)
    y = 2.0 * x_b - z - alpha * oracle.grad_h(x_b)
    x_a = oracle.prox_f(alpha, y)
    z_next = relax(z, x_b, x_a, lam)
    if not np.isfinite(z_next).all():
        raise FloatingPointError("oracle produced non-finite values")
    return z_next, (x_b, y, x_a)


def run(oracle, z0, config):
    """Iterate until the residual norm drops below residual_tol or max_iter."""
    z = np.asarray(z0, dtype=float).copy()
    if not np.isfinite(z).all():
        raise ValueError("z0 must be finite")
    trace = IterateTrace(alpha=config.alpha, lam=config.lam, z0=z)
    for _ in range(config.max_iter):
        z_next, (x_b, _, x_a) = tos_step(z, oracle, config)
        r = residual(x_b, x_a, config.alpha)
        rnorm2 = float(r @ r)
        trace.x_b.append(x_b)
        trace.x_a.append(x_a)
        trace.residual_norm2.append(rnorm2)
        if oracle.objective is not None:
            trace.objective.append(oracle.objective(x_b))
        z = z_next
        if math.sqrt(rnorm2) <= config.residual_tol:
            break
    return trace


def find_fixed_point(oracle, z0, config, tol=1e-12, max_iter=None):
    """Reference fixed point via a long, trace-free run."""
    z = np.asarray(z0, dtype=float).copy()
    budget = max_iter if max_iter is not None else 100 * config.max_iter
    for _ in range(budget):
        z_next, (x_b, _, x_a) = tos_step(z, oracle, config)
        z = z_next
        if np.linalg.norm(x_b - x_a) / config.alpha <= tol:
            break
    return z


class BoxProx:
    """Projection onto the centered infinity-norm ball of given radius."""

    def __init__(self, radius):
        if not radius >= 0:
            raise ValueError("radius must be nonnegative")
        self.radius = radius

    def __call__(self, alpha, x):
        return np.clip(x, -self.radius, self.radius)


class L1Prox:
    """Soft thresholding by alpha times the weight."""

    def __init__(self, weight):
        if not weight >= 0:
            raise ValueError("weight must be nonnegative")
        self.weight = weight

    def __call__(self, alpha, x):
        t = alpha * self.weight
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


class ZeroProx:
    """Identity map, the prox of the zero function."""

    def __call__(self, alpha, x):
        return np.asarray(x, dtype=float).copy()


def _cho_factor(m):
    """Upper dpotrf factor of a finite square m, as scipy's cho_factor."""
    c, info = dpotrf(np.asarray_chkfinite(m), clean=0)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    return c


def _cho_solve(c, rhs):
    """Solve with the upper factor c of _cho_factor, as scipy's cho_solve:
    rhs must be finite, with as many rows as c."""
    rhs = np.asarray_chkfinite(rhs)
    if rhs.shape[:1] != c.shape[1:]:
        raise ValueError(f"incompatible dimensions ({c.shape} and {rhs.shape})")
    x, info = dpotrs(c, rhs)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


class AffineSubspaceProx:
    """Projection onto {x : A x = b} via cached normal equations."""

    def __init__(self, a, b):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape[0] != b.size:
            raise ValueError("incompatible constraint shapes")
        try:
            self._chol = _cho_factor(a @ a.T)
        except np.linalg.LinAlgError as exc:
            raise ValueError("degenerate constraint rows") from exc
        self.a = a
        self.b = b

    def __call__(self, alpha, x):
        return x - self.a.T @ _cho_solve(self._chol, self.a @ x - self.b)


class QuadraticProx:
    """Prox of 0.5 x^T P x + q^T x with a cached factorization per alpha."""

    def __init__(self, p, q=None):
        p = np.asarray(p, dtype=float)
        self.q = np.zeros(len(p)) if q is None else np.asarray(q, float)
        if p.shape != (len(p), len(p)) or self.q.shape != (len(p),):
            raise ValueError("p must be square and q a vector of its size")
        self.p = 0.5 * (p + p.T)
        self._cache = {}

    def __call__(self, alpha, x):
        key = float(alpha)
        if key not in self._cache:
            self._cache[key] = _cho_factor(
                np.eye(self.p.shape[0]) + alpha * self.p)
        return _cho_solve(self._cache[key], x - alpha * self.q)


def grad_eval(e, x):
    """Gradient of the quadratic 0.5 x^T E x."""
    e = np.asarray(e, dtype=float)
    x = np.asarray(x, dtype=float)
    if e.shape[1] != x.shape[0]:
        raise ValueError("dimension mismatch")
    return e @ x
