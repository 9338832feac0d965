"""The sublinear rate programs on their faces, as the IPM would solve them.

`certify` solves the residual and objective LMIs in closed form and builds
no program for them. These builders keep the programs for the tests and
for `tools/parity.py`: the IPM's Farkas path runs on the objective
programs that `certify_objective_rate` refuses without a solve, and the
closed forms are checked against the programs and their solves. They are
assembled by `certify._program`, as the linear primal and its dual are.

The face (every m = 0): each selector maps v = (1, 1, 1, 1) to (alpha, 0),
so Q_i v = (alpha / 2) r_i with r_i the integer second row of S_i, and
FACE_FOLD, the integer left inverse of [r_1 r_2 r_3], fixes sigma from
M v = 0. FACE_BASIS spans v-perp; the residual program also annihilates
w = (0, -1, 0, 1), and RESIDUAL_BASIS is an orthonormal basis of
{v, w}-perp.
"""

import math

import numpy as np

from toscert import certify
from toscert.lmikit import (RELAX_LIN, RELAX_P, RegularityClass,
                            build_qc_triplet, relaxation, w1_slope)

FACE_FOLD = np.array([[0, -1, -1, 1], [0, -1, -1, 0], [0, 0, -1, 0]])
FACE_BASIS = np.array([[1, 1, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]], float)
RESIDUAL_BASIS = (np.array([[1, 0, -1, 0], [1, -1, 1, -1]]).T
                  / [math.sqrt(2.0), 2.0])


def face_sigma(alpha, w):
    """-(2 / alpha) FACE_FOLD W v, the sigma with (W + sum sigma_i Q_i) v = 0.

    It takes no float literal, so it is exact for Fraction alpha and W.
    """
    return -(2 / alpha) * (FACE_FOLD @ w.sum(axis=1))


def face_program(rate, alpha, classes, basis, lam=None):
    """max t with t rate + R(lam) + sum s_i Q_i <= 0, as a LinearSdp on basis.

    R(lam) = lmikit.relaxation(lam); a pinned lam puts it in the constant,
    and lam=None makes it a variable (the joint form of certify._program).
    M v = 0 fixes s = S (1, t[, lam]) by face_sigma; S is folded into the
    coefficients, and s >= 0 and t >= 0 sit on the diagonal. Returns the
    program and a map from its solution to (t, lam, s).
    """
    qs = build_qc_triplet(alpha, classes.f, classes.g, classes.h)
    joint = lam is None
    const = np.zeros((4, 4))
    coefs = ([const, rate, RELAX_LIN] if joint
             else [const + relaxation(lam), rate])
    n0 = len(coefs)
    fold = np.column_stack([face_sigma(alpha, w) for w in coefs])
    coefs = [w + sum(s * q for s, q in zip(col, qs))
             for w, col in zip(coefs, fold.T)]
    rows = np.zeros((n0, len(fold) + 1))
    rows[:, :-1] = -fold.T
    rows[1, -1] = -1.0
    c = np.zeros(n0 - 1)
    c[0] = -1.0
    prob = certify._program(c, coefs, rows, basis, joint)

    def unpack(sol):
        t = float(sol.y[0])
        lam_out = (float(min(max(sol.y[1], certify.LAM_MIN), certify.LAM_MAX))
                   if joint else lam)
        sigma = fold @ np.array([1.0, t, lam_out][:n0])
        return t, lam_out, tuple(float(s) for s in sigma)
    return prob, unpack


def residual_program(alpha, lam, classes):
    """The residual-rate program on RESIDUAL_BASIS and its unpack map."""
    return face_program(1.0 / alpha ** 2 * RELAX_P, alpha, classes,
                        RESIDUAL_BASIS, lam)


def objective_program(alpha, Lf, Lh):
    """The objective-rate program on FACE_BASIS, its unpack map and its
    classes (f with L = Lf, nonsmooth g, h with L = Lh, every m = 0)."""
    classes = certify.ProblemClasses(RegularityClass(0.0, Lf),
                                     RegularityClass(0.0, math.inf),
                                     RegularityClass(0.0, Lh))
    prob, unpack = face_program(w1_slope(alpha, Lf, Lh), alpha, classes,
                                FACE_BASIS)
    return prob, unpack, classes
