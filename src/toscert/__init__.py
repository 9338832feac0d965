"""Solver and worst-case rate certifier for three-operator splitting."""

from .lmikit import RegularityClass
from .certify import (CertificationError, ProblemClasses, RateCertificate,
                      certify_linear_rate, certify_objective_rate,
                      certify_residual_rate, check_assumption1,
                      dual_linear_rate, empirical_lyapunov_check,
                      sweep_alpha, symbolic_sublinear)
from .sdpcore import LinearSdp, SdpSolution, feasibility_margin, solve_sdp
from .tos import IterateTrace, OperatorOracle, TosConfig, run, tos_step

__all__ = [
    "CertificationError", "IterateTrace", "LinearSdp", "OperatorOracle",
    "ProblemClasses", "RateCertificate", "RegularityClass", "SdpSolution",
    "TosConfig", "certify_linear_rate", "certify_objective_rate",
    "certify_residual_rate", "check_assumption1",
    "dual_linear_rate", "empirical_lyapunov_check", "feasibility_margin",
    "run", "solve_sdp", "sweep_alpha", "symbolic_sublinear", "tos_step",
]
