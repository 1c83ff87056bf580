"""posicert: search and exact verification of weighted sum-of-squares
certificates  f * g^n = sum_e s_e * h_1^{e_1} ... h_r^{e_r}  over the
rationals."""

from .poly import ExponentVector, Grading, Polynomial, sum_of_squared_variables
from .parsing import ParseError, ProblemSpec, format_polynomial, parse_polynomial, parse_problem
from .gram import (
    GramBlock,
    GramSystem,
    ParityInfeasible,
    SupportInfeasible,
    build_gram_system,
    reconstruct,
)
from .sdp import SdpProblem, SdpSolution, solve
from .exact import (
    Certificate,
    CertificateBlock,
    SquareTerm,
    VerifyResult,
    exact_ldlt,
    format_certificate,
    lift_certificate,
    parse_certificate,
    project_to_constraints,
    round_to_rational,
    verify_certificate,
)
from .driver import (
    PrecheckResult,
    ScanRecord,
    SearchOptions,
    SearchReport,
    certify,
    epsilon_margin,
    odd_power,
    positivity_precheck,
)

__all__ = [
    "Certificate",
    "CertificateBlock",
    "ExponentVector",
    "Grading",
    "GramBlock",
    "GramSystem",
    "ParityInfeasible",
    "ParseError",
    "Polynomial",
    "PrecheckResult",
    "ProblemSpec",
    "ScanRecord",
    "SdpProblem",
    "SdpSolution",
    "SearchOptions",
    "SearchReport",
    "SquareTerm",
    "SupportInfeasible",
    "VerifyResult",
    "build_gram_system",
    "certify",
    "epsilon_margin",
    "exact_ldlt",
    "format_certificate",
    "format_polynomial",
    "lift_certificate",
    "odd_power",
    "parse_certificate",
    "parse_polynomial",
    "parse_problem",
    "positivity_precheck",
    "project_to_constraints",
    "reconstruct",
    "round_to_rational",
    "solve",
    "sum_of_squared_variables",
    "verify_certificate",
]
