"""Workflow satisfiability toolkit.

Exact solvers built on step-partition patterns and constraint absorption,
pseudo-Boolean and CSP encoders, and a reproducible instance generator with
phase-transition calibration.
"""

from ._kernel import BACKEND as KERNEL_BACKEND
from .core import (
    ADA,
    AtLeast,
    AtMost,
    AuthorisationFunction,
    BoD,
    CapacityError,
    Constraint,
    Instance,
    InvariantError,
    SUAL,
    SoD,
    WL,
    WspError,
    is_authorised,
    is_eligible,
    is_ui,
    is_valid,
)
from .patterns import Pattern, bell, enumerate_patterns, pattern_of
from .solver import (
    Budget,
    SolveResult,
    Verdict,
    solve_backtracking,
    solve_bruteforce,
    solve_pattern_enum,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "ADA",
    "AtLeast",
    "AtMost",
    "AuthorisationFunction",
    "BoD",
    "Budget",
    "CapacityError",
    "Constraint",
    "Instance",
    "InvariantError",
    "KERNEL_BACKEND",
    "Pattern",
    "SUAL",
    "SoD",
    "SolveResult",
    "Verdict",
    "WL",
    "WspError",
    "__version__",
    "bell",
    "enumerate_patterns",
    "is_authorised",
    "is_eligible",
    "is_ui",
    "is_valid",
    "pattern_of",
    "solve_backtracking",
    "solve_bruteforce",
    "solve_pattern_enum",
    "verify",
]
