"""Calculus for real-analytic functions of a quaternionic variable: a
first-order differential built from the slice decomposition, staircase path
integration with convergence studies, branch-tracked integration of ln, and
a verification suite for the identities these constructions satisfy.
"""

from .differential import (conjugate_quotient, differential,
                           differential_reference, sym_product_sum)
from .errors import (DegenerateSliceError, DomainError, MissingReferenceError,
                     QintError, SliceEscapeError, StepTooCoarseError,
                     UnsupportedFunctionError, ZeroDivisorError)
from .functions import (AnalyticFunction, Monomial, NamedFunction, PowerSeries,
                        Scaled, antiderivative, parse_function)
from .integrate import (IntegrationReport, convergence_study, endpoint_reference,
                        integrate, integrate_slice_quadrature,
                        integrate_with_branch_tracking)
from .paths import Line, Path, PolyLine, SliceCircle, parse_path
from .quaternion import I, J, K, ONE, ZERO, Quaternion
from .slices import (UnitImaginary, decompose_delta, eval_derivative, eval_function,
                     perp_quotient, slice_point)
from .suite import run_suite
from .verify import (CheckReport, Tolerances, inverse_ftc_residual,
                     tolerances_from_env, verify_antiderivative_map,
                     verify_ftc_forward, verify_ftc_inverse,
                     verify_integration_by_parts)

__version__ = "0.1.0"

# The API the README documents, plus the types it takes to call it and what
# it returns or raises. The other imports above are public helpers that the
# tests and scripts read.
__all__ = [
    "differential", "integrate", "integrate_slice_quadrature",
    "integrate_with_branch_tracking", "run_suite", "verify_antiderivative_map",
    "verify_ftc_forward", "verify_ftc_inverse", "verify_integration_by_parts",
    "AnalyticFunction", "Line", "Monomial", "NamedFunction", "Path", "PolyLine",
    "PowerSeries", "Quaternion", "Scaled", "SliceCircle", "Tolerances",
    "UnitImaginary", "parse_function", "parse_path",
    "CheckReport", "IntegrationReport", "QintError",
]
