"""Two-step symmetric Norlund-sum calculus.

Forward and backward difference operators, Norlund-sum integrals with
strict (infinite series) and telescoped (exact finite sum) evaluation,
the two-sided symmetric integral, and numerical verifiers for the
calculus identities and integral inequalities.
"""

from .errors import (
    BadExponentError,
    DomainFaultError,
    ExprSyntaxError,
    HypothesisFailedError,
    NegativeWeightError,
    NonFiniteTermError,
    NonFiniteValueError,
    NorlundError,
    NotAlignedError,
    NotIntegrableError,
    UnknownIdentifierError,
    ZeroStepError,
)
from .expr import evaluate as evaluate_expr
from .expr import format as format_expr
from .expr import parse as parse_expr
from .inequalities import (
    InequalityReport,
    MvtReport,
    cauchy_schwarz_check,
    comparison_check,
    holder_check,
    minkowski_check,
    mvt_constant,
)
from .integrals import (
    IntegralMode,
    IntegralResult,
    antiderivative,
    backward_integral,
    backward_integral_from_minus_infinity,
    forward_integral,
    forward_integral_to_infinity,
    ftc_residuals,
    integration_by_parts_residual,
    symmetric_integral,
    zero_extension,
)
from .operators import (
    EPS_GRID,
    GridAlignment,
    GridDirection,
    RealFunction,
    StepPair,
    backward_difference,
    forward_difference,
    grid_align,
    symmetric_difference,
)
from .series import SeriesConfig, SeriesResult, Verdict, sum_series

__version__ = "0.1.0"

__all__ = [
    "BadExponentError",
    "DomainFaultError",
    "EPS_GRID",
    "ExprSyntaxError",
    "GridAlignment",
    "GridDirection",
    "HypothesisFailedError",
    "InequalityReport",
    "IntegralMode",
    "IntegralResult",
    "MvtReport",
    "NegativeWeightError",
    "NonFiniteTermError",
    "NonFiniteValueError",
    "NorlundError",
    "NotAlignedError",
    "NotIntegrableError",
    "RealFunction",
    "SeriesConfig",
    "SeriesResult",
    "StepPair",
    "UnknownIdentifierError",
    "Verdict",
    "ZeroStepError",
    "antiderivative",
    "backward_difference",
    "backward_integral",
    "backward_integral_from_minus_infinity",
    "cauchy_schwarz_check",
    "comparison_check",
    "evaluate_expr",
    "format_expr",
    "forward_difference",
    "forward_integral",
    "forward_integral_to_infinity",
    "ftc_residuals",
    "grid_align",
    "holder_check",
    "integration_by_parts_residual",
    "minkowski_check",
    "mvt_constant",
    "parse_expr",
    "symmetric_difference",
    "symmetric_integral",
    "sum_series",
    "zero_extension",
]
