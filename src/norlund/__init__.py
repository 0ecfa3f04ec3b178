"""Two-step symmetric Norlund-sum calculus.

Forward and backward difference operators, Norlund-sum integrals with
strict (infinite series) and telescoped (exact finite sum) evaluation,
the two-sided symmetric integral, and numerical verifiers for the
calculus identities and integral inequalities.
"""

from . import errors, inequalities, integrals, operators, series
from .errors import *  # noqa: F401,F403
from .expr import evaluate as evaluate_expr, format as format_expr, parse as parse_expr
from .inequalities import *  # noqa: F401,F403
from .integrals import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [*errors.__all__, *inequalities.__all__, *integrals.__all__, *operators.__all__,
           *series.__all__, "evaluate_expr", "format_expr", "parse_expr"]
