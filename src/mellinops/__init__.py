"""mellinops: exact operator algebras for the torus/difference correspondence,
truncated tail-series reductions, and quadrature verification harnesses."""

from .errors import (
    EvaluationFailure,
    IndexOutOfRange,
    MellinopsError,
    MixedAlgebra,
    NotSeparable,
    ParseError,
    PreconditionFailed,
    QuadratureFailure,
    SingularEvaluation,
    TruncationOverflow,
)
from .ore import Algebra, GenKind, Generator, OreOperator, normalize
from .shiftpoly import ShiftPolynomial
from .series import (
    Axis,
    INF_TYPE,
    TailSeries,
    ZERO_TYPE,
    shift_cycle,
)
from .koszul import (
    CongruenceResult,
    KoszulReport,
    induced_action_congruence,
    kernel_element,
    koszul_reduce,
    product_kernel,
    solve_inf,
    solve_zero,
)
from .transform import apply_difference, inverse_mellin_op, mellin_op
from .syntax import format_operator, parse
from .testfunctions import BUILTIN_NAMES, SFactor, TestFunction, build_builtin
from .numerics import (
    ExpansionResult,
    MomentTable,
    ResidualReport,
    asymptotic_remainder_check,
    cauchy_convolve,
    convolution_remainder,
    epsilon_commutation_check,
    haar_integral,
    moment_table,
    parameter_expansion,
    ray_mellin,
    stokes_identity_check,
    verify_commutation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
