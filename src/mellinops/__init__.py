"""mellinops: exact operator algebras for the torus/difference correspondence,
truncated tail-series reductions, and quadrature verification harnesses.

``import mellinops`` loads what ``transform`` and ``parse`` run: the errors,
the operator algebras and the correspondence.  Every other module, the shift
polynomials and tail-series reductions (``shiftpoly``, ``series``,
``koszul``) and the numeric layer (``testfunctions``, ``quadrature``,
``numerics``, and numpy with them), loads on the first access to one of its
names (PEP 562), as listed in ``_DEFERRED``.
"""

from importlib import import_module as _import_module

from .errors import (
    MellinopsError,
    MixedAlgebra,
    ParseError,
    PreconditionFailed,
    QuadratureFailure,
    TruncationOverflow,
)
from .ore import Algebra, GenKind, Generator, OreOperator, normalize
from .transform import apply_difference, inverse_mellin_op, mellin_op
from .syntax import format_operator, parse

__version__ = "0.1.0"

# exported name -> the module that defines it; a module name maps to itself
_DEFERRED = {
    **dict.fromkeys(("shiftpoly", "ShiftPolynomial"), "shiftpoly"),
    **dict.fromkeys(("series", "Axis", "INF_TYPE", "TailSeries", "ZERO_TYPE", "shift_cycle"),
                    "series"),
    **dict.fromkeys(("koszul", "CongruenceResult", "KoszulReport", "induced_action_congruence",
                     "kernel_element", "koszul_reduce", "solve_inf", "solve_zero"), "koszul"),
    "BUILTIN_NAMES": "cli",
    **dict.fromkeys(("testfunctions", "SFactor", "TestFunction", "build_builtin"),
                    "testfunctions"),
    "quadrature": "quadrature",
    **dict.fromkeys(("numerics", "ExpansionResult", "MomentTable", "ResidualReport",
                     "asymptotic_remainder_check", "cauchy_convolve", "convolution_remainder",
                     "epsilon_commutation_check", "haar_integral", "moment_table",
                     "parameter_expansion", "ray_mellin", "stokes_identity_check",
                     "verify_commutation"), "numerics"),
}

__all__ = [name for name in dir() if not name.startswith("_")] + list(_DEFERRED)


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_DEFERRED[name]}", __name__)
    return module if name == _DEFERRED[name] else getattr(module, name)
