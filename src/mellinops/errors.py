"""Exception types shared across the package."""


class MellinopsError(Exception):
    """Base class for all package errors."""


class MixedAlgebra(MellinopsError):
    """Operands live in different algebras (or incompatible arities)."""


class IndexOutOfRange(MellinopsError):
    """A generator index exceeds the declared number of variables."""


class TruncationOverflow(MellinopsError):
    """A series exponent falls outside the configured truncation window."""


class ParseError(MellinopsError):
    """Malformed operator text.  ``offset`` is the byte offset of the fault."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvaluationFailure(MellinopsError):
    """A grid function could not be evaluated at a required point."""


class QuadratureFailure(MellinopsError):
    """A quadrature error estimate exceeded the requested tolerance."""


class SingularEvaluation(MellinopsError):
    """Evaluation requested at a non-removable singular point."""


class PreconditionFailed(MellinopsError):
    """A guard check (e.g. numeric annihilation) did not hold."""
