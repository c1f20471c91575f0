"""Exception types shared across the package, one per CLI exit code 2 to 6."""


class MellinopsError(Exception):
    """Base class for all package errors."""


class ParseError(MellinopsError):
    """Malformed operator text.  ``offset`` is the byte offset of the fault."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class MixedAlgebra(MellinopsError):
    """Operands live in different algebras or arities, or an index lies outside 1..arity."""


class TruncationOverflow(MellinopsError):
    """A series exponent falls outside the configured truncation window."""


class PreconditionFailed(MellinopsError):
    """A guard check (e.g. numeric annihilation) did not hold."""


class QuadratureFailure(MellinopsError):
    """An error estimate exceeded its tolerance, or a function failed at a needed point."""
