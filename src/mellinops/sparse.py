"""The additive structure shared by the exact value types, and their scalar.

A :class:`SparseSum` is an immutable map ``terms`` from keys to nonzero
coefficients, each the one exact scalar of :func:`rational` (an ``int`` when
integral, else a ``Fraction``), in a space fixed by a shape.  Subclasses
supply four hooks: ``_shape()`` (compared by ``==``), ``_like(terms)`` (a
value of the same shape; zero terms drop), ``_lift(value)`` (a rational scalar
in the same space, or ``NotImplemented``) and ``_compatible(other)`` (raises
the class's own error when ``other``, of the same class, cannot be combined
with this one).
"""

from __future__ import annotations

from fractions import Fraction

RATIONALS = (int, Fraction)  # the types that rational() accepts


def rational(x):
    """x as the one exact scalar: an int (a bool or a Fraction with denominator
    1 becomes one), or a non-integral Fraction; anything else raises TypeError."""
    if not isinstance(x, RATIONALS):
        raise TypeError(f"exact rational expected, got {type(x).__name__}")
    return int(x) if x.denominator == 1 else x


class SparseSum:
    __slots__ = ("terms",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"{type(self).__name__} expected, got {type(other).__name__}")
        self._compatible(other)

    def __add__(self, other):
        if isinstance(other, RATIONALS):
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        else:
            self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            prev = terms.get(key)
            terms[key] = coeff if prev is None else prev + coeff
        return self._like(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value):
        value = rational(value)
        return self._like({k: c * value for k, c in self.terms.items()})

    def __pow__(self, n):
        out = self._lift(1)
        if out is NotImplemented:
            return NotImplemented
        if n < 0:
            raise ValueError("negative power")
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, RATIONALS):
            other = self._lift(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._shape() == other._shape() and self.terms == other.terms

    def __hash__(self):
        if len(self.terms) <= 1:
            c = next(iter(self.terms.values()), 0)
            if self == c:  # equal to its scalar, so it must hash like it
                return hash(c)
        return hash((self._shape(), frozenset(self.terms.items())))
