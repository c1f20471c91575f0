"""The additive structure shared by the exact value types.

A :class:`SparseSum` is an immutable map ``terms`` from keys to nonzero
coefficients in a space fixed by a shape.  Subclasses supply four hooks:
``_shape()`` (compared by ``==``), ``_like(terms)`` (a value of the same
shape; zero terms drop), ``_lift(value)`` (a rational scalar in the same
space, or ``NotImplemented``) and ``_compatible(other)`` (raises the class's
own error when ``other``, of the same class, cannot be combined with this one).
"""

from __future__ import annotations

from fractions import Fraction


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
        if isinstance(other, (int, Fraction)):
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
        return self._like({k: c * value for k, c in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = self._lift(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
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
