"""The additive structure shared by the exact value types, their scalar, and
the Taylor-shift row of one power that their products and shifts expand by.

A :class:`SparseSum` is an immutable map ``terms`` from keys to nonzero
coefficients in a space fixed by a shape.  A coefficient is the one exact
scalar of :func:`rational` (an ``int`` when integral, else a ``Fraction``), or
a nonzero SparseSum (the polynomial coefficients of a series).  The shape is
one tuple in the ``shape`` slot, compared by ``==``: a subclass's constructor
sets it and the subclass names its parts by properties.  Subclasses supply two
hooks: ``_lift(value)`` (a rational scalar in the same space, or
``NotImplemented``) and ``_compatible(other)`` (raises the class's own error
when ``other``, of the same class, cannot be combined with this one).

Only the public constructors validate.  :meth:`SparseSum._like` is the
unchecked constructor, and it trusts its operands: the operations hand it
terms computed from values that are already clean (operands checked by
``_check`` and scalars by :func:`rational`), so it re-checks no key or
coefficient; it only drops zeros and turns integral Fractions into ints.  A
subclass may narrow that filter to what its coefficients can be (a series
keeps the polynomials with terms), and a kernel whose result is clean already
wraps it by :meth:`SparseSum._made`.  A value is falsy when it is zero, as a
number is.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import index

RATIONALS = (int, Fraction)  # the types that rational() accepts


def rational(x):
    """x as the one exact scalar: an int (a bool or a Fraction with denominator
    1 becomes one), or a non-integral Fraction; anything else raises TypeError."""
    if not isinstance(x, RATIONALS):
        raise TypeError(f"exact rational expected, got {type(x).__name__}")
    return int(x) if x.denominator == 1 else x


@lru_cache(maxsize=None)
def binomial_shift(degree, k):
    """The Taylor shift of one power: (x + k)^degree as ((i, weight), ...),
    weight = C(degree, i) * k^(degree - i), for i = 0..degree.

    Rows are cached by (degree, k).  A float hashes like its int, so a row
    is built only from ints: the cache holds exact rows alone."""
    degree, k = index(degree), index(k)
    return tuple((i, comb(degree, i) * k ** (degree - i)) for i in range(degree + 1))


def cleared(terms):
    """(den, items): den is the lcm of the coefficients' denominators, and
    items yields each (key, coefficient * den), an int (the terms' own items
    when den is 1, since an integral coefficient is an int)."""
    den = lcm(*[c.denominator for c in terms.values()])
    if den == 1:
        return 1, terms.items()
    return den, [(k, c.numerator * (den // c.denominator)) for k, c in terms.items()]


def divided(sums, den):
    """Integer sums over den: an int where den divides the sum, else a
    Fraction, so the terms are clean where no sum is 0."""
    return sums if den == 1 else {
        k: n // den if not n % den else Fraction(n, den) for k, n in sums.items()}


class SparseSum:
    __slots__ = ("shape", "terms")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _made(self, terms):
        """A value of this shape that holds ``terms`` itself: they must be
        clean already, with no zero and no integral Fraction."""
        setslot = object.__setattr__
        value = object.__new__(type(self))
        setslot(value, "shape", self.shape)
        setslot(value, "terms", terms)
        return value

    def _like(self, terms):
        """A value of this shape from clean terms: the shape is shared, zero
        coefficients drop and integral Fractions become ints."""
        return self._made({
            k: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for k, c in terms.items() if c
        })

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
        if isinstance(other, RATIONALS):
            return self + (-other)
        self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            prev = terms.get(key)
            terms[key] = -coeff if prev is None else prev - coeff
        return self._like(terms)

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
        if type(other) is not type(self):  # two values of one type compare at once
            if isinstance(other, RATIONALS):
                other = self._lift(other)
            if not isinstance(other, type(self)):
                return NotImplemented
        return self.shape == other.shape and self.terms == other.terms

    def __hash__(self):
        if len(self.terms) <= 1:
            c = next(iter(self.terms.values()), 0)
            if self == c:  # equal to its scalar, so it must hash like it
                return hash(c)
        return hash((self.shape, frozenset(self.terms.items())))
