"""Exact polynomials in the shift variables s_1..s_p with unit translations.

The translation in direction j sends s_j to s_j + k (k any integer) and is a
ring morphism; translating by +1 and then -1 is the identity, exactly.  These
polynomials are the computable stand-in for analytic coefficient functions on
the shift space: every coefficient identity handled by the tail-series module
is polynomial in s under translation.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .sparse import SparseSum


def as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def binomial_shift(degree, k):
    """The Taylor shift of one power: (x + k)^degree as ((i, weight), ...),
    weight = C(degree, i) * k^(degree - i), for i = 0..degree."""
    return tuple((i, comb(degree, i) * k ** (degree - i)) for i in range(degree + 1))


class ShiftPolynomial(SparseSum):
    """Sparse polynomial in s_1..s_p over the rationals.

    Terms map exponent tuples to nonzero Fractions.  Values are immutable;
    all operations return new instances.
    """

    __slots__ = ("arity",)

    def __init__(self, arity, terms=None):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        object.__setattr__(self, "arity", arity)
        clean = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != arity or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent {expo} for arity {arity}")
            coeff = as_fraction(coeff)
            if coeff:
                clean[expo] = coeff
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, arity=1):
        return cls(arity, {(0,) * arity: as_fraction(value)})

    @classmethod
    def zero(cls, arity=1):
        return cls(arity, {})

    @classmethod
    def variable(cls, j=1, arity=1):
        """The polynomial s_j (1-based index)."""
        if not 1 <= j <= arity:
            raise ValueError(f"variable index {j} not in 1..{arity}")
        expo = tuple(1 if i == j - 1 else 0 for i in range(arity))
        return cls(arity, {expo: Fraction(1)})

    @classmethod
    def from_coefficients(cls, coeffs):
        """Univariate polynomial from the dense list [c0, c1, ...]."""
        return cls(1, {(k,): c for k, c in enumerate(coeffs)})

    # -- views -------------------------------------------------------------

    def coefficients(self):
        """Dense coefficient list (univariate only)."""
        if self.arity != 1:
            raise ValueError("dense view only defined for one variable")
        if not self.terms:
            return [Fraction(0)]
        d = max(e[0] for e in self.terms)
        out = [Fraction(0)] * (d + 1)
        for (k,), c in self.terms.items():
            out[k] = c
        return out

    def degree(self, j=None):
        """Total degree, or degree in variable j; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if j is None:
            return max(sum(e) for e in self.terms)
        return max(e[j - 1] for e in self.terms)

    # -- ring operations ---------------------------------------------------

    def _shape(self):
        return (self.arity,)

    def _like(self, terms):
        return ShiftPolynomial(self.arity, terms)

    def _lift(self, value):
        return ShiftPolynomial.constant(value, self.arity)

    def _compatible(self, other):
        if self.arity != other.arity:
            raise ValueError("arity mismatch")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                terms[expo] = terms.get(expo, Fraction(0)) + c1 * c2
        return ShiftPolynomial(self.arity, terms)

    __rmul__ = __mul__

    # -- the translation action --------------------------------------------

    def shift(self, j=1, steps=1):
        """Apply s_j -> s_j + steps (steps may be negative)."""
        if not 1 <= j <= self.arity:
            raise ValueError(f"variable index {j} not in 1..{self.arity}")
        if steps == 0:
            return self
        terms = {}
        jj = j - 1
        for expo, coeff in self.terms.items():
            for i, w in binomial_shift(expo[jj], steps):
                key = expo[:jj] + (i,) + expo[jj + 1 :]
                terms[key] = terms.get(key, Fraction(0)) + coeff * w
        return ShiftPolynomial(self.arity, terms)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, *point):
        """Evaluate at a point (exact for Fractions, complex otherwise)."""
        if len(point) == 1 and isinstance(point[0], (tuple, list)):
            point = tuple(point[0])
        if len(point) != self.arity:
            raise ValueError("wrong number of coordinates")
        total = 0
        for expo, coeff in self.terms.items():
            val = coeff if all(e == 0 for e in expo) else coeff * _prod_pow(point, expo)
            total = total + val
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for expo in sorted(self.terms, reverse=True):
            coeff = self.terms[expo]
            mono = "*".join(
                f"s_{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(expo) if e
            )
            if self.arity == 1:
                mono = mono.replace("s_1", "s")
            if not mono:
                bits.append(str(coeff))
            elif coeff == 1:
                bits.append(mono)
            elif coeff == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{coeff}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")


def _prod_pow(point, expo):
    out = 1
    for x, e in zip(point, expo):
        if e:
            out = out * x ** e
    return out
