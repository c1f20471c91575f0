"""Exact polynomials in the shift variables s_1..s_p with unit translations.

The translation in direction j sends s_j to s_j + k (k any integer) and is a
ring morphism; translating by +1 and then -1 is the identity, exactly.  These
polynomials are the computable stand-in for analytic coefficient functions on
the shift space: every coefficient identity handled by the tail-series module
is polynomial in s under translation.

A translation is a Taylor shift (von zur Gathen and Gerhard, ISSAC 1997) done
term by term: each term expands by its row, built once per (exponents,
variable, steps) and cached.  The polynomials of the Koszul reductions have a
handful of terms, so a shift costs per-call work more than arithmetic; the
rows take the slicing of exponent tuples and the building of keys out of it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

from .sparse import RATIONALS, SparseSum, binomial_shift, rational


@lru_cache(maxsize=None)
def _shift_row(expo, jj, steps):
    """One term's Taylor-shift row: the monomial with exponents ``expo`` under
    s_(jj+1) -> s_(jj+1) + steps, as ((exponents, weight), ...) with int weights.

    The row is built once from ``binomial_shift`` and cached by its arguments,
    which are ints (exponents and steps pass through ``index``), so the cache
    holds exact rows alone.  A term free of s_(jj+1) is its own one-entry row."""
    e = expo[jj]
    if not e:
        return ((expo, 1),)
    head, tail = expo[:jj], expo[jj + 1 :]
    return tuple((head + (i,) + tail, w) for i, w in binomial_shift(e, steps))


class ShiftPolynomial(SparseSum):
    """Sparse polynomial in s_1..s_p over the rationals.

    Terms map exponent tuples of ints to nonzero exact scalars (see
    :func:`~mellinops.sparse.rational`).  Values are immutable; all
    operations return new instances.  The constructor validates its input;
    the ring operations and ``shift`` build their results through the
    unchecked :meth:`~mellinops.sparse.SparseSum._like`, since their operands
    are already clean.
    """

    __slots__ = ()

    def __init__(self, arity, terms=None):
        arity = index(arity)
        if arity < 1:
            raise ValueError("arity must be >= 1")
        object.__setattr__(self, "shape", (arity,))
        clean = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(index(e) for e in expo)
            if len(expo) != arity or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent {expo} for arity {arity}")
            coeff = rational(coeff)
            if coeff:
                clean[expo] = coeff
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, arity=1):
        return cls(arity, {(0,) * arity: value})

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def zero(cls, arity=1):
        """The zero of ``arity`` variables, one shared value per arity."""
        return cls(arity, {})

    @classmethod
    def variable(cls, j=1, arity=1):
        """The polynomial s_j (1-based index)."""
        if not 1 <= j <= arity:
            raise ValueError(f"variable index {j} not in 1..{arity}")
        expo = tuple(1 if i == j - 1 else 0 for i in range(arity))
        return cls(arity, {expo: 1})

    # -- ring operations ---------------------------------------------------

    @property
    def arity(self):
        return self.shape[0]

    def _lift(self, value):
        return ShiftPolynomial.constant(value, self.arity)

    def _compatible(self, other):
        if self.arity != other.arity:
            raise ValueError("arity mismatch")

    def __mul__(self, other):
        if isinstance(other, RATIONALS):
            return self.scale(other)
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                terms[expo] = terms.get(expo, 0) + c1 * c2
        return self._like(terms)

    __rmul__ = __mul__

    # -- the translation action --------------------------------------------

    def shift(self, j=1, steps=1):
        """Apply s_j -> s_j + steps (steps may be negative)."""
        j, steps = index(j), index(steps)
        if not 1 <= j <= self.arity:
            raise ValueError(f"variable index {j} not in 1..{self.arity}")
        if steps == 0:
            return self
        return self._shift_sub(j - 1, self.zero(self.arity), steps)

    def _shift_sub(self, jj, other, steps=1):
        """The Taylor-shift kernel: tau_(jj+1)^steps self - other as one value
        (jj 0-based and unchecked, other of the same arity; a unit step is the
        step of the shift-cycle recursions).

        One loop adds each term's cached ``_shift_row`` and then takes other's
        terms off, so no exponent tuple is sliced and no key is built here."""
        terms = {}
        get = terms.get
        for expo, coeff in self.terms.items():
            for key, w in _shift_row(expo, jj, steps):
                terms[key] = get(key, 0) + coeff * w
        for expo, coeff in other.terms.items():
            terms[expo] = get(expo, 0) - coeff
        return self._like(terms)

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


def as_poly(value, arity=None):
    """value as a ShiftPolynomial of ``arity`` variables (any when None for a
    polynomial, one for a scalar): an exact scalar becomes a constant."""
    if isinstance(value, ShiftPolynomial):
        if arity is not None and value.arity != arity:
            raise ValueError("coefficient arity mismatch")
        return value
    return ShiftPolynomial.constant(value, arity or 1)
