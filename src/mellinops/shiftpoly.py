"""Exact polynomials in the shift variables s_1..s_p with unit translations.

The translation in direction j sends s_j to s_j + k (k any integer) and is a
ring morphism; translating by +1 and then -1 is the identity, exactly.  These
polynomials are the computable stand-in for analytic coefficient functions on
the shift space: every coefficient identity handled by the tail-series module
is polynomial in s under translation.

A translation is a Taylor shift (von zur Gathen and Gerhard, ISSAC 1997) done
term by term, each term expanding by its row.  The polynomials of the Koszul
reductions have a handful of terms, so a shift costs per-call work more than
arithmetic.  The rows of one (variable, steps) therefore live in one table
keyed by exponents (:func:`shift_rows`), which a pass fetches once, and the
one kernel, :func:`shift_sub`, works on raw term dicts.  The passes over a
series run on raw dicts too: the Koszul eliminations solve their samples
without wrapping a coefficient, and a series operation wraps each result once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import index

from .sparse import RATIONALS, SparseSum, binomial_shift, rational


class _Rows(dict):
    """The Taylor-shift rows of s_(jj+1) -> s_(jj+1) + steps: exponents ->
    ((exponents, weight), ...), int weights, built on first lookup and kept.

    jj and steps are ints (``shift`` passes them through ``index``), so the
    table holds exact rows alone.  A term free of s_(jj+1) is its own
    one-entry row."""

    __slots__ = ("jj", "steps")

    def __init__(self, jj, steps):
        super().__init__()
        self.jj, self.steps = jj, steps

    def __missing__(self, expo):
        jj = self.jj
        if not expo[jj]:
            row = ((expo, 1),)
        else:
            head, tail = expo[:jj], expo[jj + 1 :]
            row = tuple((head + (i,) + tail, w) for i, w in binomial_shift(expo[jj], self.steps))
        self[expo] = row
        return row


_ROWS = {}  # (jj, steps) -> its _Rows table


def shift_rows(jj, steps):
    """The row table of s_(jj+1) -> s_(jj+1) + steps (jj 0-based), one per
    (jj, steps) for the life of the process."""
    rows = _ROWS.get((jj, steps))
    if rows is None:
        rows = _ROWS[jj, steps] = _Rows(jj, steps)
    return rows


def shift_sub(terms, rows, other):
    """The Taylor-shift kernel on raw term dicts: the terms of tau^steps p - q
    for p's ``terms``, q's ``other`` and the ``rows`` of that shift.

    One loop adds each term's row and then takes other's terms off, so no
    exponent tuple is sliced and no key is built here.  The result is clean:
    zeros drop and integral Fractions become ints, in a second pass that runs
    only when a scan of the values finds a zero or a Fraction (at C speed on
    int values: the values are scalars)."""
    out = {}
    get = out.get
    for expo, coeff in terms.items():
        for key, w in rows[expo]:
            out[key] = get(key, 0) + coeff * w
    for expo, coeff in other.items():
        out[expo] = get(expo, 0) - coeff
    values = out.values()
    if 0 in values or Fraction in map(type, values):
        return {k: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                for k, c in out.items() if c}
    return out


class ShiftPolynomial(SparseSum):
    """Sparse polynomial in s_1..s_p over the rationals.

    Terms map exponent tuples of ints to nonzero exact scalars (see
    :func:`~mellinops.sparse.rational`).  Values are immutable; all
    operations return new instances.  The constructor validates its input;
    the ring operations build their results through the unchecked
    :meth:`~mellinops.sparse.SparseSum._like`, since their operands are
    already clean, and ``shift`` wraps the clean terms of :func:`shift_sub`.
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
        return self._made(shift_sub(self.terms, shift_rows(j - 1, steps), {}))

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
