"""Exact arithmetic in three noncommutative operator algebras.

The algebras, over the rationals (complex scalars are confined to the
numerics layer):

* ``D`` -- Laurent differential operators on the torus, generated by t_j,
  t_j^-1 and the Euler operators th_j = t_j d/dt_j, with
  th_j t_j = t_j th_j + t_j.
* ``S`` -- difference operators, generated by s_j and the invertible unit
  shifts tau_j, with tau_j s_j = (s_j + 1) tau_j.
* ``DTILDE`` -- the combined algebra admitting all six kinds of generators;
  across the two sides everything commutes, and generators with distinct
  variable indices always commute.

Elements are kept in a unique normal form t^a th^b tau^c s^d (sparse term
map, no zero coefficients), so equality of operators is equality of maps.
Products are computed by a closed-form transport rule derived from the
relations:

    th_j^b t_j^a  = t_j^a (th_j + a)^b        (a in Z)
    s_j^d tau_j^c = tau_j^c (s_j - c)^d       (c in Z)

which is exactly what iterated single-relation rewriting produces.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import IndexOutOfRange, MixedAlgebra
from .shiftpoly import as_fraction, binomial_shift
from .sparse import SparseSum


class Algebra(str, enum.Enum):
    D = "D"
    S = "S"
    DTILDE = "Dtilde"


class GenKind(str, enum.Enum):
    T = "t"
    TINV = "tinv"
    THETA = "th"
    S = "s"
    TAU = "tau"
    TAUINV = "tauinv"


T_SIDE = frozenset({GenKind.T, GenKind.TINV, GenKind.THETA})
S_SIDE = frozenset({GenKind.S, GenKind.TAU, GenKind.TAUINV})


class Generator(NamedTuple):
    """A single generator symbol: kind plus a 1-based variable index."""

    kind: GenKind
    index: int = 1


# A monomial key is (t-exponents, th-degrees, tau-exponents, s-degrees),
# each a length-p tuple.  Algebra D uses only the first two slots, S only
# the last two; the combined algebra uses all four.
def _unit_key(p):
    z = (0,) * p
    return (z, z, z, z)


def _bump(key, slot, j, amount):
    parts = list(key)
    vec = list(parts[slot])
    vec[j - 1] += amount
    parts[slot] = tuple(vec)
    return tuple(parts)


_GEN_SLOT = {
    GenKind.T: (0, +1),
    GenKind.TINV: (0, -1),
    GenKind.THETA: (1, +1),
    GenKind.TAU: (2, +1),
    GenKind.TAUINV: (2, -1),
    GenKind.S: (3, +1),
}


@lru_cache(maxsize=65536)
def _mono_mul(key1, key2):
    """Normal-form expansion of the product of two normal monomials.

    Returns a tuple of (key, Fraction) pairs.  Moving the right factor's
    t-powers left past th-powers transports th_j to (th_j + a_j); moving its
    tau-powers past s-powers transports s_j to (s_j - c_j).  Each variable
    contributes (x + k)^e1 x^e2 for x = th_j, then for x = s_j; every
    resulting degree tuple is distinct, so no two terms collect.
    """
    a1, b1, c1, d1 = key1
    a2, b2, c2, d2 = key2
    p = len(a1)
    a = tuple(x + y for x, y in zip(a1, a2))
    c = tuple(x + y for x, y in zip(c1, c2))
    terms = {(): Fraction(1)}
    for e1, e2, k in zip(b1 + d1, b2 + d2, a2 + tuple(-x for x in c2)):
        opts = [(i + e2, w) for i, w in binomial_shift(e1, k) if w]
        terms = {degs + (deg,): coeff * w for degs, coeff in terms.items() for deg, w in opts}
    return tuple(((a, degs[:p], c, degs[p:]), coeff) for degs, coeff in terms.items())


class OreOperator(SparseSum):
    """An exact operator in normal form.

    ``terms`` maps monomial keys to nonzero Fractions.  Instances are
    immutable; arithmetic goes through +, -, *, ** or the module functions
    ``add``/``negate``/``multiply``/``normalize``.
    """

    __slots__ = ("algebra", "arity")

    def __init__(self, algebra, arity, terms):
        algebra = Algebra(algebra)
        if arity < 1:
            raise ValueError("arity must be >= 1")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "arity", arity)
        clean = {}
        for key, coeff in terms.items():
            coeff = as_fraction(coeff)
            if not coeff:
                continue
            self._check_key(key, algebra, arity)
            clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _check_key(key, algebra, arity):
        a, b, c, d = key
        for vec in (a, b, c, d):
            if len(vec) != arity:
                raise ValueError(f"monomial key {key} does not match arity {arity}")
        if any(x < 0 for x in b) or any(x < 0 for x in d):
            raise ValueError("th/s degrees must be non-negative")
        if algebra is Algebra.D and (any(c) or any(d)):
            raise MixedAlgebra("shift-side generators in a D operator")
        if algebra is Algebra.S and (any(a) or any(b)):
            raise MixedAlgebra("torus-side generators in an S operator")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, algebra, arity=1):
        return cls(algebra, arity, {})

    @classmethod
    def one(cls, algebra, arity=1):
        return cls(algebra, arity, {_unit_key(arity): Fraction(1)})

    @classmethod
    def scalar(cls, value, algebra, arity=1):
        return cls(algebra, arity, {_unit_key(arity): as_fraction(value)})

    @classmethod
    def generator(cls, kind, index=1, algebra=None, arity=None):
        kind = GenKind(kind)
        if algebra is None:
            algebra = Algebra.D if kind in T_SIDE else Algebra.S
        algebra = Algebra(algebra)
        arity = arity or index
        if not 1 <= index <= arity:
            raise IndexOutOfRange(f"index {index} not in 1..{arity}")
        if algebra is Algebra.D and kind not in T_SIDE:
            raise MixedAlgebra(f"{kind.value} is not a D generator")
        if algebra is Algebra.S and kind not in S_SIDE:
            raise MixedAlgebra(f"{kind.value} is not an S generator")
        slot, amount = _GEN_SLOT[kind]
        key = _bump(_unit_key(arity), slot, index, amount)
        return cls(algebra, arity, {key: Fraction(1)})

    # -- queries -----------------------------------------------------------

    def support(self, slot):
        """Exponent vectors appearing in the given key slot (0=t,1=th,2=tau,3=s)."""
        return {key[slot] for key in self.terms}

    # -- arithmetic ----------------------------------------------------------

    def _shape(self):
        return (self.algebra, self.arity)

    def _like(self, terms):
        return OreOperator(self.algebra, self.arity, terms)

    def _lift(self, value):
        return OreOperator.scalar(value, self.algebra, self.arity)

    def _compatible(self, other):
        if self.algebra is not other.algebra or self.arity != other.arity:
            raise MixedAlgebra(
                f"cannot combine {self.algebra.value} (p={self.arity}) with "
                f"{other.algebra.value} (p={other.arity})"
            )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                for key, w in _mono_mul(k1, k2):
                    terms[key] = terms.get(key, Fraction(0)) + c1 * c2 * w
        return OreOperator(self.algebra, self.arity, terms)

    __rmul__ = __mul__  # reached by scalars, which commute with every operator

    def __str__(self):
        from .syntax import format_operator

        return format_operator(self)

    def __repr__(self):
        return f"<{self.algebra.value} p={self.arity}: {self}>"


# -- module-level operations ------------------------------------------------


def add(P, Q):
    return P + Q


def negate(P):
    return -P


def multiply(P, Q):
    return P * Q


def resolve_algebra(kinds, max_index, algebra, arity):
    """(algebra, arity) for an operator written with generators of ``kinds``.

    Without a hint the algebra is D or S by the side of the generators, and
    kinds from both sides raise MixedAlgebra; with a hint only the combined
    algebra admits both sides.  A single wrong-side generator under a
    one-sided hint is left to :meth:`OreOperator.generator`.  The arity
    defaults to ``max_index``; a larger index than a given arity raises
    IndexOutOfRange.
    """
    mixed = bool(kinds & T_SIDE) and bool(kinds & S_SIDE)
    if algebra is None:
        if mixed:
            raise MixedAlgebra(
                "operator mixes torus-side and shift-side generators; "
                "pass the combined-algebra hint to allow this"
            )
        algebra = Algebra.S if kinds & S_SIDE else Algebra.D
    else:
        algebra = Algebra(algebra)
        if mixed and algebra is not Algebra.DTILDE:
            raise MixedAlgebra("operator mixes torus-side and shift-side generators")
    if arity is None:
        arity = max_index
    elif max_index > arity:
        raise IndexOutOfRange(f"index {max_index} not in 1..{arity}")
    return algebra, arity


def normalize(raw_terms, algebra=None, arity=None):
    """Normal form of a sum of coefficient-times-generator-word terms.

    ``raw_terms`` is an iterable of (coefficient, word) pairs where each word
    is a sequence of :class:`Generator`.  The algebra is inferred from the
    generators unless given; a word mixing the two sides without the combined
    hint raises MixedAlgebra.
    """
    raw = [(as_fraction(c), tuple(Generator(GenKind(g.kind), g.index) for g in w))
           for c, w in raw_terms]
    gens = [g for _, word in raw for g in word]
    algebra, arity = resolve_algebra(
        {g.kind for g in gens}, max((g.index for g in gens), default=1), algebra, arity
    )

    total = OreOperator.zero(algebra, arity)
    for coeff, word in raw:
        term = OreOperator.scalar(coeff, algebra, arity)
        for gen in word:
            term = term * OreOperator.generator(gen.kind, gen.index, algebra, arity)
        total = total + term
    return total
