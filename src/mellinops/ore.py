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

which is exactly what iterated single-relation rewriting produces.  A
product runs on integers: each operand's coefficients are cleared to integer
numerators over the lcm of their denominators, the double loop multiplies and
accumulates ints only, and each result term is divided by the product of the
two denominators once (a Fraction only where the quotient is not integral).
Each operand term is split once into its algebra's own half: exponents,
degrees and transport shifts (D: t, th and +t; S: tau, s and -tau; the
combined algebra both).  A pair of monomials starts from the exponent and
degree sums, and only a variable whose left degree meets a nonzero right
shift expands by its cached row.  The sums are keyed on that half, and each
result term gets its four-slot key once.
"""

from __future__ import annotations

import enum
import sys
from functools import lru_cache
from operator import add, mul, neg
from typing import NamedTuple

from .errors import MixedAlgebra
from .sparse import RATIONALS, SparseSum, binomial_shift, cleared, divided, rational


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


GEN_SLOT = {
    GenKind.T: (0, +1),
    GenKind.TINV: (0, -1),
    GenKind.THETA: (1, +1),
    GenKind.TAU: (2, +1),
    GenKind.TAUINV: (2, -1),
    GenKind.S: (3, +1),
}


@lru_cache(maxsize=None)
def _mono_mul(e1, k, e2):
    """One variable's row of a monomial product: (x + k)^e1 x^e2 as
    ((degree, weight), ...) with nonzero integer weights.

    Moving the right factor's t_j^a left past th_j^e1 transports th_j to
    (th_j + a); moving its tau_j^c past s_j^e1 transports s_j to (s_j - c).
    The rows of the variables multiply out to the product of two normal
    monomials, and every resulting degree tuple is distinct.
    """
    return tuple((i + e2, w) for i, w in binomial_shift(e1, k) if w)


def _halves(algebra, items):
    """Each (key, numerator) on its algebra's own half, as (exponents + degrees,
    degrees, transport shifts, numerator): t_j^a moves th_j by +a, and tau_j^c
    moves s_j by -c."""
    if algebra is Algebra.D:
        return [(a + b, b, a, x) for (a, b, _, _), x in items]
    if algebra is Algebra.S:
        return [(c + d, d, tuple(map(neg, c)), x) for (_, _, c, d), x in items]
    return [(a + c + b + d, b + d, a + tuple(map(neg, c)), x) for (a, b, c, d), x in items]


def _joined(algebra, p, sums):
    """Sums keyed by exponents + degrees, keyed by four-slot keys again."""
    z = (0,) * p
    if algebra is Algebra.D:
        return {(v[:p], v[p:], z, z): n for v, n in sums.items()}
    if algebra is Algebra.S:
        return {(z, z, v[:p], v[p:]): n for v, n in sums.items()}
    return {(v[:p], v[2 * p:3 * p], v[p:2 * p], v[3 * p:]): n for v, n in sums.items()}


class OreOperator(SparseSum):
    """An exact operator in normal form.

    ``terms`` maps monomial keys to nonzero exact scalars (see
    :func:`~mellinops.sparse.rational`).  Instances are immutable; arithmetic
    goes through +, -, * and **, and :func:`normalize` builds an operator from
    generator words.  The constructor validates its input; the arithmetic
    builds its results through the unchecked
    :meth:`~mellinops.sparse.SparseSum._like`, since its operands are already
    clean.  ``*`` works on integer numerators, one common denominator per
    operand, on each key's own half, and expands only the variables that
    transport (see the module docstring).
    """

    __slots__ = ()

    def __init__(self, algebra, arity, terms):
        algebra = Algebra(algebra)
        if arity < 1:
            raise ValueError("arity must be >= 1")
        object.__setattr__(self, "shape", (algebra, arity))
        clean = {}
        for key, coeff in terms.items():
            coeff = rational(coeff)
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
        return cls(algebra, arity, {_unit_key(arity): 1})

    @classmethod
    def scalar(cls, value, algebra, arity=1):
        return cls(algebra, arity, {_unit_key(arity): value})

    @classmethod
    def generator(cls, kind, index=1, algebra=None, arity=None):
        kind = GenKind(kind)
        algebra, arity = resolve_algebra({kind}, index, algebra, arity)
        if algebra is Algebra.D and kind not in T_SIDE:
            raise MixedAlgebra(f"{kind.value} is not a D generator")
        if algebra is Algebra.S and kind not in S_SIDE:
            raise MixedAlgebra(f"{kind.value} is not an S generator")
        slot, amount = GEN_SLOT[kind]
        key = _bump(_unit_key(arity), slot, index, amount)
        return cls(algebra, arity, {key: 1})

    # -- arithmetic ----------------------------------------------------------

    @property
    def algebra(self):
        return self.shape[0]

    @property
    def arity(self):
        return self.shape[1]

    def _lift(self, value):
        return OreOperator.scalar(value, self.algebra, self.arity)

    def _compatible(self, other):
        if self.algebra is not other.algebra or self.arity != other.arity:
            raise MixedAlgebra(
                f"cannot combine {self.algebra.value} (p={self.arity}) with "
                f"{other.algebra.value} (p={other.arity})"
            )

    def __mul__(self, other):
        if isinstance(other, RATIONALS):
            return self.scale(other)
        self._check(other)
        algebra = self.algebra
        den_left, left = cleared(self.terms)
        den_right, right = cleared(other.terms)
        right = _halves(algebra, right)
        sums = {}  # keyed by exponents + degrees on the algebra's own half
        for v1, g1, _, x in _halves(algebra, left):
            q = len(g1)
            for v2, g2, k2, y in right:
                key = tuple(map(add, v1, v2))
                if not any(map(mul, g1, k2)):  # no variable transports
                    sums[key] = sums.get(key, 0) + x * y
                    continue
                expansion = [(key, x * y)]
                for j, g in enumerate(g1):
                    if g and k2[j]:  # degree q + j of the key expands by its row
                        i, row = q + j, _mono_mul(g, k2[j], g2[j])
                        expansion = [(v[:i] + (deg,) + v[i + 1:], n * w)
                                     for v, n in expansion for deg, w in row]
                for key, n in expansion:
                    sums[key] = sums.get(key, 0) + n
        return self._like(divided(_joined(algebra, self.arity, sums), den_left * den_right))

    __rmul__ = __mul__  # reached by scalars, which commute with every operator

    def __str__(self):
        from .syntax import format_operator

        return format_operator(self)

    def __repr__(self):
        return f"<{self.algebra.value} p={self.arity}: {self}>"


def resolve_algebra(kinds, max_index, algebra, arity):
    """(algebra, arity) for an operator written with generators of ``kinds``.

    Without a hint the algebra is D or S by the side of the generators, and
    kinds from both sides raise MixedAlgebra; with a hint only the combined
    algebra admits both sides.  A single wrong-side generator under a
    one-sided hint is left to :meth:`OreOperator.generator`.  The arity
    defaults to ``max_index``; an index outside 1..arity, or an arity of
    ``sys.maxsize`` or more (a monomial key holds tuples of arity entries),
    raises MixedAlgebra.
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
    if not 1 <= max_index <= arity:
        raise MixedAlgebra(f"index {max_index} not in 1..{arity}")
    if arity >= sys.maxsize:
        raise MixedAlgebra(f"index {arity} not in 1..{sys.maxsize - 1}")
    return algebra, arity


def normalize(raw_terms, algebra=None, arity=None):
    """Normal form of a sum of coefficient-times-generator-word terms.

    ``raw_terms`` is an iterable of (coefficient, word) pairs where each word
    is a sequence of :class:`Generator`.  The algebra is inferred from the
    generators unless given; a word mixing the two sides without the combined
    hint raises MixedAlgebra.
    """
    raw = [(rational(c), tuple(Generator(GenKind(g.kind), g.index) for g in w))
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
