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
map, no zero coefficients), so equality of operators is equality of maps.  A
monomial's key is one flat tuple of ints over its algebra's own slots, p
entries each, in the order of :data:`SLOTS`: (t, th) in D, (tau, s) in S and
(t, th, tau, s) in the combined algebra.  Products are computed by a
closed-form transport rule derived from the relations:

    th_j^b t_j^a  = t_j^a (th_j + a)^b        (a in Z)
    s_j^d tau_j^c = tau_j^c (s_j - c)^d       (c in Z)

which is exactly what iterated single-relation rewriting produces.  A
product runs on integers: each operand's coefficients are cleared to integer
numerators over the lcm of their denominators, the double loop multiplies and
accumulates ints only, and each result term is divided by the product of the
two denominators once (a Fraction only where the quotient is not integral).
Each right term lists, once per product, the degree places that its nonzero
exponents transport, with their shifts (+t, or -tau).  A pair of monomials
starts from the sum of their keys; a right term with an empty list is tested
for nothing, and for the others only a listed place whose left degree is
nonzero expands by its cached row.  The loops run left term outside, right
term inside, so a result's terms are inserted in one fixed order, which the
residual sums downstream add in.  The result is filtered only when one scan
of the integer sums finds a term that cancelled.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from operator import add
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


class Generator(NamedTuple):
    """A single generator symbol: kind plus a 1-based variable index."""

    kind: GenKind
    index: int = 1


# Each algebra's key slots, p entries each, in pairs: an exponent slot (a
# negative exponent is a power of the inverse generator), then the degree slot
# that it transports, with the sign of the transport (t_j^a moves th_j by +a,
# tau_j^c moves s_j by -c).  So a D key is also the S key of its transform.
_TORUS = (GenKind.T, GenKind.TINV, GenKind.THETA, +1)
_SHIFT = (GenKind.TAU, GenKind.TAUINV, GenKind.S, -1)
SLOTS = {Algebra.D: (_TORUS,), Algebra.S: (_SHIFT,), Algebra.DTILDE: (_TORUS, _SHIFT)}
T_SIDE, S_SIDE = frozenset(_TORUS[:3]), frozenset(_SHIFT[:3])

# The largest variable index and arity: every key holds p entries per slot, so
# an index of 10^8 would ask for gigabytes before the first product.
MAX_INDEX = 65536


def _width(algebra, p):
    """The number of entries of a key of ``algebra`` in p variables."""
    return 2 * len(SLOTS[algebra]) * p


@lru_cache(maxsize=32)
def _degree_places(algebra, p):
    """(places, signs): each degree's place in a key of ``algebra`` in p
    variables, and the sign by which the exponent p places before it
    transports it."""
    slots = SLOTS[algebra]
    return (tuple((2 * b + 1) * p + j for b in range(len(slots)) for j in range(p)),
            tuple(sign for *_, sign in slots for _ in range(p)))


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


class OreOperator(SparseSum):
    """An exact operator in normal form.

    ``terms`` maps monomial keys (see :data:`SLOTS`) to nonzero exact scalars
    (see :func:`~mellinops.sparse.rational`).  Instances are immutable;
    arithmetic goes through +, -, * and **, and :func:`normalize` builds an
    operator from generator words.  The constructor validates its input; the
    arithmetic builds its results through the unchecked
    :meth:`~mellinops.sparse.SparseSum._like`, since its operands are already
    clean; a product's result is clean already and wraps it by ``_made``.
    """

    __slots__ = ()

    def __init__(self, algebra, arity, terms):
        algebra = Algebra(algebra)
        if not 1 <= arity <= MAX_INDEX:
            raise ValueError(f"arity {arity} not in 1..{MAX_INDEX}")
        object.__setattr__(self, "shape", (algebra, arity))
        width, (places, _) = _width(algebra, arity), _degree_places(algebra, arity)
        clean = {}
        for key, coeff in terms.items():
            if not (type(key) is tuple and len(key) == width and all(type(e) is int for e in key)):
                raise ValueError(f"monomial key {key} is not a tuple of {width} ints")
            if any(key[i] < 0 for i in places):
                raise ValueError("th/s degrees must be non-negative")
            coeff = rational(coeff)
            if coeff:
                clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, algebra, arity=1):
        return cls(algebra, arity, {})

    @classmethod
    def scalar(cls, value, algebra, arity=1):
        return cls(algebra, arity, {(0,) * _width(Algebra(algebra), arity): value})

    @classmethod
    def generator(cls, kind, index=1, algebra=None, arity=None):
        kind = GenKind(kind)
        algebra, arity = resolve_algebra({kind}, index, algebra, arity)
        key = [0] * _width(algebra, arity)
        for b, (up, down, degree, _) in enumerate(SLOTS[algebra]):
            if kind in (up, down, degree):
                key[(2 * b + (kind is degree)) * arity + index - 1] = -1 if kind is down else 1
                return cls(algebra, arity, {tuple(key): 1})
        article = "an" if algebra is Algebra.S else "a"
        raise MixedAlgebra(f"{kind.value} is not {article} {algebra.value} generator")

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
        """The product in normal form (see the module docstring).  Each right
        term carries its transport list, (degree place, shift, own degree) per
        nonzero exponent, built once per product; one scan of the integer sums
        for a 0 decides whether cancelled terms are dropped."""
        if isinstance(other, RATIONALS):
            return self.scale(other)
        self._check(other)
        p = self.arity
        places, signs = _degree_places(self.algebra, p)
        den_left, left = cleared(self.terms)
        den_right, right = cleared(other.terms)
        right = [(v, [(i, sign * v[i - p], v[i]) for i, sign in zip(places, signs) if v[i - p]], y)
                 for v, y in right]
        sums = {}
        get = sums.get
        for v1, x in left:
            for v2, moves, y in right:
                key = tuple(map(add, v1, v2))
                if not moves:  # nothing to transport
                    sums[key] = get(key, 0) + x * y
                    continue
                expansion = [(key, x * y)]
                for i, k, e2 in moves:
                    g = v1[i]
                    if g:  # the left degree at place i expands by its row
                        row = _mono_mul(g, k, e2)
                        expansion = [(v[:i] + (deg,) + v[i + 1:], n * w)
                                     for v, n in expansion for deg, w in row]
                for key, n in expansion:
                    sums[key] = get(key, 0) + n
        if 0 in sums.values():  # terms that cancelled
            sums = {key: n for key, n in sums.items() if n}
        return self._made(divided(sums, den_left * den_right))

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
    defaults to ``max_index``; an index outside 1..arity, or an arity above
    ``MAX_INDEX``, raises MixedAlgebra before any key is built.
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
    if arity > MAX_INDEX:
        raise MixedAlgebra(f"index {arity} not in 1..{MAX_INDEX}")
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
