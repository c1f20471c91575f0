"""Smooth test functions on the punctured plane with an exact Wirtinger derivative.

In polar form t = r e^(i theta), functions are finite sums of terms

    c * g(s) * r^N * e^(ik theta) * exp(P(t) + Q(r))

with an integer angular order k and radial power N, Laurent polynomials P
(complex coefficients) and Q (real coefficients), and a separable shift
factor g(s), a polynomial in s.  The family is closed under the Wirtinger
derivative d/dt = e^(-i theta) (d/dr - (i/r) d/dtheta) / 2, which sends
r^N e^(ik theta) to (N + k)/2 * r^(N-1) e^(i(k-1) theta), under
multiplication by integer powers of t and under shifts of s, so every
derivative used by the checks is supplied in closed form rather than by
numerical differentiation.

A function is evaluated group by group, a group being the terms that share
an envelope exp(P(t) + Q(r)) and a shift factor g.  With the row power
n = N - |k|,

    r^N * e^(ik theta) = r^n * t^k           (k >= 0)
                       = r^n * conj(t)^|k|   (k < 0),

so a group is g(s) * exp(P(t) + Q(r)) * (sum over k >= 0 of row_k(r) t^k +
sum over k < 0 of row_k(r) conj(t)^|k|), each row a sum of c * r^n in real
powers of r.  The two sums are taken by Horner's rule in t and in conj(t),
with products only and no complex powers, and the exponential once: a real
one when there is no P.  No power or phase array outlives the call.

Rapid decay at both boundary circles, uniformly in the argument, comes from
the radial exponent Q: the standard envelope exp(-r - 1/r) is flat at 0 and
at infinity in every direction.  Purely holomorphic exponents such as
exp(-t) decay only along the positive ray and are used by the ray-transform
checks, not by the Haar-measure ones.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial

import numpy as np

from .ore import Algebra
from .sparse import binomial_shift
from .errors import MixedAlgebra, QuadratureFailure


def _poly_tuple(d, kind=complex):
    return tuple(sorted((int(k), kind(v)) for k, v in (d or {}).items() if v != 0))


def _groups(terms):
    """The terms grouped by envelope and shift factor: (exp_t, exp_r, g, ahead,
    behind) tuples.  ``ahead`` maps each angular order k >= 0 to its radial
    row, ``behind`` each |k| of an order k < 0; a row is (constant,
    ((n, c), ...)), the coefficients of r^n with n = N - |k|, floats when all
    of them are real."""
    groups = {}
    for tm in terms:
        key = (tm.exp_t, tuple((k, float(c.real)) for k, c in tm.exp_r), tm.s_factor)
        k = tm.order
        row = groups.setdefault(key, ({}, {}))[k < 0].setdefault(abs(k), [])
        row.append((tm.power - abs(k), complex(tm.coeff)))
    return tuple(key + tuple({j: _row(row) for j, row in side.items()} for side in sides)
                 for key, sides in groups.items())


def _row(terms):
    cast = complex if any(c.imag for _, c in terms) else (lambda c: c.real)
    return cast(sum(c for n, c in terms if not n)), tuple((n, cast(c)) for n, c in terms if n)


def _radial(constant, powers, r):
    """constant + the sum of c * r^n over ``powers``: an array written in place,
    or the constant alone when there are no powers."""
    if not powers:
        return constant
    (n, c), *rest = powers
    total = c * r ** n
    for n, c in rest:
        total += c * r ** n
    if constant:
        total += constant
    return total


def _horner(rows, z, r):
    """The sum of row_j(r) * z^j over the rows' keys j >= 0 by Horner's rule:
    products only, no complex powers."""
    top = max(rows)
    acc = _radial(*rows[top], r)
    for j in range(top - 1, -1, -1):
        acc = _into(np.multiply, acc, z)
        if j in rows:
            acc += _radial(*rows[j], r)
    return acc


def _into(ufunc, a, b):
    """ufunc(a, b), written over ``a`` when it is an array that can hold the result."""
    try:
        return ufunc(a, b, out=a)
    except (TypeError, ValueError):  # a scalar, a real array, or a smaller shape
        return ufunc(a, b)


@dataclass(frozen=True)
class SFactor:
    """Separable shift factor: the polynomial in s with ``coeffs``, lowest first."""

    coeffs: tuple = (1 + 0j,)

    def __call__(self, s):
        val = 0j
        for c in reversed(self.coeffs):
            val = val * s + c
        return val

    def shifted(self, delta):
        """The factor s -> g(s + delta), expanded back into the family."""
        n = len(self.coeffs)
        out = [0j] * n
        for k, c in enumerate(self.coeffs):
            for i, w in binomial_shift(k, delta):
                out[i] += c * w
        return SFactor(tuple(out))


@dataclass(frozen=True)
class Term:
    """coeff * g(s) * r^power * e^(i order theta) * exp(P(t) + Q(r))."""

    coeff: complex = 1 + 0j
    order: int = 0
    power: int = 0
    exp_t: tuple = ()  # ((power, complex coeff), ...)
    exp_r: tuple = ()  # ((power, float coeff), ...)
    s_factor: SFactor | None = None

    def moved(self, c, steps, dpower):
        """c times this term, moved ``steps`` angular orders and ``dpower``
        radial powers."""
        return Term(self.coeff * c, self.order + steps, self.power + dpower,
                    self.exp_t, self.exp_r, self.s_factor)


class TestFunction:
    """A finite sum of family terms, evaluable on numpy grids."""

    __test__ = False  # not a pytest item, despite the (domain) name
    __slots__ = ("terms", "name", "_groups")

    def __init__(self, terms, name="anonymous"):
        terms = tuple(terms)
        for tm in terms:
            for _, c in tm.exp_r:
                if c.imag:
                    raise ValueError(f"radial exponent coefficient {c} is not real")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_groups", None)  # grouped when first evaluated

    def __setattr__(self, key, value):
        raise AttributeError("TestFunction is immutable")

    # -- evaluation ----------------------------------------------------------

    def __call__(self, t, s=0j):
        t = np.asarray(t, dtype=complex)
        if t.ndim == 0:  # the in-place steps below need arrays, of the shape of s
            return self(np.broadcast_to(t, np.shape(s) or (1,)), s).reshape(np.shape(s))[()]
        r = np.abs(t)
        total = np.zeros_like(t)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for exp_t, exp_r, g, ahead, behind in self._grouped():
                value = _horner(ahead, t, r) if ahead else 0.0
                if behind:
                    value = _into(np.add, _horner(behind, np.conj(t), r), value)
                if g is not None:
                    value = _into(np.multiply, value, g(s))
                if exp_t or exp_r:  # one exponential, real unless P(t) is present
                    expo = sum(c * z ** k for z, poly in ((t, exp_t), (r, exp_r)) for k, c in poly)
                    value = _into(np.multiply, value, np.exp(expo, out=expo))
                total = _into(np.add, total, value)
        return total

    def modes(self, r, s=0j):
        """f's angular orders on real radii r: {k: f_k(r)} with f(r e^(i theta))
        = sum of e^(ik theta) f_k(r), f_k the sum of g(s) exp(Q(r)) r^|k| row_k(r)
        over the groups.  A P(t) has no finite angular split: QuadratureFailure."""
        orders = {}
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for exp_t, exp_r, g, ahead, behind in self._grouped():
                if exp_t:
                    raise QuadratureFailure(f"{self.name}: exp(P(t)) has no angular split")
                factor = (1.0 if g is None else g(s)) * np.exp(sum(c * r ** k for k, c in exp_r))
                for sign, rows in ((1, ahead), (-1, behind)):
                    for j, row in rows.items():
                        part = factor * r ** j * _radial(*row, r)
                        orders[sign * j] = orders.get(sign * j, 0.0) + part
        return orders

    def _grouped(self):
        if self._groups is None:
            object.__setattr__(self, "_groups", _groups(self.terms))
        return self._groups

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        return TestFunction(self.terms + other.terms, self.name)

    def scale(self, c):
        return TestFunction(tuple(t.moved(c, 0, 0) for t in self.terms), self.name)

    def times_t(self, power):
        return TestFunction(tuple(t.moved(1, power, power) for t in self.terms), self.name)

    def shift_s(self, delta):
        return TestFunction(tuple(
            Term(t.coeff, t.order, t.power, t.exp_t, t.exp_r,
                 None if t.s_factor is None else t.s_factor.shifted(delta))
            for t in self.terms), self.name)

    # -- exact derivatives -------------------------------------------------------

    def wirtinger_t(self):
        """The (1,0) Wirtinger derivative d/dt, term by term: the power rule,
        then d/dt t^j = j t^(j-1) and d/dt r^j = j/2 r^(j-1) e^(-i theta)."""
        out = []
        for tm in self.terms:
            if tm.power + tm.order:
                out.append(tm.moved((tm.power + tm.order) / 2, -1, -1))
            for j, p in tm.exp_t:
                out.append(tm.moved(j * p, j - 1, j - 1))
            for j, c in tm.exp_r:
                out.append(tm.moved(j * c / 2, -1, j - 1))
        return TestFunction(tuple(out), self.name)

    def euler(self):
        """t * d/dt."""
        return self.wirtinger_t().times_t(1)

    # -- decay certificate --------------------------------------------------------

    def decay(self):
        """(flat_at_zero, flat_at_infinity), valid in every direction."""
        if not self.terms:
            return True, True
        flat0 = all(any(k < 0 and c.real < 0 for k, c in tm.exp_r) for tm in self.terms)
        flat_inf = all(any(k > 0 and c.real < 0 for k, c in tm.exp_r) for tm in self.terms)
        return flat0, flat_inf


def apply_operator_terms(P, f):
    """Per-monomial applications t^a th^b f, for relative scales in guard checks."""
    if P.algebra is not Algebra.D:
        raise MixedAlgebra("only torus-algebra operators act on test functions")
    if P.arity != 1:
        raise MixedAlgebra("test functions live over one torus variable")
    out = []
    for (a, b), coeff in P.terms.items():  # p = 1: each key is (t, th)
        part = f
        for _ in range(b):
            part = part.euler()
        out.append(part.times_t(a).scale(complex(coeff)))
    return out


# -- built-in functions ---------------------------------------------------------


def ray_exponential(powers, name):
    """exp(sum c_k t^k), decaying along the positive ray."""
    return TestFunction((Term(exp_t=_poly_tuple(powers)),), name)


def envelope_mode(mode=0, s_factor=None, weight=1.0, radial=None):
    """A flat radial envelope times the angular factor e^(-i mode theta).

    Positive ``mode`` couples to the order-``mode`` moment at infinity.  The
    default envelope exp(-r - 1/r) decays exponentially at both boundary
    circles; pass ``radial={2: -1, -1: -1}`` for Gaussian outer decay when a
    check needs the far tail to be entirely negligible at moderate radii.
    """
    return Term(
        coeff=complex(weight),
        order=-mode,
        exp_r=_poly_tuple(radial if radial is not None else {1: -1.0, -1: -1.0}, float),
        s_factor=s_factor,
    )


_RAYS = {"gamma": {1: -1}, "gaussian": {2: -1}, "bessel": {1: -1, -1: -1}}

# name: (modes, radial envelope, shift factor); a blend of several modes
# weighs mode m by 1/m!, a single mode by 1, and None is the standard envelope
_ENVELOPES = {
    "radial": ((0,), None, None),
    "modeblend": (range(6), None, None),
    "gaussblend": (range(6), {2: -1.0, -1: -1.0}, None),
    "sep-mode2": ((2,), None, SFactor((1 + 0j, 0.5 + 0j))),  # 1 + s/2
    "sep-modeblend": (range(4), None, SFactor((1 + 0j, 0.25 + 0j))),
}


def build_builtin(name):
    if name in _RAYS:
        return ray_exponential(_RAYS[name], name)
    mode = re.fullmatch(r"mode(-?[0-9]+)", name)  # an integer suffix selects the mode
    if not (mode or name in _ENVELOPES):
        raise ValueError(f"unknown built-in function {name!r}")
    modes, radial, g = ((int(mode[1]),), None, None) if mode else _ENVELOPES[name]
    return TestFunction(tuple(
        envelope_mode(m, g, 1.0 / factorial(m) if len(modes) > 1 else 1.0, radial)
        for m in modes), name)

