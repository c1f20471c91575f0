"""Smooth test functions on the punctured plane with exact Wirtinger partials.

Functions are finite sums of terms

    c * g(s) * t^a * conj(t)^b * |t|^m * exp(P(t) + Q(|t|))

with integer powers a, b, m and Laurent polynomials P (complex coefficients)
and Q (real coefficients).  The family is closed under the two Wirtinger
derivatives, under multiplication by integer powers of t, and under the
separable shift-variable factors g(s) = (polynomial in s) * exp(beta*s), so
every derivative used by the checks is supplied in closed form rather than
by numerical differentiation.

Rapid decay at both boundary circles, uniformly in the argument, comes from
the radial exponent Q: the standard envelope exp(-r - 1/r) is flat at 0 and
at infinity in every direction.  Purely holomorphic exponents such as
exp(-t) decay only along the positive ray and are used by the ray-transform
checks, not by the Haar-measure ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ore import Algebra
from .shiftpoly import binomial_shift
from .errors import MixedAlgebra


def _poly_tuple(d):
    return tuple(sorted((int(k), complex(v)) for k, v in (d or {}).items() if v != 0))


@dataclass(frozen=True)
class SFactor:
    """Separable shift factor (poly in s) * exp(beta * s)."""

    coeffs: tuple = (1 + 0j,)
    beta: complex = 0j

    def __call__(self, s):
        val = 0j
        for c in reversed(self.coeffs):
            val = val * s + c
        if self.beta:
            val = val * np.exp(self.beta * s)
        return val

    def shifted(self, delta):
        """The factor s -> g(s + delta), expanded back into the family."""
        n = len(self.coeffs)
        out = [0j] * n
        for k, c in enumerate(self.coeffs):
            for i, w in binomial_shift(k, delta):
                out[i] += c * w
        scale = np.exp(self.beta * delta) if self.beta else 1.0
        return SFactor(tuple(v * scale for v in out), self.beta)


@dataclass(frozen=True)
class Term:
    coeff: complex = 1 + 0j
    t_pow: int = 0
    tbar_pow: int = 0
    r_pow: int = 0
    exp_t: tuple = ()  # ((power, complex coeff), ...)
    exp_r: tuple = ()  # ((power, float coeff), ...)
    s_factor: SFactor | None = None

    def scaled(self, c):
        return Term(self.coeff * c, self.t_pow, self.tbar_pow, self.r_pow,
                    self.exp_t, self.exp_r, self.s_factor)

    def with_powers(self, dt=0, dtb=0, dr=0):
        return Term(self.coeff, self.t_pow + dt, self.tbar_pow + dtb,
                    self.r_pow + dr, self.exp_t, self.exp_r, self.s_factor)


class TestFunction:
    """A finite sum of family terms, evaluable on numpy grids.

    ``separable`` records whether the dependence on the shift variable is
    exposed term by term; it is, for everything built from family terms.
    Wrappers around opaque evaluators should pass ``separable=False`` so the
    shift-transport checks can refuse them instead of silently mis-shifting.
    """

    __test__ = False  # not a pytest item, despite the (domain) name
    __slots__ = ("terms", "name", "separable")

    def __init__(self, terms, name="anonymous", separable=True):
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "separable", bool(separable))

    def __setattr__(self, key, value):
        raise AttributeError("TestFunction is immutable")

    # -- evaluation ----------------------------------------------------------

    def __call__(self, t, s=0j):
        t = np.asarray(t, dtype=complex)
        r = np.abs(t)
        total = np.zeros_like(t)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for term in self.terms:
                val = np.full_like(t, term.coeff)
                if term.s_factor is not None:
                    val = val * term.s_factor(s)
                if term.t_pow:
                    val = val * t ** term.t_pow
                if term.tbar_pow:
                    val = val * np.conj(t) ** term.tbar_pow
                if term.r_pow:
                    val = val * r ** term.r_pow
                expo = np.zeros_like(t)
                for k, c in term.exp_t:
                    expo = expo + c * t ** k
                for k, c in term.exp_r:
                    expo = expo + c * r ** k
                if term.exp_t or term.exp_r:
                    val = val * np.exp(expo)
                total = total + val
        return total

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        return TestFunction(
            self.terms + other.terms, self.name, self.separable and other.separable
        )

    def scale(self, c):
        return TestFunction(tuple(t.scaled(c) for t in self.terms), self.name, self.separable)

    def times_t(self, power):
        return TestFunction(
            tuple(t.with_powers(dt=power) for t in self.terms), self.name, self.separable
        )

    def shift_s(self, delta):
        if not self.separable:
            from .errors import NotSeparable

            raise NotSeparable(f"{self.name} does not expose its s-dependence")
        out = []
        for term in self.terms:
            g = term.s_factor.shifted(delta) if term.s_factor is not None else None
            out.append(Term(term.coeff, term.t_pow, term.tbar_pow, term.r_pow,
                            term.exp_t, term.exp_r, g))
        return TestFunction(tuple(out), self.name)

    # -- exact derivatives -------------------------------------------------------

    def wirtinger_t(self):
        """The (1,0) Wirtinger derivative d/dt, term by term."""
        out = []
        for tm in self.terms:
            if tm.t_pow:
                out.append(tm.scaled(tm.t_pow).with_powers(dt=-1))
            for k, c in tm.exp_t:
                out.append(tm.scaled(k * c).with_powers(dt=k - 1))
            # d r / d t = conj(t) / (2 r)
            if tm.r_pow:
                out.append(tm.scaled(tm.r_pow / 2).with_powers(dtb=1, dr=-2))
            for k, c in tm.exp_r:
                out.append(tm.scaled(k * c / 2).with_powers(dtb=1, dr=k - 2))
        return TestFunction(tuple(out), self.name, self.separable)

    def wirtinger_tbar(self):
        """The (0,1) Wirtinger derivative d/dtbar, term by term."""
        out = []
        for tm in self.terms:
            if tm.tbar_pow:
                out.append(tm.scaled(tm.tbar_pow).with_powers(dtb=-1))
            # d r / d tbar = t / (2 r)
            if tm.r_pow:
                out.append(tm.scaled(tm.r_pow / 2).with_powers(dt=1, dr=-2))
            for k, c in tm.exp_r:
                out.append(tm.scaled(k * c / 2).with_powers(dt=1, dr=k - 2))
        return TestFunction(tuple(out), self.name, self.separable)

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


def apply_operator(P, f):
    """Apply a torus-algebra operator with the plain action th = t d/dt."""
    parts = apply_operator_terms(P, f)
    return TestFunction(tuple(term for part in parts for term in part.terms), f.name)


def apply_operator_terms(P, f):
    """Per-monomial applications t^a th^b f, for relative scales in guard checks."""
    if P.algebra is not Algebra.D:
        raise MixedAlgebra("only torus-algebra operators act on test functions")
    if P.arity != 1:
        raise MixedAlgebra("test functions live over one torus variable")
    out = []
    for (a, b, _c, _d), coeff in P.terms.items():
        part = f
        for _ in range(b[0]):
            part = part.euler()
        out.append(part.times_t(a[0]).scale(complex(coeff)))
    return out


# -- built-in functions ---------------------------------------------------------


def ray_exponential(powers, name):
    """exp(sum c_k t^k), decaying along the positive ray."""
    return TestFunction((Term(exp_t=_poly_tuple(powers)),), name)


def envelope_mode(mode=0, r_extra=0, s_factor=None, weight=1.0, radial=None):
    """A flat radial envelope times the angular factor (conj(t)/r)^mode.

    Positive ``mode`` couples to the order-``mode`` moment at infinity.  The
    default envelope exp(-r - 1/r) decays exponentially at both boundary
    circles; pass ``radial={2: -1, -1: -1}`` for Gaussian outer decay when a
    check needs the far tail to be entirely negligible at moderate radii.
    """
    if mode >= 0:
        tb, tp = mode, 0
    else:
        tb, tp = 0, -mode
    return Term(
        coeff=complex(weight),
        t_pow=tp,
        tbar_pow=tb,
        r_pow=-abs(mode) + r_extra,
        exp_r=_poly_tuple(radial if radial is not None else {1: -1.0, -1: -1.0}),
        s_factor=s_factor,
    )


def build_builtin(name):
    if name == "gamma":
        return ray_exponential({1: -1}, "gamma")
    if name == "gaussian":
        return ray_exponential({2: -1}, "gaussian")
    if name == "bessel":
        return ray_exponential({1: -1, -1: -1}, "bessel")
    if name == "radial":
        return TestFunction((envelope_mode(0),), "radial")
    if name == "modeblend":
        from math import factorial

        terms = tuple(envelope_mode(m, weight=1.0 / factorial(m)) for m in range(6))
        return TestFunction(terms, "modeblend")
    if name == "gaussblend":
        from math import factorial

        terms = tuple(
            envelope_mode(m, weight=1.0 / factorial(m), radial={2: -1.0, -1: -1.0})
            for m in range(6)
        )
        return TestFunction(terms, "gaussblend")
    if name.startswith("mode"):
        m = int(name[4:])
        return TestFunction((envelope_mode(m),), name)
    if name == "sep-mode2":
        g = SFactor((1 + 0j, 0.5 + 0j))  # 1 + s/2
        return TestFunction((envelope_mode(2, s_factor=g),), "sep-mode2")
    if name == "sep-modeblend":
        from math import factorial

        g = SFactor((1 + 0j, 0.25 + 0j))
        terms = tuple(
            envelope_mode(m, s_factor=g, weight=1.0 / factorial(m)) for m in range(4)
        )
        return TestFunction(terms, "sep-modeblend")
    raise KeyError(f"unknown built-in function {name!r}")


BUILTIN_NAMES = (
    "gamma",
    "gaussian",
    "bessel",
    "radial",
    "mode1",
    "mode2",
    "mode3",
    "modeblend",
    "gaussblend",
    "sep-mode2",
    "sep-modeblend",
)
