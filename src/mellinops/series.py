"""Truncated tail series with shift-polynomial coefficients.

A :class:`TailSeries` models a finite window of the one-sided expansion
spaces that arise at the two boundary circles of the torus, one axis per
modeled variable:

* ``zero`` axes hold positive powers of t_j with stored indices 1..N
  (the class of an expansion at 0, with constants killed);
* ``inf`` axes hold powers of 1/t_j with stored indices 0..N (the class of
  an expansion at infinity, constants kept).

Coefficients are :class:`~mellinops.shiftpoly.ShiftPolynomial` values in
s_1..s_p.  The torus operators act "twisted": t_j moves the actual exponent
up by one, the Euler operator th_j multiplies the coefficient at actual
exponent n by (n - s_j - 1), the auxiliary shift symbol tau_j translates
coefficients by s_j -> s_j + 1 without touching exponents, and s_j
multiplies coefficients.  Terms leaving the window (or
landed on by the quotient: non-positive powers on ``zero`` axes, positive
powers on ``inf`` axes) are dropped; exactness claims are therefore made on
the window interior only, with the top exponent a declared defect zone.

Operators act generator by generator, in word order
(:meth:`TailSeries.apply_word`): the twisted model realizes th as
(t d/dt - s - 1), and that operator does not commute with the bare
coefficient shift even though th and tau commute in the combined algebra.
The Koszul differential :func:`shift_cycle` is the one operator with its own
single pass; it equals the word tau_j t_j^-1 minus the identity.  That pass,
:func:`cycle_terms`, runs on raw terms (index -> the coefficient's own term
dict); ``shift_cycle`` unwraps a series, runs the pass and wraps the result.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple

from .errors import MixedAlgebra, TruncationOverflow
from .ore import GenKind, Generator
from .shiftpoly import ShiftPolynomial, as_poly, shift_rows, shift_sub
from .sparse import SparseSum

ZERO_TYPE = "zero"
INF_TYPE = "inf"


class Axis(NamedTuple):
    """One modeled expansion direction: variable index, kind, window top."""

    var: int
    kind: str
    n_max: int

    @property
    def window(self):
        """The stored indices: 1..n_max on a ``zero`` axis, 0..n_max on ``inf``."""
        return range(1 if self.kind == ZERO_TYPE else 0, self.n_max + 1)


def _actual_exponent(axis, n):
    return -n if axis.kind == INF_TYPE else n


class TailSeries(SparseSum):
    """Finite window of a one-sided formal series, one axis per variable.

    Terms map index tuples of ints, one per axis and inside its window, to
    nonzero :class:`~mellinops.shiftpoly.ShiftPolynomial` coefficients.  The
    constructor validates its input; the operations build their results
    through the unchecked :meth:`_like`, since their operands are already
    clean.
    """

    __slots__ = ()

    def __init__(self, coeff_arity, axes, terms=None):
        coeff_arity = index(coeff_arity)
        axes = tuple(Axis(index(a.var), a.kind, index(a.n_max)) for a in axes)
        seen = set()
        for axis in axes:
            if axis.kind not in (ZERO_TYPE, INF_TYPE):
                raise ValueError(f"unknown axis kind {axis.kind!r}")
            if axis.n_max < 1:
                raise ValueError("axes need n_max >= 1")
            if not 1 <= axis.var <= coeff_arity:
                raise ValueError(f"axis variable {axis.var} not in 1..{coeff_arity}")
            if axis.var in seen:
                raise ValueError(f"duplicate axis for variable {axis.var}")
            seen.add(axis.var)
        object.__setattr__(self, "shape", (coeff_arity, axes))
        windows = [axis.window for axis in axes]
        clean = {}
        for idx, poly in (terms or {}).items():
            idx = tuple(index(n) for n in idx)
            if len(idx) != len(axes):
                raise ValueError("index length does not match axes")
            for axis, window, n in zip(axes, windows, idx):
                if n not in window:
                    raise TruncationOverflow(
                        f"index {n} outside window [{window.start}, {axis.n_max}] "
                        f"on variable {axis.var}"
                    )
            poly = as_poly(poly, coeff_arity)
            if not poly.is_zero():
                clean[idx] = poly
        object.__setattr__(self, "terms", clean)

    # -- basics --------------------------------------------------------------

    def axis_for(self, var):
        for pos, axis in enumerate(self.axes):
            if axis.var == var:
                return pos, axis
        raise ValueError(f"variable {var} is not a modeled axis")

    def coefficient(self, idx):
        idx = tuple(idx) if isinstance(idx, (tuple, list)) else (idx,)
        return self.terms.get(idx, ShiftPolynomial.zero(self.coeff_arity))

    @property
    def coeff_arity(self):
        return self.shape[0]

    @property
    def axes(self):
        return self.shape[1]

    def _like(self, terms):
        """A series of this shape from clean polynomial coefficients: those
        with no terms drop (a polynomial's own terms are clean)."""
        return self._made({idx: poly for idx, poly in terms.items() if poly.terms})

    def _raw(self):
        """The terms as raw dicts: index -> its coefficient's own terms."""
        return {idx: poly.terms for idx, poly in self.terms.items()}

    def _wrapped(self, raw):
        """A series of this shape from raw terms, each clean and non-empty."""
        poly = ShiftPolynomial.zero(self.coeff_arity)._made
        return self._made({idx: poly(p) for idx, p in raw.items()})

    def _lift(self, value):
        return NotImplemented  # series combine only with series of the same shape

    def _compatible(self, other):
        if self.coeff_arity != other.coeff_arity or self.axes != other.axes:
            raise MixedAlgebra("tail series shapes differ")

    def __repr__(self):
        names = {ZERO_TYPE: "t", INF_TYPE: "1/t"}
        bits = []
        for idx in sorted(self.terms):
            mono = "*".join(
                f"({names[axis.kind]}_{axis.var})^{n}" for axis, n in zip(self.axes, idx)
            )
            bits.append(f"[{self.terms[idx]!r}]{mono}")
        return " + ".join(bits) if bits else "0"

    # -- the twisted action ----------------------------------------------------

    def apply_generator(self, gen):
        """One twisted generator application; out-of-window terms drop."""
        gen = Generator(GenKind(gen.kind), gen.index)
        j = gen.index
        if gen.kind in (GenKind.TAU, GenKind.TAUINV, GenKind.S):
            if not 1 <= j <= self.coeff_arity:
                raise ValueError(f"variable {j} not in 1..{self.coeff_arity}")
            if gen.kind is GenKind.S:
                s_j = ShiftPolynomial.variable(j, self.coeff_arity)
                return self._like({i: p * s_j for i, p in self.terms.items()})
            step = 1 if gen.kind is GenKind.TAU else -1
            return self._like({i: p.shift(j, step) for i, p in self.terms.items()})

        pos, axis = self.axis_for(j)
        if gen.kind is GenKind.THETA:
            s_j = ShiftPolynomial.variable(j, self.coeff_arity)
            return self._like({
                idx: poly.scale(_actual_exponent(axis, idx[pos]) - 1) - poly * s_j
                for idx, poly in self.terms.items()
            })

        # t and t^-1 move every stored index by the same step, so no two terms meet
        step = 1 if gen.kind is GenKind.T else -1
        window = axis.window
        terms = {}
        for idx, poly in self.terms.items():
            stored = idx[pos] + (-step if axis.kind == INF_TYPE else step)
            if stored in window:  # else a quotient kill or the truncation defect zone
                terms[idx[:pos] + (stored,) + idx[pos + 1 :]] = poly
        return self._like(terms)

    def apply_word(self, word):
        """Apply a generator word as an operator: the rightmost acts first."""
        out = self
        for gen in reversed(list(word)):
            out = out.apply_generator(gen)
        return out

    # -- window helpers ----------------------------------------------------------

    def interior_terms(self, var):
        """Terms with the given variable's index in the window interior,
        below the window top."""
        pos, axis = self.axis_for(var)
        interior = axis.window[:-1]
        return {i: p for i, p in self.terms.items() if i[pos] in interior}

    def agrees_on_interior(self, other, var):
        self._check(other)
        return self.interior_terms(var) == other.interior_terms(var)


def shift_cycle(series, var):
    """The difference operator tau_j t_j^-1 - 1 in the twisted action.

    This is the Koszul differential in direction ``var``: a coefficient
    translation combined with one step down in the actual exponent, minus
    the identity.  It equals ``series.apply_word((TAU_j, TINV_j)) - series``,
    computed in one pass (:func:`cycle_terms`) on the series' raw terms.
    """
    pos, axis = series.axis_for(var)
    return series._wrapped(cycle_terms(series._raw(), pos, axis))


def cycle_terms(terms, pos, axis):
    """The shift cycle on raw terms, ``axis`` at place ``pos`` of each index.

    ``terms`` maps indices to clean, non-empty coefficient term dicts, and so
    does the result.  The output at stored index n is tau_j of the input at
    the neighbour t_j^-1 moves onto n, less the input at n, built once by
    :func:`~mellinops.shiftpoly.shift_sub`; an index that nothing lands on
    keeps the negated input, and empty results drop.
    """
    step = 1 if axis.kind == INF_TYPE else -1  # t^-1 on the stored index
    window, rows = axis.window, shift_rows(axis.var - 1, 1)
    get, empty = terms.get, {}
    out = {}
    for idx, p in terms.items():
        n = idx[pos] + step
        if n in window:  # else a quotient kill or the truncation defect zone
            key = idx[:pos] + (n,) + idx[pos + 1 :]
            out[key] = shift_sub(p, rows, get(key, empty))
    for idx, p in terms.items():
        if idx not in out:  # nothing lands here: the identity term alone
            out[idx] = {e: -c for e, c in p.items()}
    return {idx: p for idx, p in out.items() if p}
